"""Extremal families of flats with small unions, and their certificates.

A family here is a set of k-flats of F_p^n, at least lambda * p^t of them,
each carrying at least lambda * p^s marked points of itself; the object of
interest is the union E of the marked points.  The constructions realize the
matching upper bounds for the index function: every "p^x many" in the recipes
becomes the integer ceil(p^x), every choice of flats is the lexicographically
first eligible ones from the canonical enumeration, so identical inputs give
byte-identical families.

Each recipe is the piece of F that `furstenberg_params` labels.  The
two-dimensional recipes (point pencils, trivial sum-bound family, the
Szemeredi-Trotter-style grid of lines, and the horizontal strip) seed the
general one, each a case-c piece of its own label: the seed is extruded by a
full F_p^d factor, then by graph flats over an F_p^M factor, padded with zero
coordinates to F_p^n, and finally each flat is lifted to the k-flats through
it that are transverse to the ambient coordinate slice.

A member is a flat with its marked points (its y-set): a strictly sorted
tuple of point tuples, built valid.  A family is its members: the union E is
derived from the y-sets, validated once as a `PointSet` on first use.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property

from ._kernel import _reduce_columns
from .flags import (
    AffineFlat,
    LinearSubspace,
    enumerate_affine,
    enumerate_linear,
    gaussian_binomial,
    join_rows,
)
from .indices import (
    ceil_rational_power,
    ceil_scaled_power,
    floor_scaled_power,
    furstenberg_index,
    furstenberg_params,
)
from .primefield import DegenerateScaleError, _Record, check_prime
from .projections import PointSet

HALF = Fraction(1, 2)


class FurstenbergFamily(_Record):
    """A constructed family: flats with their marked point sets."""

    lam = HALF

    def __init__(self, s: Fraction, t: Fraction, n: int, k: int, p: int, branch: str,
                 members: tuple[tuple[AffineFlat, tuple[tuple[int, ...], ...]], ...]):
        self._set_fields(s, t, n, k, p, branch, members)

    @cached_property
    def union(self) -> PointSet:
        """E: the y-sets' sorted union, each point as its first member marks it."""
        return PointSet(self.n, self.p, tuple(sorted(set().union(*(ys for _, ys in self.members)))))


class FamilyValidity(_Record):
    def __init__(self, failures: tuple[str, ...]):
        self._set_fields(failures)

    @property
    def is_valid(self) -> bool:
        return not self.failures


def _pencils(n: int, k: int, p: int, count: int, directions: list):
    """The k-flats of the given directions through each of the first `count`
    points of the slice F_p^(n-k) x 0^k in lex order, each marking its point."""
    pad = (0,) * k
    points = [q + pad for q in itertools.islice(itertools.product(range(p), repeat=n - k), count)]
    return [(AffineFlat.through(x, U), (x,)) for x in points for U in directions]


def _origin_pencil(s, t: Fraction, p: int, n: int = 2, k: int = 1):
    """The first ceil(p^t) k-flats through the origin, each marking it."""
    directions = list(itertools.islice(enumerate_linear(n, k, p), ceil_rational_power(p, t)))
    return _pencils(n, k, p, 1, directions)


def _axis_pencils(s, t: Fraction, p: int):
    """The lines (1, c), c = 1..p-1, the ones right after the x-axis in
    enumeration order, through the first ceil(p^(t-1)) <= p points of it."""
    slanted = list(itertools.islice(enumerate_linear(2, 1, p), 1, p))
    return _pencils(2, 1, p, ceil_rational_power(p, t - 1), slanted)


def _trivial(s: Fraction, t: Fraction, p: int):
    nlines = ceil_rational_power(p, t)
    npts = ceil_rational_power(p, s)
    members = []
    for D in itertools.islice(enumerate_linear(2, 1, p), nlines):
        flat = AffineFlat.through((0, 0), D)
        members.append((flat, tuple(flat.points()[:npts])))  # sorted: flat is through 0
    return members


def _st_grid(s: Fraction, t: Fraction, p: int):
    nslopes = ceil_rational_power(p, (t - s) / 2)
    if nslopes > p - 1:
        raise DegenerateScaleError(
            f"slope count ceil(p^((t-s)/2)) = {nslopes} exceeds {p - 1} at p = {p}"
        )
    # both <= p, since (s + t)/2 <= 1 and s <= 1
    nshifts = ceil_rational_power(p, (s + t) / 2)
    xspan = ceil_scaled_power(HALF, p, s)
    members = []
    for a in range(1, nslopes + 1):
        direction = LinearSubspace.from_rows([[1, a]], 2, p)
        for b in range(1, nshifts + 1):
            pts = tuple([(x, (a * x + b) % p) for x in range(1, xspan + 1)])
            members.append((AffineFlat.through((0, b), direction), pts))
    return members


def _strip(s: Fraction, t: Fraction, p: int):
    """Every non-horizontal line, marked where it crosses the strip of rows
    1..ceil(p^s).

    Such a line meets each row y in exactly one point, so no line is listed:
    the line with direction (1, c), c != 0, and base (0, y0) meets row y at
    x = (y - y0) * c^-1 mod p, and the line with direction (0, 1) and base
    (x0, 0) meets it at x = x0.  The p * ceil(p^s) strip points are built
    once and shared by all p^2 members.
    """
    nrows = ceil_rational_power(p, s)  # <= p, since s <= 1
    rows = sorted({r % p for r in range(1, nrows + 1)})
    columns = [tuple([(x, y) for y in rows]) for x in range(p)]
    members = []
    for line in enumerate_affine(2, 1, p):
        a, c = line.direction.row(0)
        if not a:  # direction (0, 1), base (x0, 0)
            pts = columns[line.base[0]]
        elif c:  # direction (1, c), base (0, y0)
            inv, y0 = pow(c, -1, p), line.base[1]
            pts = tuple(sorted([columns[(y - y0) * inv % p][i] for i, y in enumerate(rows)]))
        else:  # horizontal
            continue
        members.append((line, pts))
    return members


def _line(sigma: Fraction, tau, p: int):
    """Case d's seed: one line of F_p^1 carrying ceil(p^sigma) points."""
    line = AffineFlat.through((0,), LinearSubspace.coordinate((0,), 1, p))
    return [(line, tuple([(x,) for x in range(ceil_rational_power(p, sigma))]))]


_PLANAR = {  # the branch and members of each piece of F(s, t; 2, 1)
    "a-zero": ("2d-origin-pencil", _origin_pencil), "a-excess": ("2d-axis-pencils", _axis_pencils),
    "b": ("2d-trivial", _trivial), "c-tau": ("2d-trivial", _trivial),
    "c-mean": ("2d-st-grid", _st_grid), "c-one": ("2d-strip", _strip),
}
# the seed of each piece that extrudes: case c's 2-D piece at (sigma, tau), case d's line
_SEED = {"c-tau": _trivial, "c-mean": _st_grid, "c-one": _strip, "d": _line}


def construct_general(s, t, n: int, k: int, p: int) -> FurstenbergFamily:
    """A small (s, t)-family of k-flats in F_p^n with lambda = 1/2.

    Dispatch on the piece of `furstenberg_params` (`_PLANAR` in F_p^2,
    `_GENERAL` elsewhere): the a pieces take pencils through few points; b
    reuses one point set on flats through a fixed coordinate subspace; the c
    pieces and d extrude their `_SEED`, case d's tau > 2 reduced to 0 with
    one more extrusion step.  Each recipe gives its branch and members, and
    the family is built here.
    """
    check_prime(p)
    pr = furstenberg_params(s, t, n, k)
    if (n, k) == (2, 1):
        branch, build = _PLANAR[pr.piece]
        members = build(pr.s, pr.t, p)
    else:
        branch, members = _GENERAL[pr.piece](pr, p)
    return FurstenbergFamily(pr.s, pr.t, n, k, p, branch, tuple(members))


def _complements(n: int, dim: int, p: int) -> list:
    """The dim-subspaces U of F_p^n with U + F_p^(n-dim) = F_p^n, the slice
    spanned by the first n - dim axes, in enumeration order: the
    p^(dim*(n-dim)) complements of that slice."""
    axes = tuple(range(n - dim))
    found = [U for U in enumerate_linear(n, dim, p) if len(join_rows(U, axes)) == n]
    assert len(found) == p ** (dim * (n - dim))
    return found


def _general_case_b(pr, p: int):
    n, k = pr.n, pr.k
    core = LinearSubspace.coordinate(range(pr.d + 1), n, p)
    need = ceil_rational_power(p, pr.t)
    # the first p^((k-d-1)(n-k)) k-subspaces have pivots 0..k-1 and rows 0..d
    # equal to e_0..e_d, since row 0 varies slowest: each contains the core
    assert need <= p ** ((k - pr.d - 1) * (n - k))
    hosts = list(itertools.islice(enumerate_linear(n, k, p), need))
    ys = tuple(core.points()[: ceil_rational_power(p, pr.s)])  # sorted: core is coordinate
    origin = (0,) * n
    return "general-b-shared", [(AffineFlat.through(origin, U), ys) for U in hosts]


def _extruded(pr, p: int):
    """The piece's seed crossed with F_p^d and extruded to F_p^(d + m + 2):
    m graph steps over a 2-D seed, m + 1 over case d's line."""
    n, k, d = pr.n, pr.k, pr.d
    members = _SEED[pr.piece](pr.sigma, pr.tau, p)
    ambient = d + pr.m + 2
    depth = ambient - d - members[0][0].n
    if d > 0:
        members = [_cross(m, d, p, full=True) for m in members]
    if depth > 0:
        shared = {}
        members = [w for m in members for w in _extrude_graphs(m, depth, p, shared)]
    if ambient < n:
        members = [_cross(m, n - ambient, p, full=False) for m in members]
    branch = f"general-{pr.case}"
    if k - d - 1 > 0:
        members = _lift_transverse(members, n, k, p)
        branch += "-lifted"
    return branch, members


_GENERAL = {  # each piece's recipe for F(s, t; n, k), giving its branch and members
    "a-zero": lambda pr, p: ("general-a-origin", _origin_pencil(pr.s, pr.t, p, pr.n, pr.k)),
    "a-excess": lambda pr, p: ("general-a-transverse", _pencils(
        pr.n, pr.k, p, ceil_rational_power(p, pr.t - pr.k * (pr.n - pr.k)),
        _complements(pr.n, pr.k, p))),
    "b": _general_case_b, **dict.fromkeys(_SEED, _extruded),
}


def _cross(member, r: int, p: int, full: bool):
    """Cross a flat and its point set with F_p^r: with the full factor the r
    new axes join the direction and each point is crossed with all of F_p^r;
    otherwise (padding) each point is crossed with the origin."""
    flat, ys = member
    q, dim, pivots = flat.n, flat.k, flat.direction.pivots
    rows = [row + [0] * r for row in flat.direction.to_rows()]
    factor = [(0,) * r]
    if full:
        rows += [[int(j == q + i) for j in range(q + r)] for i in range(r)]
        dim, pivots = dim + r, pivots + tuple(range(q, q + r))
        factor = list(itertools.product(range(p), repeat=r))
    direction = LinearSubspace(p, dim, q + r, tuple([e for row in rows for e in row]), pivots)
    pts = tuple([pt + z for pt in ys for z in factor])
    return AffineFlat(direction, flat.base + (0,) * r), pts


def _extrude_graphs(member, depth: int, p: int, shared: dict):
    """All graph flats over `member` in `depth` extra coordinates.

    For a flat U with RREF direction basis B and base u0, the graphs are
    W(T, z) = {(u, y*T + z) : u = u0 + y*B in U}; there are exactly
    p^((dim+1)*depth) of them, pairwise distinct, each projecting onto U.

    A marked point u of U has y = u at B's pivots, and its point of W(T, z)
    is (u, (y*T + z) mod p).  The linear part y*T is computed once per
    (T, point).  As z runs over F_p^depth those points run over
    {u} x F_p^depth once each, so these p^depth tuples are built once per
    point and only picked out per graph; `shared` interns them across the
    members of one construction, which share points.
    """
    flat, ys = member
    q = flat.n
    dim = flat.k
    rows0 = flat.direction.to_rows()
    pivots = flat.direction.pivots
    grid = list(itertools.product(range(p), repeat=depth))
    lifts = [[shared.setdefault(x, x) for x in [pt + v for v in grid]] for pt in ys]
    coeffs = [tuple(pt[c] for c in pivots) for pt in ys]
    weights = [p ** (depth - 1 - j) for j in range(depth)]
    pickers = {}  # y*T mod p -> picks the points (u, y*T + z) in grid order of z
    out = []
    for tmat in itertools.product(grid, repeat=dim):
        entries = tuple([e for row, trow in zip(rows0, tmat) for e in row + list(trow)])
        direction = LinearSubspace(p, dim, q + depth, entries, pivots)
        columns = []
        for cf, lift in zip(coeffs, lifts):
            lin = tuple(
                sum(c * trow[j] for c, trow in zip(cf, tmat)) % p for j in range(depth)
            )
            pick = pickers.get(lin)
            if pick is None:
                pick = pickers[lin] = operator.itemgetter(*(
                    sum((a + b) % p * w for a, b, w in zip(lin, z, weights)) for z in grid
                ))
            columns.append(pick(lift))
        # column i lists point i's lifts by z; a row lists one graph's points
        graphs = list(zip(*columns)) or [()] * len(grid)
        for z, pts in zip(grid, graphs):
            out.append((AffineFlat(direction, flat.base + z), pts))
    return out


def _lift_transverse(members, n: int, k: int, p: int):
    """Replace each flat W by every k-flat through it that meets the
    coordinate slice S = F_p^(n-k+d+1) exactly in W.

    With s = d + sigma, every W has dimension d+1 and lies in S, since its
    ambient space has at most n-k+d+1 coordinates.  So for an extension
    direction D of dimension k-d-1, W + D is a k-flat meeting S exactly in W
    iff D + S = F_p^n: S is the first n - (k-d-1) axes, and the D are its
    `_complements`, listed once and shared by all members.  The k-flats
    W + D are kept once each in first-seen order, and there must be
    p^((k-d-1)(n-k)) of them per member.
    """
    extension_dim = k - members[0][0].k
    extensions = [D.to_rows() for D in _complements(n, extension_dim, p)]
    expected = p ** (extension_dim * (n - k))
    out = []
    for flat, ys in members:
        rows = flat.direction.to_rows()
        lifts = dict.fromkeys(LinearSubspace.from_rows(rows + D, n, p) for D in extensions)
        if len(lifts) != expected:
            raise DegenerateScaleError(
                f"transverse lift found {len(lifts)} flats, expected {expected}"
            )
        out.extend((AffineFlat.through(flat.base, U), ys) for U in lifts)
    return out


def _first_off_flat(pts, flat: AffineFlat, p: int):
    """The first of the points (residue tuples) off the flat, or None.

    `_kernel._reduce_columns` reduces the points modulo the direction's RREF
    rows column by column.  A pivot column, which `_reduce` zeroes, is not
    compared; every other column holds that coordinate of each point's
    `_reduce`.  The points lie on the flat iff each of those columns, touched
    by a row or not, is constant at the base, and the first point off it is
    the first to leave the base in any of them.
    """
    if not pts:
        return None
    cols = _reduce_columns(pts, flat.direction._rows, p)
    pivots = flat.direction.pivots
    off = [
        (cols[j], e) for j, e in enumerate(flat.base)
        if j not in pivots and cols[j].count(e) != len(pts)
    ]
    if not off:
        return None
    return pts[min(next(i for i, a in enumerate(col) if a != e) for col, e in off)]


def verify_family(f: FurstenbergFamily) -> FamilyValidity:
    """Exact check of the three defining conditions plus structural sanity.

    `f.union` is validated first: once it is a `PointSet`, each marked point
    is a length-n residue by value and a strictly sorted tuple counts its
    points.  It keeps each point's first-marked representative, so 1.0 is
    refused where marked first and counts as 1 after an int twin.  If it is
    refused, or where a y-set is not a tuple, the y-set goes through
    `PointSet(f.n, f.p, ys)`'s checks, reported, not raised.  Then each
    member's marked points are reduced modulo V in one column-major pass
    (`_first_off_flat`): they must all reduce to the base.
    """
    failures = []
    union_ok = True
    try:
        f.union
    except (TypeError, ValueError):  # an invalid point, or a y-set that is not iterable
        union_ok = False
    if len(f.members) < ceil_scaled_power(f.lam, f.p, f.t):
        failures.append(
            f"family has {len(f.members)} flats, fewer than lambda*p^t"
        )
    min_points = ceil_scaled_power(f.lam, f.p, f.s)
    seen = set()
    for i, (flat, pts) in enumerate(f.members):
        if flat.n != f.n or flat.p != f.p:
            failures.append(f"member {i}: flat in wrong space")
            continue
        if flat.k != f.k:
            failures.append(f"member {i}: flat dimension {flat.k} != {f.k}")
        key = (flat.direction.entries, flat.base)
        if key in seen:
            failures.append(f"member {i}: duplicate flat")
        seen.add(key)
        if union_ok and type(pts) is tuple:
            if not all(map(operator.lt, pts, pts[1:])):
                failures.append(f"member {i}: y-set is not strictly sorted")
                continue
        else:
            try:
                PointSet(f.n, f.p, pts)
            except (TypeError, ValueError) as exc:
                failures.append(f"member {i}: invalid y-set: {exc}")
                continue
        if len(pts) < min_points:
            failures.append(f"member {i}: y-set has {len(pts)} points, below lambda*p^s")
        bad = _first_off_flat(pts, flat, f.p)
        if bad is not None:
            failures.append(f"member {i}: point {bad} lies off its flat")
    return FamilyValidity(tuple(failures))


def lower_bound_sanity(f: FurstenbergFamily) -> bool:
    """The two unconditional lower bounds, checked exactly:
    #E >= lambda * p^s and #E * #G(k, F_p^n) >= lambda^2 * p^(s+t)."""
    count = len(f.union)
    if count < ceil_scaled_power(f.lam, f.p, f.s):
        return False
    grass = gaussian_binomial(f.n, f.k, f.p)
    return count * grass >= ceil_scaled_power(f.lam * f.lam, f.p, f.s + f.t)


def meets_upper_bound(f: FurstenbergFamily, constant) -> bool:
    """#E <= constant * p^F(s,t;n,k), decided exactly in integers."""
    exponent = furstenberg_index(f.s, f.t, f.n, f.k)
    return len(f.union) <= floor_scaled_power(constant, f.p, exponent)
