"""Witnesses showing the exceptional-set exponent is attained, certified by
full enumeration.

Each recipe gives the set A and the specific directions it claims are
exceptional; the one dispatcher, `construct_marstrand_witness`, adds a
certified count obtained by enumerating every direction in G(n-k, F_p^n) and
testing "#proj_V(A) < p^s" exactly; only the count is taken over one point of
A per coset of its axis stabiliser (see `projections`).  No claim is taken
on faith: every claimed direction is individually re-verified, and a
construction whose claims fail (possible only below its degeneracy scale)
raises instead of returning an unsound witness.

Branches, by the piece of M(a, s; n, k):
  1         -- any set of ceil(p^a) points; every direction is claimed.
  2-zero    -- A = F_p^m x I; claims are the directions collapsing the
               coordinate m-subspace to <= p^l cosets.
  2-excess  -- the rectangle product below, with a = (m-1)+(beta+1).
  3-excess  -- A = R x F_p^m for a symmetric rectangle R in F_p^2; claims are
               the families U_theta over R's 2-D exceptional directions
               theta, disjoint as each direction names one theta.  In F_p^2
               both excess pieces are the Oberlin rectangle.
  3-zero    -- enlarge a to m+1, reuse the 2-zero recipe, then pass to a
               lex-prefix subset of the right size.
  4         -- claims empty; certification shows the exceptional set IS empty.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ._kernel import _reduce
from .flags import LinearSubspace, enumerate_linear, join_rows
from .indices import (
    NEG_INF,
    ceil_rational_power,
    ceil_scaled_power,
    floor_scaled_power,
    marstrand_index,
    marstrand_params,
)
from .primefield import DegenerateScaleError, _Record, check_prime
from .projections import ExceptionalQuery, PointSet, exceptional_set, small_projection_directions

FIFTH = Fraction(1, 5)


class ExceptionalWitness(_Record):
    """A set A plus claimed exceptional directions and the enumerated truth."""

    def __init__(self, a: Fraction, s: Fraction, n: int, k: int, p: int, branch: str,
                 set_a: PointSet, claimed: tuple[LinearSubspace, ...], certified_count: int):
        self._set_fields(a, s, n, k, p, branch, set_a, claimed, certified_count)

    @property
    def mtype(self) -> int:
        return marstrand_params(self.a, self.s, self.n, self.k).mtype


def _sym_range(bound: int, p: int) -> list[int]:
    """Residues of -bound..bound; symmetric representatives, as the slope
    arithmetic of the rectangle recipe needs."""
    if 2 * bound + 1 > p:
        raise DegenerateScaleError(f"symmetric range +-{bound} does not embed in F_{p}")
    return sorted({v % p for v in range(-bound, bound + 1)})


def _rectangle(a, s, p: int) -> PointSet:
    """Lattice points with |x| <= (1/5)p^(a-s), |y| <= (1/5)p^s (may be a
    single point at tiny p; the caller decides whether that is acceptable)."""
    xs = _sym_range(floor_scaled_power(FIFTH, p, a - s), p)
    ys = _sym_range(floor_scaled_power(FIFTH, p, s), p)
    return PointSet.from_iterable(itertools.product(xs, ys), 2, p)


def construct_marstrand_witness(a, s, n: int, k: int, p: int) -> ExceptionalWitness:
    """Build the witness of the piece of M that (a, s; n, k) lies on; in F_p^2
    an excess piece is the Oberlin rectangle, whose slope lines are the claims."""
    check_prime(p)
    pr = marstrand_params(a, s, n, k)
    a, s, piece = pr.a, pr.s, pr.piece
    if piece == "1":
        set_a = PointSet.lex_prefix(n, p, ceil_rational_power(p, a))
        return _certify(a, s, n, k, p, "type1-any", set_a, tuple(enumerate_linear(n, n - k, p)))
    if piece == "4":
        set_a = PointSet.lex_prefix(n, p, ceil_rational_power(p, a))
        return _certify(a, s, n, k, p, "type4-empty", set_a, ())
    if piece == "2-zero":
        set_a, claimed = _slab_witness(n, k, p, pr.m, ceil_rational_power(p, pr.beta), pr.l)
        return _certify(a, s, n, k, p, "type2-slab", set_a, claimed)
    if piece == "3-zero":
        full, claimed = _slab_witness(n, k, p, pr.m + 1, 1, pr.l)
        subset = PointSet(n, p, full.points[: ceil_rational_power(p, a)])
        return _certify(a, s, n, k, p, "type3-enlarged", subset, claimed)
    # the excess pieces: the rectangle product, type 2's at a = (m-1) + (beta+1)
    if n == 2:
        return _certify(a, s, n, k, p, "oberlin-rectangle", *_oberlin_rectangle(a, s, p))
    shift = 3 - pr.mtype
    product = _rectangle_product_witness(n, k, p, pr.m - shift, pr.beta + shift, pr.gamma, pr.l)
    return _certify(a, s, n, k, p, f"type{pr.mtype}-rectangle", *product)


def _oberlin_rectangle(a, s, p):
    """The rectangle witness in F_p^2, on the excess pieces of M(a, s; 2, 1),
    where a/2 < s <= min(1, a): A is the (1/5)p^(a-s) x (1/5)p^s box of
    symmetric lattice points, and the claims are the lines through the origin
    of slope kappa with |kappa| <= (1/5)p^(2s-a)."""
    if floor_scaled_power(FIFTH, p, s) < 1:
        raise DegenerateScaleError(f"row range floor(p^s / 5) is empty at p = {p}")
    set_a = _rectangle(a, s, p)
    kappas = _sym_range(floor_scaled_power(FIFTH, p, 2 * s - a), p)
    return set_a, tuple(LinearSubspace.from_rows([[1, kappa]], 2, p) for kappa in kappas)


def _slab_witness(n, k, p, m, isize, l):
    """A = F_p^m x I x 0^(n-m-1) with #I = isize; claimed directions are those
    V with #proj_V of the coordinate m-subspace at most p^l, listed by
    `small_projection_directions`."""
    if not 0 <= m <= n - 1:
        raise DegenerateScaleError(f"slab needs 0 <= m <= n-1, got m = {m}")
    if isize > p:
        raise DegenerateScaleError(f"interval of {isize} points does not fit in F_{p}")
    core = LinearSubspace.coordinate(range(m), n, p)
    pts = [
        q + (i,) + (0,) * (n - m - 1)
        for q in itertools.product(range(p), repeat=m)
        for i in range(isize)
    ]
    set_a = PointSet.from_iterable(pts, n, p)
    return set_a, tuple(small_projection_directions(core, k, l))


def _rectangle_product_witness(n, k, p, m, beta_eff, gamma, l):
    """A = R x F_p^m x 0^(n-m-2) for the symmetric rectangle R with side
    exponents (beta_eff - gamma, gamma); claims are the union of the
    disjoint direction families over R's own 2-D exceptional set."""
    if not 0 <= m <= n - 2:
        raise DegenerateScaleError(f"rectangle product needs m <= n-2, got m = {m}")
    rect = _rectangle(beta_eff, gamma, p)
    pts = [
        (q[0], q[1]) + z + (0,) * (n - m - 2)
        for q in rect.points
        for z in itertools.product(range(p), repeat=m)
    ]
    set_a = PointSet.from_iterable(pts, n, p)
    return set_a, _theta_families(rect, gamma, n, k, p, m, l)[0]


def _theta_families(rect: PointSet, gamma: Fraction, n, k, p, m, l):
    """For each 2-D direction theta that is gamma-exceptional for the
    rectangle, the family

        U_theta = {V : #proj_V(theta + F_p^m) <= p^l,
                       #proj_V(F_p^m) = p^l,
                       #proj_V(F_p^2 x F_p^m) = p^(l+1)}.

    For V meeting the two degenerate conditions, V + F_p^m meets
    F_p^2 x F_p^m in F_p^m plus the lift of exactly one line theta_V, and V
    is in U_theta iff theta = theta_V: the families are disjoint, which turns
    a union bound into a sum, and one pass fills them.  With r1, r2 the
    residues of e1, e2 modulo V + F_p^m, the last condition says they span a
    line: not both zero at a first column j, and every 2x2 minor
    r1[i] r2[j] - r1[j] r2[i] zero; theta_V is spanned by (r2[j], -r1[j]).
    Returns the members of all families, in enumeration order, and the
    families by theta, in `exceptional_set` order.
    """
    thetas = exceptional_set(rect, ExceptionalQuery(gamma, 1))
    families = {theta.entries: [] for theta in thetas}
    mid = tuple(range(2, 2 + m))
    e1, e2 = (1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2)
    claimed = []
    for V in enumerate_linear(n, n - k, p):
        rows = join_rows(V, mid)
        if len(rows) - V.k != l:
            continue
        r1, r2 = _reduce(e1, rows, p), _reduce(e2, rows, p)
        j = next((j for j in range(n) if r1[j] or r2[j]), None)
        if j is None or any((r1[i] * r2[j] - r1[j] * r2[i]) % p for i in range(n)):
            continue
        key = (1, -r1[j] * pow(r2[j], -1, p) % p) if r2[j] else (0, 1)
        if key in families:
            families[key].append(V)
            claimed.append(V)
    return tuple(claimed), {theta: tuple(families[theta.entries]) for theta in thetas}


def _certify(a, s, n, k, p, branch, set_a, claimed) -> ExceptionalWitness:
    exceptional = exceptional_set(set_a, ExceptionalQuery(s, k))
    keys = {V.entries for V in exceptional}
    bad = [V for V in claimed if V.entries not in keys]
    if bad:
        raise DegenerateScaleError(
            f"{branch}: {len(bad)} claimed directions fail the strict test at p = {p}"
        )
    return ExceptionalWitness(a, s, n, k, p, branch, set_a, tuple(claimed), len(exceptional))


def certify_lower_bound(w: ExceptionalWitness, c) -> bool:
    """certified_count >= c * p^M(a,s;n,k), exactly; vacuous at M = -inf."""
    target = marstrand_index(w.a, w.s, w.n, w.k)
    if target is NEG_INF:
        return True
    return w.certified_count >= ceil_scaled_power(c, w.p, target)
