"""Canonical subspaces and affine flats of F_p^n: representation, enumeration,
counting, and sums with coordinate subspaces.

Canonical forms make equality structural: a linear subspace is one object,
its RREF basis with its pivots, named by `_kernel._echelon`; an
affine flat is (direction, base), the base the unique coset representative
vanishing on the direction's pivot coordinates.  The streams produced here are
deterministic -- lexicographic in (pivot pattern, free entries) -- so "the
first N flats" is a reproducible choice.  Each basis and each base is
generated entry by entry, as one product over per-entry choices, in that same
order.

Validation happens at the boundary.  The public constructors check their
input; the two enumerators do not, because what they yield is valid by
construction: residues in `range(p)` at a prime checked once per call, RREF
shape and pivot count fixed by the pivot pattern, and bases that are 0 at
every pivot.  They create each object with `object.__new__` and set its
fields in field order, so its `__init__` and the checks in it never run: a
subspace's with `object.__setattr__`, which keeps the layout its `__init__`
gives it (filling `__dict__` directly would give every retained instance a
dictionary of its own), and a flat's, which has slots and no `__dict__`,
through its slot descriptors.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property

from ._kernel import _echelon, _reduce
from .primefield import PrimeMatrix, _check_ints, _check_matrix, _Record, check_prime


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Exact number of k-dimensional subspaces of F_p^n (q-binomial at q=p)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    check_prime(p)
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    assert num % den == 0
    return num // den


def small_projection_count(n: int, k: int, m: int, l: int, p: int) -> int:
    """#{V in G(n-k, F_p^n) : #proj_V(W) <= p^l} for an m-subspace W, exactly:
    #proj_V(W) = p^(m - dim(V & W)), and p^((m-j)(d-j)) [m, j]_p [n-m, d-j]_p of
    the d-subspaces, d = n - k, meet W in dimension j (Stanley, EC I, 1.7)."""
    d = n - k
    return sum(p ** ((m - j) * (d - j)) * gaussian_binomial(m, j, p) * gaussian_binomial(n - m, d - j, p)
               for j in range(max(m - l, m - k, 0), min(m, d) + 1))


class LinearSubspace(PrimeMatrix):
    """A k-dimensional subspace of F_p^n: its RREF basis, then its pivots."""

    def __init__(self, p: int, rows: int, cols: int, entries: tuple[int, ...], pivots: tuple[int, ...]):
        _check_matrix(p, rows, cols, entries)
        if type(pivots) is not tuple:
            raise TypeError("pivots must be a tuple")
        if len(pivots) != rows:
            raise ValueError("pivot count mismatch")
        # enumerate_linear's shape: row i is 1 at its pivot c, 0 left of c and at the other pivots
        if pivots != tuple(sorted(set(pivots).intersection(range(cols)))) or any(
            [entries[i * cols + j] != (j == c) for i, c in enumerate(pivots) for j in {*range(c + 1), *pivots}]
        ):
            raise ValueError(f"basis is not the RREF of pivots {pivots}")
        self._set_fields(p, rows, cols, entries, pivots)

    @property
    def n(self) -> int:
        return self.cols

    @property
    def k(self) -> int:
        return self.rows

    @classmethod
    def from_rows(cls, rows, n: int, p: int) -> "LinearSubspace":
        """Span of the given rows of ints, in canonical form.  With E
        `_echelon`'s rows sorted by pivot, the RREF row with pivot c is
        e_c - `_reduce`(e_c, E): the remainder is 0 at every pivot and left of
        c, so the row is 1 at c, 0 at the other pivots, and in the span."""
        check_prime(p)
        rows = [list(r) for r in rows]
        if any(len(r) != n for r in rows):
            raise ValueError(f"ragged rows or row length mismatch: every row needs {n} entries")
        _check_ints(itertools.chain.from_iterable(rows))
        echelon = sorted(_echelon([[e % p for e in r] for r in rows], [], n, p))
        entries = [
            ((j == c) - b) % p
            for c, _ in echelon
            for j, b in enumerate(_reduce([int(i == c) for i in range(n)], echelon, p))
        ]
        return cls(p, len(echelon), n, tuple(entries), tuple([c for c, _ in echelon]))

    @classmethod
    def coordinate(cls, coords, n: int, p: int) -> "LinearSubspace":
        """Span of the given coordinate axes, each in `range(n)`."""
        rows = []
        for c in sorted(coords):
            if not 0 <= c < n:
                raise ValueError(f"axis {c} is outside range({n})")
            row = [0] * n
            row[c] = 1
            rows.append(row)
        return cls.from_rows(rows, n, p)

    @cached_property
    def _rows(self) -> tuple:
        """The RREF rows in the form `_kernel._reduce` takes, built once: each
        pivot with the nonzero (column, entry) pairs right of it, as
        `join_rows` gives them with no axes."""
        return tuple(join_rows(self, ()))

    def points(self) -> list[tuple[int, ...]]:
        """All p^k points, in lexicographic order of the coefficient vector:
        row by row, each point q of the span so far gives way to q + c * row
        for c in range(p)."""
        p, pts = self.p, [(0,) * self.n]
        for row in self.to_rows():
            pts = [tuple([(a + c * b) % p for a, b in zip(q, row)]) for q in pts for c in range(p)]
        return pts


class AffineFlat(_Record):
    """A coset base + direction, base vanishing on the direction's pivots."""

    __slots__ = ("direction", "base")

    def __init__(self, direction: LinearSubspace, base: tuple[int, ...]):
        if type(base) is not tuple:
            raise TypeError("base must be a tuple")
        if len(base) != direction.n:
            raise ValueError("base length mismatch")
        _check_ints(base)
        if min(base, default=0) < 0 or max(base, default=0) >= direction.p:
            raise ValueError("base entries must be residues in [0, p)")
        if any(base[c] for c in direction.pivots):
            raise ValueError("base must vanish on pivot coordinates")
        self._set_fields(direction, base)

    @property
    def n(self) -> int:
        return self.direction.cols

    @property
    def k(self) -> int:
        return self.direction.rows

    @property
    def p(self) -> int:
        return self.direction.p

    @classmethod
    def through(cls, point, direction: LinearSubspace) -> "AffineFlat":
        """The flat point + direction, canonicalized."""
        return cls(direction, reduce_mod_subspace(point, direction))

    def contains_point(self, x) -> bool:
        return reduce_mod_subspace(x, self.direction) == self.base

    def points(self) -> list[tuple[int, ...]]:
        p = self.p
        return [tuple((a + b) % p for a, b in zip(self.base, q)) for q in self.direction.points()]


def reduce_mod_subspace(x, V: LinearSubspace) -> tuple[int, ...]:
    """Canonical representative of x + V: zero at V's pivot coordinates."""
    p = V.p
    w = [e % p for e in x]
    if len(w) != V.cols:
        raise ValueError(f"vector of length {len(w)} is not in F_{p}^{V.cols}")
    _check_ints(w)
    return _reduce(w, V._rows, p)


def join_rows(U: LinearSubspace, axes: tuple) -> list:
    """Rows in `_reduce`'s form spanning U + C, dim(U + C) of them, where C is
    spanned by the coordinate axes `axes`, a strictly increasing tuple in
    `range(U.n)`: the axis rows, U's rows whose pivot is off the axes, then
    `_echelon`'s remainders of the rest.

    An RREF row of U is 1 at its pivot and 0 at U's other pivots, so with its
    axis columns dropped a row whose pivot is off the axes is already reduced
    modulo the rows before it; it is read off U's entries at the columns
    `_join_plan` lists for U's pivot pattern."""
    n, e = U.n, U.entries
    rows, read, rest = _join_plan(U.pivots, axes, n)
    rows = [*rows, *[(c, tuple([(j, b) for j in cols if (b := e[i + j])])) for c, i, cols in read]]
    return _echelon([e[i : i + n] for i in rest], rows, n, U.p) if rest else rows


@cache
def _join_plan(pivots, axes, n):
    """`join_rows`' plan for U's pivots: the axis rows; (c, i, columns) for
    each row of U whose pivot c is off the axes, i its offset in U's entries
    and the columns right of c on no pivot or axis; and the other rows'
    offsets.
    The axes are checked here, once per plan."""
    if axes != tuple(sorted(set(axes).intersection(range(n)))):
        raise ValueError(f"axes {axes} are not strictly increasing in range({n})")
    rows = [(c, i * n, tuple([j for j in range(c + 1, n) if j not in axes + pivots])) for i, c in enumerate(pivots)]
    return (
        tuple([(a, ()) for a in axes]),
        tuple([r for r in rows if r[0] not in axes]),
        tuple([i for c, i, _ in rows if c in axes])
    )


def enumerate_linear(n: int, k: int, p: int):
    """Yield every k-subspace of F_p^n exactly once.

    Order: lexicographic in (pivot-column pattern, free-entry vector); the
    free entries of the RREF basis are filled row-major.  The basis is
    generated entry by entry: entry (i, j) is 1 at row i's pivot, 0 left of
    that pivot or at another pivot, and free elsewhere, so the product over
    the entries in row-major order is the RREF entry tuple, in that order.
    Total count is gaussian_binomial(n, k, p).

    Each value is valid by construction and skips `__init__` (see the
    module docstring).
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    check_prime(p)
    new, setfield = object.__new__, object.__setattr__
    free = range(p)
    for pivots in itertools.combinations(range(n), k):
        choices = [
            (1,) if j == c else (0,) if j < c or j in pivots else free
            for c in pivots
            for j in range(n)
        ]
        for entries in itertools.product(*choices):
            sub = new(LinearSubspace)
            setfield(sub, "p", p)
            setfield(sub, "rows", k)
            setfield(sub, "cols", n)
            setfield(sub, "entries", entries)
            setfield(sub, "pivots", pivots)
            yield sub


def enumerate_affine(n: int, k: int, p: int):
    """Yield every affine k-flat once: directions in enumerate_linear order,
    then canonical bases in lexicographic order of the free coordinates.

    The bases depend on the direction's pivot pattern only, so they are built
    once per pattern, as the product over the coordinates off its pivots, and
    shared by each direction with that pattern.  Every base is 0 at the
    direction's pivots, so each flat is built without `__init__`, its two
    slots set through their descriptors."""
    new, pivots = object.__new__, None
    set_direction, set_base = AffineFlat.direction.__set__, AffineFlat.base.__set__
    for direction in enumerate_linear(n, k, p):
        if direction.pivots != pivots:
            # the last pattern's bases go first, so two lists never coexist
            pivots, bases = direction.pivots, ()
            bases = list(itertools.product(*[(0,) if c in pivots else range(p) for c in range(n)]))
        for base in bases:
            flat = new(AffineFlat)
            set_direction(flat, direction)
            set_base(flat, base)
            yield flat
