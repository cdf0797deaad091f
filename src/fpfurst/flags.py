"""Canonical subspaces and affine flats of F_p^n: representation, enumeration,
counting, and subspace sums by rank.

Canonical forms make equality structural: a linear subspace is named by its
RREF basis, built by `_echelon` as `join_rows` is, an affine flat by
(direction, base) where the base is the unique coset representative vanishing
on the direction's pivot coordinates.  The streams produced here are
deterministic -- lexicographic in (pivot pattern, free entries) -- so "the
first N flats" is a reproducible choice.  Each basis and each base is
generated entry by entry, as one product over per-entry choices, in that same
order.

Validation happens at the boundary.  The public constructors check their
input; the two enumerators do not, because what they yield is valid by
construction: residues in `range(p)` at a prime checked once per call, RREF
shape and pivot count fixed by the pivot pattern, and bases that are 0 at
every pivot.  They create each object with `object.__new__` and set its
fields with `object.__setattr__`, in field order, so `__post_init__` never
runs and each instance keeps the layout the dataclass `__init__` gives it.
Filling `__dict__` directly instead would give every retained instance a
dictionary of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from ._kernel import _dense, _reduce, _reduction_rows
from .primefield import PrimeMatrix, _check_ints, check_prime


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


@dataclass(frozen=True)
class LinearSubspace:
    """A k-dimensional linear subspace of F_p^n, named by its RREF basis."""

    n: int
    k: int
    p: int
    basis: PrimeMatrix
    pivots: tuple[int, ...]

    def __post_init__(self):
        if self.basis.rows != self.k or self.basis.cols != self.n:
            raise ValueError("basis shape mismatch")
        if len(self.pivots) != self.k:
            raise ValueError("pivot count mismatch")
        # enumerate_linear's shape: row i is 1 at its pivot c, 0 left of c and at the other pivots
        n, piv, e = self.n, self.pivots, self.basis.entries
        if list(piv) != sorted(set(piv)) or not set(piv) <= set(range(n)) or any(
            [e[i * n + j] != (j == c) for i, c in enumerate(piv) for j in {*range(c + 1), *piv}]
        ):
            raise ValueError(f"basis is not the RREF of pivots {piv}")

    @classmethod
    def from_rows(cls, rows, n: int, p: int) -> "LinearSubspace":
        """Span of the given rows of ints, in canonical form: `_echelon`'s
        rows sorted by pivot, each reduced modulo the rows after it."""
        check_prime(p)
        rows = [list(r) for r in rows]
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        if rows and len(rows[0]) != n:
            raise ValueError("row length mismatch")
        _check_ints(itertools.chain.from_iterable(rows))
        echelon = sorted(_echelon([[e % p for e in r] for r in rows], [], n, p))
        entries = []
        for i in range(len(echelon)):
            entries += _reduce(_dense(echelon[i : i + 1], n), echelon[i + 1 :], p)
        k = len(echelon)
        return cls(n, k, p, PrimeMatrix(p, k, n, tuple(entries)), tuple([c for c, _ in echelon]))

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
        """The basis in the form `_kernel._reduce` takes, built once."""
        return _reduction_rows(self.basis.entries, self.n, self.k, self.pivots)

    def points(self) -> list[tuple[int, ...]]:
        """All p^k points, in lexicographic order of the coefficient vector."""
        p, n = self.p, self.n
        rows = self.basis.to_rows()
        pts = []
        for coeffs in itertools.product(range(p), repeat=self.k):
            v = [0] * n
            for c, row in zip(coeffs, rows):
                if c:
                    for j in range(n):
                        v[j] = (v[j] + c * row[j]) % p
            pts.append(tuple(v))
        return pts


@dataclass(frozen=True)
class AffineFlat:
    """A coset base + direction, base vanishing on the direction's pivots."""

    direction: LinearSubspace
    base: tuple[int, ...]

    def __post_init__(self):
        if len(self.base) != self.direction.n:
            raise ValueError("base length mismatch")
        _check_ints(self.base)
        if min(self.base, default=0) < 0 or max(self.base, default=0) >= self.direction.p:
            raise ValueError("base entries must be residues in [0, p)")
        if any(self.base[c] for c in self.direction.pivots):
            raise ValueError("base must vanish on pivot coordinates")

    @property
    def n(self) -> int:
        return self.direction.n

    @property
    def k(self) -> int:
        return self.direction.k

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
        base = self.base
        p, n = self.p, self.n
        return [
            tuple((a + b) % p for a, b in zip(base, q))
            for q in self.direction.points()
        ]


def reduce_mod_subspace(x, V: LinearSubspace) -> tuple[int, ...]:
    """Canonical representative of x + V: zero at V's pivot coordinates."""
    p = V.p
    w = [e % p for e in x]
    _check_ints(w)
    return _reduce(w, V._rows, p)


def _echelon(vectors, rows: list, n: int, p: int) -> list:
    """Extend `rows`, in `_reduce`'s form, to span the vectors (residues).

    Each vector's nonzero remainder modulo the rows so far, scaled to 1 at its
    first nonzero column, is appended: zero at every earlier pivot and left of
    its own, which keeps `_reduce` exact."""
    for v in vectors:
        w = _reduce(v, rows, p)
        nonzero = [j for j in range(n) if w[j]]
        if nonzero:
            inv = pow(w[nonzero[0]], -1, p)
            rows.append((nonzero[0], tuple([(j, w[j] * inv % p) for j in nonzero[1:]])))
    return rows


def join_rows(U: LinearSubspace, V: LinearSubspace) -> list:
    """Rows in `_reduce`'s form spanning U + V, dim(U + V) of them: V's cached
    rows, then `_echelon`'s.  Pass the subspace fixed across calls as V."""
    if U.n != V.n or U.p != V.p:
        raise ValueError("subspaces live in different spaces")
    p, n, e = V.p, V.n, U.basis.entries
    return _echelon([e[i : i + n] for i in range(0, U.k * n, n)], list(V._rows), n, p)


def enumerate_linear(n: int, k: int, p: int):
    """Yield every k-subspace of F_p^n exactly once.

    Order: lexicographic in (pivot-column pattern, free-entry vector); the
    free entries of the RREF basis are filled row-major.  The basis is
    generated entry by entry: entry (i, j) is 1 at row i's pivot, 0 left of
    that pivot or at another pivot, and free elsewhere, so the product over
    the entries in row-major order is the RREF entry tuple, in that order.
    Total count is gaussian_binomial(n, k, p).

    Each value is valid by construction and skips `__post_init__` (see the
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
            basis = new(PrimeMatrix)
            setfield(basis, "p", p)
            setfield(basis, "rows", k)
            setfield(basis, "cols", n)
            setfield(basis, "entries", entries)
            sub = new(LinearSubspace)
            setfield(sub, "n", n)
            setfield(sub, "k", k)
            setfield(sub, "p", p)
            setfield(sub, "basis", basis)
            setfield(sub, "pivots", pivots)
            yield sub


def enumerate_affine(n: int, k: int, p: int):
    """Yield every affine k-flat once: directions in enumerate_linear order,
    then canonical bases in lexicographic order of the free coordinates.

    Every base is 0 at the direction's pivots, so each flat is built without
    `__post_init__`, as in `enumerate_linear`."""
    new, setfield = object.__new__, object.__setattr__
    for direction in enumerate_linear(n, k, p):
        pivots = direction.pivots
        for base in itertools.product(*[(0,) if c in pivots else range(p) for c in range(n)]):
            flat = new(AffineFlat)
            setfield(flat, "direction", direction)
            setfield(flat, "base", base)
            yield flat
