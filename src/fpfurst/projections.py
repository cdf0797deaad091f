"""Coset projections x -> x + V, image counting, and exceptional sets.

The projection of a point set A by a subspace V is the set of distinct cosets
of V meeting A, represented canonically (zero at V's pivot coordinates).  A
direction V in G(n-k, F_p^n) is s-exceptional for A when A meets strictly
fewer than p^s such cosets; the strictness follows the definition verbatim
and is decided exactly, as `count < ceil(p^s)` with the integer threshold
computed once by `ceil_rational_power`, never in floats.

`exceptional_set` counts by quotient.  If A + S = A for a subspace S and R
holds one point of A per S-coset, the image of A in F_p^n / V is a union of
disjoint cosets of (S + V) / V, so

    #proj_V(A) = #{x mod (S + V) : x in R} * p^(dim(S + V) - dim V).

S is the axis stabiliser of A, spanned by the axes e_c with A + e_c = A.  A set
with no such axis has S = 0 and R = A, and the identity is the per-point count.

A note on indexing: the exceptional set for parameter k collects subspaces of
dimension n-k -- the k names the dimension of the projection target, not of V.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _kernel
from .flags import LinearSubspace, enumerate_linear, join_rows
from .indices import as_fraction, ceil_rational_power
from .primefield import check_prime


@dataclass(frozen=True)
class PointSet:
    """Sorted, deduplicated finite subset of F_p^n with exact cardinality."""

    n: int
    p: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_prime(self.p)
        pts, n, p = self.points, self.n, self.p
        # Whole-set checks in C-level builtins; the offending point is looked
        # for only once a check has failed, to name it in the message.
        coords = itertools.chain.from_iterable
        if (
            set(map(len, pts)) - {n}
            or min(coords(pts), default=0) < 0
            or max(coords(pts), default=0) >= p
        ):
            bad = next(q for q in pts if len(q) != n or any(not (0 <= c < p) for c in q))
            raise ValueError(f"bad point {bad} for F_{p}^{n}")
        if not all(map(operator.lt, pts, pts[1:])):
            raise ValueError("points must be strictly sorted")

    @classmethod
    def from_iterable(cls, points, n: int, p: int) -> "PointSet":
        reduced = {tuple(c % p for c in q) for q in points}
        return cls(n, p, tuple(sorted(reduced)))

    @classmethod
    def full_space(cls, n: int, p: int) -> "PointSet":
        return cls(n, p, tuple(itertools.product(range(p), repeat=n)))

    @classmethod
    def lex_prefix(cls, n: int, p: int, count: int) -> "PointSet":
        """The first `count` points of F_p^n in lexicographic order."""
        if not 0 <= count <= p**n:
            raise ValueError(f"prefix size {count} out of range")
        pts = tuple(itertools.islice(itertools.product(range(p), repeat=n), count))
        return cls(n, p, pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, q):
        q = tuple(q)
        i = bisect.bisect_left(self.points, q)
        return i < len(self.points) and self.points[i] == q

    def flat(self) -> tuple[int, ...]:
        """Row-major flat coordinates; no caller in `src/`, kept for the tracer."""
        return tuple(itertools.chain.from_iterable(self.points))


@dataclass(frozen=True)
class ExceptionalQuery:
    """The question "is #proj_V(A) < p^s", for V of dimension n - k."""

    s: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "s", as_fraction(self.s))
        if self.s <= 0:
            raise ValueError("s must be positive")


def project_set(A: PointSet, V: LinearSubspace) -> PointSet:
    """The distinct cosets of V meeting A, as canonical representatives.
    A's points are residues already, so each goes to `_kernel._reduce` as is."""
    _check_compatible(A, V)
    rows, p = V._rows, A.p
    return PointSet.from_iterable((_kernel._reduce(q, rows, p) for q in A.points), A.n, p)


def projection_count(A: PointSet, V: LinearSubspace) -> int:
    """#proj_V(A): the kernel on A's points and V's rows."""
    _check_compatible(A, V)
    return _kernel.project_count_flat(A.points, len(A), A.n, V._rows, V.k, V.pivots, A.p)


def exceptional_set(A: PointSet, q: ExceptionalQuery) -> list[LinearSubspace]:
    """All V in G(n-k, F_p^n) with #proj_V(A) strictly below p^s.

    Returned as an explicit list, in enumeration order, so constructions can
    assert containment of specific witnesses.  Every V is decided by the
    quotient identity of the module docstring, with S the axis stabiliser and
    R the points of A that are zero on its axes.  The echelon basis of S + V
    is `join_rows(V, S)`: S's axis rows, then V's nonzero remainders.
    """
    if not 0 < q.k < A.n:
        raise ValueError(f"need 0 < k < n, got k={q.k}, n={A.n}")
    n, p, pts = A.n, A.p, A.points
    has = set(pts)
    axes = [c for c in range(n) if all(x[:c] + ((x[c] + 1) % p,) + x[c + 1 :] in has for x in pts)]
    reps = [x for x in pts if not any([x[c] for c in axes])]
    S = LinearSubspace.coordinate(axes, n, p)
    bound = ceil_rational_power(p, q.s)
    out = []
    for V in enumerate_linear(n, n - q.k, p):
        rows = join_rows(V, S)
        count = _kernel.project_count_flat(reps, len(reps), n, rows, len(rows), [c for c, _ in rows], p)
        if count * p ** (len(rows) - V.k) < bound:
            out.append(V)
    return out


def subspace_projection_exponent(W: LinearSubspace, V: LinearSubspace) -> int:
    """The exponent e with #proj_V(W) = p^e for a subspace W.

    The cosets of V meeting W are the cosets of V in W + V, so
    #proj_V(W) = p^(dim(W + V) - dim V) exactly; no point of W is listed.
    """
    return len(join_rows(V, W)) - V.k


def count_small_projection_subspaces(W: LinearSubspace, k: int, l: int) -> int:
    """Number of V in G(n-k, F_p^n) with #proj_V(W) <= p^l.

    Hypotheses (n - k >= m - l, l <= k, l <= m for m = dim W) mirror the
    counting estimate this is checked against.  Every V is enumerated and
    decided by `subspace_projection_exponent`.
    """
    n, p, m = W.n, W.p, W.k
    if not (1 <= k <= n and n - k >= m - l and 0 <= l <= k and l <= m):
        raise ValueError(f"hypotheses violated for (n={n}, k={k}, m={m}, l={l})")
    return sum(1 for V in enumerate_linear(n, n - k, p) if subspace_projection_exponent(W, V) <= l)


def _check_compatible(A: PointSet, V: LinearSubspace):
    if A.n != V.n or A.p != V.p:
        raise ValueError("point set and subspace live in different spaces")
