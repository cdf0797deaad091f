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
from fractions import Fraction

from . import _kernel
from .flags import LinearSubspace, _join_plan, enumerate_linear, join_rows
from .indices import as_fraction, ceil_rational_power
from .primefield import _check_ints, _Record, check_prime


class PointSet(_Record):
    """Sorted, deduplicated finite subset of F_p^n with exact cardinality: a
    strictly sorted tuple of length-n tuples of int residues."""

    def __init__(self, n: int, p: int, points: tuple[tuple[int, ...], ...]):
        check_prime(p)
        pts = points
        # Whole-set checks in C-level builtins; the offending point is looked
        # for only once a check has failed, to name it in the message.
        if type(pts) is not tuple or set(map(type, pts)) - {tuple}:
            raise TypeError("points must be a tuple of tuples")
        coords = itertools.chain.from_iterable
        _check_ints(coords(pts))
        if (
            set(map(len, pts)) - {n}
            or min(coords(pts), default=0) < 0
            or max(coords(pts), default=0) >= p
        ):
            bad = next(q for q in pts if len(q) != n or any(not (0 <= c < p) for c in q))
            raise ValueError(f"bad point {bad} for F_{p}^{n}")
        if not all(map(operator.lt, pts, pts[1:])):
            raise ValueError("points must be strictly sorted")
        self._set_fields(n, p, points)

    @classmethod
    def from_iterable(cls, points, n: int, p: int) -> "PointSet":
        reduced = {tuple(c % p for c in q) for q in points}
        return cls(n, p, tuple(sorted(reduced)))

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


class ExceptionalQuery(_Record):
    """The question "is #proj_V(A) < p^s", for V of dimension n - k."""

    def __init__(self, s: Fraction, k: int):
        s = as_fraction(s)
        if s <= 0:
            raise ValueError("s must be positive")
        self._set_fields(s, k)


def exceptional_set(A: PointSet, q: ExceptionalQuery) -> list[LinearSubspace]:
    """All V in G(n-k, F_p^n) with #proj_V(A) strictly below p^s.

    Returned as an explicit list, in enumeration order, so constructions can
    assert containment of specific witnesses.  Every V is decided by the
    quotient identity of the module docstring, with S the axis stabiliser and
    R the points of A that are zero on its axes.  The echelon basis of S + V
    is `join_rows(V, axes)`: S's axis rows, then V's rows with those columns
    dropped, eliminated only where V's pivot is on an axis.
    """
    if not 0 < q.k < A.n:
        raise ValueError(f"need 0 < k < n, got k={q.k}, n={A.n}")
    n, p, pts = A.n, A.p, A.points
    has = set(pts)
    axes = tuple([c for c in range(n) if all(x[:c] + ((x[c] + 1) % p,) + x[c + 1 :] in has for x in pts)])
    reps = [x for x in pts if not any([x[c] for c in axes])]
    bound = ceil_rational_power(p, q.s)
    out = []
    for V in enumerate_linear(n, n - q.k, p):
        rows = join_rows(V, axes)
        count = _kernel.project_count_flat(reps, len(reps), n, rows, len(rows), [c for c, _ in rows], p)
        if count * p ** (len(rows) - V.k) < bound:
            out.append(V)
    return out


def small_projection_directions(W: LinearSubspace, k: int, l: int):
    """Yield each V in G(n-k, F_p^n) with #proj_V(W) <= p^l, in enumeration
    order, for a coordinate subspace W; any other W is refused with
    `ValueError` at the first step.

    The cosets of V meeting W are the cosets of V in W + V, so
    #proj_V(W) = p^(dim(W + V) - dim V).  With m = dim W, d = dim V and r the
    number of V's RREF rows whose pivot is on one of W's axes (the offsets
    `_join_plan` lists for V's pivot pattern), dim(W + V) = m + (d - r) +
    rank(T), T those r rows at the columns off the axes: the other rows are 1
    at their pivots, off the axes, where every row of T is 0.  So V is kept
    iff rank(T) <= l - m + r.  The pattern alone decides V when that bound is
    below 0 or at least r; otherwise one `_echelon` of T's short rows does.
    """
    n, p, axes = W.n, W.p, W.pivots
    if any([r for _, r in W._rows]):
        raise ValueError(f"W is not a coordinate subspace: pivots {axes}, entries {W.entries}")
    off, pivots = [j for j in range(n) if j not in axes], None
    for V in enumerate_linear(n, n - k, p):
        if V.pivots != pivots:
            pivots = V.pivots
            rest = _join_plan(pivots, axes, n)[2]
            most = l - W.k + len(rest)
        if most >= len(rest):
            yield V
        elif most >= 0:
            e = V.entries
            if len(_kernel._echelon([[e[i + j] for j in off] for i in rest], [], len(off), p)) <= most:
                yield V


def count_small_projection_subspaces(W: LinearSubspace, k: int, l: int) -> int:
    """Number of V in G(n-k, F_p^n) with #proj_V(W) <= p^l.

    Hypotheses (n - k >= m - l, l <= k, l <= m for m = dim W) mirror the
    counting estimate this is checked against.  W must be a coordinate
    subspace.  Every V is enumerated and decided by
    `small_projection_directions`, many by their pivot pattern alone.
    """
    n, m = W.n, W.k
    if not (1 <= k <= n and n - k >= m - l and 0 <= l <= k and l <= m):
        raise ValueError(f"hypotheses violated for (n={n}, k={k}, m={m}, l={l})")
    return sum(1 for _ in small_projection_directions(W, k, l))
