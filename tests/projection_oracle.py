"""The tests' projections of explicit point sets: every point is reduced, with
no quotient by the set's axis stabiliser as `exceptional_set` takes.  The
projection exponent of a subspace is read off the rank oracle instead."""

import itertools

from fpfurst import _kernel
from fpfurst.flags import LinearSubspace
from fpfurst.projections import PointSet
from rank_oracle import stacked_rank


def full_space(n: int, p: int) -> PointSet:
    return PointSet(n, p, tuple(itertools.product(range(p), repeat=n)))


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


def subspace_projection_exponent(W: LinearSubspace, V: LinearSubspace) -> int:
    """The exponent e with #proj_V(W) = p^e for a subspace W.

    The cosets of V meeting W are the cosets of V in W + V, so
    #proj_V(W) = p^(dim(W + V) - dim V) exactly; no point of W is listed, and
    dim(W + V) is the rank of the stacked bases, by Gauss-Jordan elimination.
    """
    return stacked_rank(V, W) - V.k


def _check_compatible(A: PointSet, V: LinearSubspace):
    if A.n != V.n or A.p != V.p:
        raise ValueError("point set and subspace live in different spaces")
