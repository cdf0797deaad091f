import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpfurst import _kernel, backend_name, flags, projections
from fpfurst.flags import LinearSubspace, enumerate_linear, join_rows
from fpfurst.projections import ExceptionalQuery, PointSet, exceptional_set
from fpfurst.primefield import PrimeMatrix
from rank_oracle import stacked_rank


def _same_coset(x, y, V):
    """x - y in V, decided by rank: an oracle that never reduces a point."""
    diff = PrimeMatrix(V.p, 1, V.n, tuple((a - b) % V.p for a, b in zip(x, y)))
    return stacked_rank(V, diff) == V.k


def _oracle_count(pts, V):
    reps = []
    for x in pts:
        if not any(_same_coset(x, y, V) for y in reps):
            reps.append(x)
    return len(reps)


def _random_case(rng, p, n, nrows=None):
    """A random subspace (spanned by nrows random rows) and points that are
    either random or random translates of a few base points by its elements."""
    nrows = rng.randint(0, n) if nrows is None else nrows
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(nrows)]
    V = LinearSubspace.from_rows(rows, n, p)
    bases = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, 5))]
    pts = []
    for _ in range(rng.randint(1, 30)):
        x = rng.choice(bases) if rng.random() < 0.7 else [rng.randrange(p) for _ in range(n)]
        for row in V.to_rows():
            c = rng.randrange(p)
            x = [(a + c * b) % p for a, b in zip(x, row)]
        pts.append(tuple(x))
    return pts, V


def test_kernel_matches_rank_oracle():
    rng = random.Random(20240817)
    cases = [_random_case(rng, rng.choice([2, 3, 5, 7]), rng.randint(1, 4)) for _ in range(299)]
    big_p = 2**61 - 1
    cases.append(_random_case(rng, big_p, 3, nrows=1))
    assert big_p**3 >= 2**62 and cases[-1][1].k == 1
    for pts, V in cases:
        got = _kernel.project_count_flat(pts, len(pts), V.n, V._rows, V.k, V.pivots, V.p)
        assert got == _oracle_count(pts, V), (pts, V)


def test_pure_kernel_counts_cosets():
    # one slanted line in F_5^2: every point reduces to (0, y - 2x)
    pts = [(x, (2 * x + c) % 5) for x in range(5) for c in (0, 1)]
    rows = ((0, ((1, 2),)),)
    assert _kernel.project_count_flat(pts, len(pts), 2, rows, 1, (0,), 5) == 2


def test_zero_dimensional_subspace_counts_points():
    pts = [(1, 2), (1, 2), (3, 4)]
    assert _kernel.project_count_flat(pts, 3, 2, (), 0, (), 5) == 2


_POINTS = st.sampled_from([2, 3, 5]).flatmap(lambda p: st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(p), st.just(n), st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=12)
)))


@given(_POINTS)
@example((5, 4, []))
@example((5, 4, [(1, 2, 3, 4)]))
@example((3, 4, [(0, 0, 0, 1), (0, 0, 0, 2), (1, 2, 0, 0)]))
@settings(max_examples=60, deadline=None)
def test_column_kernel_counts_reduced_points_for_every_join(case):
    """The column kernel's count equals the number of distinct `_reduce`
    remainders modulo join_rows(V, axes), for every subspace V of F_p^n and
    every axis set: axes and pivots covering every column (no free column)
    included.  Points may repeat."""
    p, n, pts = case
    subsets = [axes for r in range(n + 1) for axes in itertools.combinations(range(n), r)]
    for k in range(n + 1):
        for V in enumerate_linear(n, k, p):
            for axes in subsets:
                rows = join_rows(V, axes)
                pivots = [c for c, _ in rows]
                got = _kernel.project_count_flat(pts, len(pts), n, rows, len(rows), pivots, p)
                assert got == len({_kernel._reduce(x, rows, p) for x in pts}), (V, axes, pts)


def test_exceptional_set_hands_the_kernel_its_rows_and_points(monkeypatch):
    """Each direction's kernel call gets join_rows(V, (0,))'s own list and the
    point tuples of R, the points of A that are zero on its stabiliser axis 0.
    No direction's `_rows` is built and no basis is listed by `to_rows`: each
    row is read off V's entries by the plan of V's pivot pattern, one plan per
    pattern."""
    p, n = 3, 4
    A = PointSet.from_iterable(
        [(a, b, c, d) for a in range(p) for b, c, d in [(0, 1, 2), (1, 1, 0), (2, 0, 1)]], n, p
    )
    reps = [x for x in A.points if x[0] == 0]
    count, joined, calls, seen, listed = _kernel.project_count_flat, [], [], [], []

    def join(U, axes):
        seen.append(U)
        joined.append(join_rows(U, axes))
        return joined[-1]

    def to_rows(self, to_rows=PrimeMatrix.to_rows):
        listed.append(self)
        return to_rows(self)

    def kernel(pts, npts, n, rows, kdim, pivots, p):
        calls.append((pts, rows))
        return count(pts, npts, n, rows, kdim, pivots, p)

    monkeypatch.setattr(projections, "join_rows", join)
    monkeypatch.setattr(_kernel, "project_count_flat", kernel)
    monkeypatch.setattr(PrimeMatrix, "to_rows", to_rows)
    flags._join_plan.cache_clear()
    exceptional_set(A, ExceptionalQuery(1, 2))
    monkeypatch.undo()
    plans = flags._join_plan.cache_info()
    directions = list(enumerate_linear(n, n - 2, p))
    assert len(calls) == len(joined) == len(directions) == 130
    for (pts, rows), got, V in zip(calls, joined, directions):
        assert rows is got and rows == join_rows(V, (0,))
        assert list(pts) == reps
    assert seen == directions and listed == []
    assert not any(["_rows" in vars(V) for V in seen])
    # the 6 pivot patterns of G(2, F_3^4), each planned once
    assert (plans.misses, plans.currsize, plans.hits) == (6, 6, 124)


def test_backend_name_reports():
    assert backend_name() == "python"
