import random

from fpfurst import _kernel, backend_name, flags, projections
from fpfurst.flags import LinearSubspace, enumerate_linear, join_rows
from fpfurst.projections import ExceptionalQuery, PointSet, exceptional_set
from fpfurst.primefield import PrimeMatrix
from rank_oracle import stacked_rank


def _same_coset(x, y, V):
    """x - y in V, decided by rank: an oracle that never reduces a point."""
    diff = PrimeMatrix(V.p, 1, V.n, tuple((a - b) % V.p for a, b in zip(x, y)))
    return stacked_rank(V.basis, diff) == V.k


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
        for row in V.basis.to_rows():
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


def test_exceptional_set_hands_the_kernel_its_rows_and_points(monkeypatch):
    """Each direction's kernel call gets join_rows(V, S)'s own list and the
    point tuples of R, the points of A that are zero on its stabiliser axis 0;
    no basis is flattened or rebuilt per direction."""
    p, n = 3, 4
    A = PointSet.from_iterable(
        [(a, b, c, d) for a in range(p) for b, c, d in [(0, 1, 2), (1, 1, 0), (2, 0, 1)]], n, p
    )
    reps = [x for x in A.points if x[0] == 0]
    built = {name: 0 for name in ("_dense", "_reduction_rows")}

    def counting(name, fn):
        def wrapper(*args):
            built[name] += 1
            return fn(*args)

        return wrapper

    for module in (_kernel, flags):
        for name in built:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    count, joined, calls = _kernel.project_count_flat, [], []

    def join(U, V):
        joined.append(join_rows(U, V))
        return joined[-1]

    def kernel(pts, npts, n, rows, kdim, pivots, p):
        calls.append((pts, rows, dict(built)))
        return count(pts, npts, n, rows, kdim, pivots, p)

    monkeypatch.setattr(projections, "join_rows", join)
    monkeypatch.setattr(_kernel, "project_count_flat", kernel)
    exceptional_set(A, ExceptionalQuery(1, 2))
    S = LinearSubspace.coordinate([0], n, p)
    directions = list(enumerate_linear(n, n - 2, p))
    assert len(calls) == len(joined) == len(directions) == 130
    for (pts, rows, seen), got, V in zip(calls, joined, directions):
        assert rows is got and rows == join_rows(V, S)
        assert list(pts) == reps
        assert seen == calls[0][2]
    # S's rows, cached on the first join; nothing is built after that
    assert calls[0][2]["_reduction_rows"] == 1


def test_backend_name_reports():
    assert backend_name() == "python"
