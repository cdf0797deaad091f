import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpfurst import _kernel
from fpfurst._kernel import _reduce
from fpfurst.flags import (
    LinearSubspace,
    enumerate_linear,
    join_rows,
    reduce_mod_subspace,
    small_projection_count,
)
from fpfurst.indices import floor_scaled_power
from fpfurst.projections import (
    ExceptionalQuery,
    PointSet,
    count_small_projection_subspaces,
    exceptional_set,
    small_projection_directions,
)
from projection_oracle import (
    full_space,
    project_set,
    projection_count,
    subspace_projection_exponent,
)
from rank_oracle import stacked_rank

F = Fraction
FIFTH = F(1, 5)


def _rect(a, s, p):
    """Symmetric lattice box with |x| <= (1/5)p^(a-s), |y| <= (1/5)p^s."""
    xr = floor_scaled_power(FIFTH, p, F(a) - F(s))
    yr = floor_scaled_power(FIFTH, p, F(s))
    pts = itertools.product(range(-xr, xr + 1), range(-yr, yr + 1))
    return PointSet.from_iterable(pts, 2, p), xr, yr


def test_coset_representative_examples():
    xaxis = LinearSubspace.from_rows([[1, 0]], 2, 5)
    assert reduce_mod_subspace((3, 2), xaxis) == (0, 2)
    assert reduce_mod_subspace((3, 2), LinearSubspace.coordinate([], 2, 5)) == (3, 2)
    assert reduce_mod_subspace((3, 2), LinearSubspace.coordinate(range(2), 2, 5)) == (0, 0)


def test_representative_constant_on_cosets():
    V = LinearSubspace.from_rows([[1, 2, 1]], 3, 5)
    x = (3, 1, 4)
    rep = reduce_mod_subspace(x, V)
    for c in range(5):
        shifted = tuple((a + c * b) % 5 for a, b in zip(x, V.row(0)))
        assert reduce_mod_subspace(shifted, V) == rep
    assert reduce_mod_subspace((0, 1, 0), V) != rep


def test_project_full_space_and_singleton():
    A = full_space(3, 3)
    V = LinearSubspace.from_rows([[1, 0, 0], [0, 1, 0]], 3, 3)  # dim n-k, k=1
    assert len(project_set(A, V)) == 3
    single = PointSet.from_iterable([(1, 2)], 2, 5)
    assert len(project_set(single, LinearSubspace.from_rows([[1, 0]], 2, 5))) == 1


def test_projection_count_matches_project_set():
    A = PointSet.from_iterable(
        [(x, (x * x) % 7, 1) for x in range(7)] + [(0, y, 0) for y in range(5)], 3, 7
    )
    for V in enumerate_linear(3, 1, 7):
        assert projection_count(A, V) == len(project_set(A, V))


def test_oberlin_rectangle_slope_zero_projection():
    A, xr, yr = _rect(F(3, 2), 1, 101)
    assert len(A) == 205
    slope0 = LinearSubspace.from_rows([[1, 0]], 2, 101)
    assert len(project_set(A, slope0)) == 2 * yr + 1 == 41


def test_exceptional_singleton_all_directions():
    single = PointSet.from_iterable([(2, 3)], 2, 5)
    assert len(exceptional_set(single, ExceptionalQuery(F(1, 2), 1))) == 6


def test_exceptional_full_space_empty():
    A = full_space(2, 5)
    assert exceptional_set(A, ExceptionalQuery(F(1), 1)) == []


def test_exceptional_threshold_is_strict():
    # a full line projects to exactly p^1 cosets of each transverse direction;
    # p is not < p, so s=1 keeps only the direction of the line itself
    line_pts = PointSet.from_iterable([(x, 0) for x in range(5)], 2, 5)
    exc = exceptional_set(line_pts, ExceptionalQuery(F(1), 1))
    assert len(exc) == 1 and exc[0].row(0) == (1, 0)


def test_exceptional_oberlin_containment():
    A, _, _ = _rect(F(3, 2), 1, 101)
    exc = exceptional_set(A, ExceptionalQuery(F(1), 1))
    keys = {V.entries for V in exc}
    for kappa in (-2, -1, 0, 1, 2):
        V = LinearSubspace.from_rows([[1, kappa % 101]], 2, 101)
        assert V.entries in keys
    assert 2 * floor_scaled_power(FIFTH, 101, F(1, 2)) + 1 == 5


def _coset_unions():
    """Seeded unions of cosets of coordinate subspaces of F_p^n, with random
    sets (most have no stabilising axis), the full space and the empty set."""
    rng = random.Random(20261018)
    sets = []
    for p, n in itertools.product((2, 3, 5), (2, 3, 4)):
        point = lambda: [rng.randrange(p) for _ in range(n)]
        sets += [full_space(n, p), PointSet(n, p, ())]
        sets.append(PointSet.from_iterable([point() for _ in range(rng.randint(1, 2 * p))], n, p))
        for _ in range(2):
            axes = rng.sample(range(n), rng.randint(1, n - 1))
            pts = []
            for x in [point() for _ in range(rng.randint(1, p))]:
                for values in itertools.product(range(p), repeat=len(axes)):
                    pts.append([values[axes.index(c)] if c in axes else e for c, e in enumerate(x)])
            sets.append(PointSet.from_iterable(pts, n, p))
    return sets


@pytest.mark.parametrize("A", _coset_unions(), ids=lambda A: f"p{A.p}n{A.n}size{len(A)}")
def test_quotient_count_equals_projection_count(A, monkeypatch):
    # exceptional_set makes one kernel call per direction, modulo S + V for
    # the axis stabiliser S; scaled by p^(dim(S+V) - dim V) its count is
    # #proj_V(A), and the exceptional sets on a 1/4 grid of s equal the
    # brute-force filter, decided as count^den < p^num
    kernel, calls = _kernel.project_count_flat, []

    def counted(pts, npts, n, basis, kdim, pivots, p):
        calls.append((kernel(pts, npts, n, basis, kdim, pivots, p), kdim))
        return calls[-1][0]

    for k in range(1, A.n):
        directions = list(enumerate_linear(A.n, A.n - k, A.p))
        brute = [projection_count(A, V) for V in directions]
        calls.clear()
        monkeypatch.setattr(_kernel, "project_count_flat", counted)
        exceptional_set(A, ExceptionalQuery(F(1, 4), k))
        monkeypatch.undo()
        assert [c * A.p ** (kdim - V.k) for (c, kdim), V in zip(calls, directions)] == brute
        assert len(calls) == len(directions)
        for s in (F(j, 4) for j in range(1, 4 * A.n + 1)):
            want = [V for V, c in zip(directions, brute) if c**s.denominator < A.p**s.numerator]
            assert exceptional_set(A, ExceptionalQuery(s, k)) == want


@pytest.mark.parametrize(
    "n,k,m,l,p,expected",
    [(2, 1, 1, 0, 3, 1), (2, 1, 1, 1, 3, 4), (3, 1, 1, 1, 3, 13), (4, 2, 2, 1, 7, 449)],
)
def test_count_small_projection_examples(n, k, m, l, p, expected):
    W = LinearSubspace.coordinate(range(m), n, p)
    assert count_small_projection_subspaces(W, k, l) == expected
    assert small_projection_count(n, k, m, l, p) == expected


def test_small_projection_count_is_within_a_pinned_constant_of_its_power():
    """The paper's estimate on the closed form: p^e <= count <= C p^e with
    e = k(n-k) - (k-l)(m-l), over n <= 6 and p <= 11; the worst ratio is pinned."""
    ratios = {
        (n, k, m, l, p): F(small_projection_count(n, k, m, l, p), p ** (k * (n - k) - (k - l) * (m - l)))
        for p in (2, 3, 5, 7, 11)
        for n in range(1, 7)
        for k in range(1, n + 1)
        for m in range(n + 1)
        for l in range(min(k, m) + 1)
        if n - k >= m - l
    }
    assert len(ratios) == 910
    assert min(ratios.values()) == 1
    assert ratios[4, 2, 2, 1, 7] == F(449, 343)
    worst = max(ratios, key=ratios.get)
    assert (worst, ratios[worst]) == ((6, 3, 3, 2, 2), F(883, 256))


def test_count_small_projection_equals_meeting_count():
    # every valid (k, m, l) at p in {2, 3, 5}, n <= 5 (n <= 4 at p = 5)
    cases = [
        (n, k, m, l, p)
        for p in (2, 3, 5)
        for n in range(1, (4 if p == 5 else 5) + 1)
        for k in range(1, n + 1)
        for m in range(n + 1)
        for l in range(min(k, m) + 1)
        if n - k >= m - l
    ]
    assert len(cases) == 265
    wrong = [
        (n, k, m, l, p)
        for n, k, m, l, p in cases
        if count_small_projection_subspaces(LinearSubspace.coordinate(range(m), n, p), k, l)
        != small_projection_count(n, k, m, l, p)
    ]
    assert wrong == []


def test_count_small_projection_hypotheses_enforced():
    W = LinearSubspace.coordinate(range(2), 3, 3)
    with pytest.raises(ValueError):
        count_small_projection_subspaces(W, 2, 0)  # n-k = 1 < m-l = 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_small_projection_directions_match_the_exponent_oracle(p):
    # every coordinate subspace W of F_p^n, on any axis subset of range(n), for
    # n <= 4 (n <= 3 at p = 5), and every (k, l) of the counting hypotheses:
    # the filter keeps exactly the V whose exponent by the stacked-rank oracle
    # is at most l, in enumeration order, as many as small_projection_count
    for n in range(1, (3 if p == 5 else 4) + 1):
        for k in range(1, n + 1):
            directions = list(enumerate_linear(n, n - k, p))
            for m in range(n + 1):
                for axes in itertools.combinations(range(n), m):
                    W = LinearSubspace.coordinate(axes, n, p)
                    exponents = [subspace_projection_exponent(W, V) for V in directions]
                    for l in range(max(m - n + k, 0), min(k, m) + 1):
                        got = list(small_projection_directions(W, k, l))
                        assert got == [V for V, e in zip(directions, exponents) if e <= l], (axes, k, l)
                        assert len(got) == small_projection_count(n, k, m, l, p)


def test_small_projection_directions_refuse_a_non_coordinate_subspace():
    # one free entry off the pivot is enough; the count refuses it too
    W = LinearSubspace.from_rows([[1, 0, 2], [0, 1, 0]], 3, 5)
    with pytest.raises(ValueError, match="not a coordinate subspace"):
        next(small_projection_directions(W, 1, 1))
    with pytest.raises(ValueError, match="not a coordinate subspace"):
        count_small_projection_subspaces(W, 1, 1)


def test_subspace_projection_rank_identity():
    # #proj_V(W) = p^(dim(W + V) - dim V) for every pair of subspaces, with
    # brute-force projection of W's point list as the oracle; for coordinate
    # W, join_rows(V, W's axes) spans W + V
    for p, nmax in ((2, 4), (3, 3)):
        for n in range(1, nmax + 1):
            subs = [V for k in range(n + 1) for V in enumerate_linear(n, k, p)]
            for W in subs:
                W_pts = PointSet.from_iterable(W.points(), n, p)
                coordinate = W == LinearSubspace.coordinate(W.pivots, n, p)
                for V in subs:
                    e = subspace_projection_exponent(W, V)
                    assert projection_count(W_pts, V) == p**e
                    if coordinate:
                        assert e == len(join_rows(V, W.pivots)) - V.k


def _random_subspace(rng, p, n, axes):
    """Span of random rows; with axes, some rows are zero off them, so the
    subspace and the axes' span overlap."""
    rows = []
    for _ in range(rng.randint(0, n)):
        off_axes = not axes or rng.random() < 0.5
        rows.append([rng.randrange(p) if off_axes or j in axes else 0 for j in range(n)])
    return LinearSubspace.from_rows(rows, n, p)


def _assert_join(U, axes):
    """join_rows(U, axes) has dim(U + C) rows, C the axes' span, by the rank
    oracle; U's rows and the axes reduce to 0 modulo them; and each is in
    `_reduce`'s form: residues, 0 left of its pivot, 1 at it and 0 at every
    earlier row's pivot.  So the rows are an echelon basis of U + C."""
    n, p = U.n, U.p
    rows = join_rows(U, axes)
    assert len(rows) == stacked_rank(U, LinearSubspace.coordinate(axes, n, p)), (U, axes)
    for r in U.to_rows() + [[int(j == a) for j in range(n)] for a in axes]:
        assert not any(_reduce(r, rows, p)), (U, axes, r)
    for i, row in enumerate(rows):
        (c, entries), dense = row, [0] * n
        dense[c] = 1
        for j, b in entries:
            dense[j] = b
        assert dense[: c + 1] == [0] * c + [1] and all(0 <= b < p for b in dense), (U, axes, row)
        assert not any(dense[d] for d, _ in rows[:i]), (U, axes, row)


@pytest.mark.parametrize("p", [2, 3])
def test_join_rows_span_the_sum_for_every_subspace_and_axis_set(p):
    for n in range(1, 5):
        subsets = [axes for r in range(n + 1) for axes in itertools.combinations(range(n), r)]
        for k in range(n + 1):
            for U in enumerate_linear(n, k, p):
                for axes in subsets:
                    _assert_join(U, axes)


def test_join_rows_span_the_sum():
    # each random U is joined with random axes, with none, with all n, and
    # with axes under every pivot of U
    rng = random.Random(20261018)
    for _ in range(300):
        p, n = rng.choice([2, 3, 5, 7, 101, 2**61 - 1]), rng.randint(1, 5)
        axes = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        U = _random_subspace(rng, p, n, axes)
        for each in (axes, (), tuple(range(n)), tuple(sorted({*U.pivots, *axes}))):
            _assert_join(U, each)


def _point_sets(nmax=3):
    return st.sampled_from([2, 3, 5]).flatmap(
        lambda p: st.integers(1, nmax).flatmap(
            lambda n: st.lists(
                st.tuples(*([st.integers(0, p - 1)] * n)), min_size=0, max_size=25
            ).map(lambda pts: PointSet.from_iterable(pts, n, p))
        )
    )


@given(_point_sets())
@settings(max_examples=60, deadline=None)
def test_slicing_identity(A):
    # sum over cosets of the points they contain recovers #A exactly
    for k in range(A.n + 1):
        for V in itertools.islice(enumerate_linear(A.n, k, A.p), 4):
            counts = {}
            for q in A:
                rep = reduce_mod_subspace(q, V)
                counts[rep] = counts.get(rep, 0) + 1
            assert sum(counts.values()) == len(A)
            assert len(counts) == projection_count(A, V)


@given(_point_sets())
@settings(max_examples=60, deadline=None)
def test_projection_monotone_in_set(A):
    sub = PointSet.from_iterable(list(A)[::2], A.n, A.p)
    for k in range(A.n + 1):
        for V in itertools.islice(enumerate_linear(A.n, k, A.p), 3):
            assert projection_count(sub, V) <= projection_count(A, V)


def test_point_set_invariants():
    A = PointSet.from_iterable([(6, 2), (1, 1), (1, 1)], 2, 5)
    assert A.points == ((1, 1), (1, 2))  # reduced mod 5, deduplicated, sorted
    assert (1, 2) in A and (0, 0) not in A
    with pytest.raises(ValueError, match="strictly sorted"):
        PointSet(2, 5, ((1, 1), (1, 1)))  # duplicate
    with pytest.raises(ValueError, match="strictly sorted"):
        PointSet(2, 5, ((2, 0), (1, 4)))  # distinct but descending
    # the message names the offending point, wherever it sits in the set
    with pytest.raises(ValueError, match=r"bad point \(1, 7\) for F_5\^2"):
        PointSet(2, 5, ((0, 0), (1, 7), (2, 2)))
    with pytest.raises(ValueError, match=r"bad point \(0, 5\) for F_5\^2"):
        PointSet(2, 5, ((0, 5),))  # p itself is not a residue
    with pytest.raises(ValueError, match=r"bad point \(3, -1\) for F_5\^2"):
        PointSet(2, 5, ((0, 0), (3, -1)))
    with pytest.raises(ValueError, match=r"bad point \(1, 2, 3\) for F_5\^2"):
        PointSet(2, 5, ((0, 0), (1, 2, 3)))
    with pytest.raises(ValueError, match=r"bad point \(4,\) for F_5\^2"):
        PointSet(2, 5, ((4,), (4, 4)))
    assert len(PointSet(2, 5, ())) == 0
    assert PointSet.from_iterable([], 2, 5) == PointSet(2, 5, ())


@pytest.mark.parametrize(
    "make",
    [
        lambda: PointSet(2, 5, ((1.5, 2),)),
        lambda: PointSet(2, 5, ((0, 0), (1.0, 2))),  # equal to (1, 2) by value, still refused
        lambda: PointSet.from_iterable([(6.5, 2)], 2, 5),  # c % p keeps a float a float
    ],
)
def test_point_set_refuses_non_int_coordinates(make):
    with pytest.raises(TypeError, match="must be ints"):
        make()


@pytest.mark.parametrize(
    "points",
    [
        ([1, 2], [3, 4]),  # list points; (1, 2) in such a set would raise in bisect
        ((1, 2), [3, 4]),
        [(1, 2), (3, 4)],  # a list of points
    ],
)
def test_point_set_refuses_points_that_are_not_tuples(points):
    with pytest.raises(TypeError, match="must be a tuple of tuples"):
        PointSet(2, 5, points)


def test_lex_prefix():
    A = PointSet.lex_prefix(2, 3, 4)
    assert A.points == ((0, 0), (0, 1), (0, 2), (1, 0))
    assert len(PointSet.lex_prefix(2, 3, 9)) == 9
    with pytest.raises(ValueError):
        PointSet.lex_prefix(2, 3, 10)
