import hashlib
import itertools
import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest

from fpfurst import _kernel
from fpfurst.cli import parse_config, run
from fpfurst.errors import DegenerateScaleError
from fpfurst.exceptional import (
    _certify,
    _rectangle,
    certify_lower_bound,
    construct_marstrand_witness,
    construct_oberlin_rectangle,
)
from fpfurst.flags import (
    LinearSubspace,
    enumerate_linear,
    gaussian_binomial,
    reduce_mod_subspace,
    small_projection_count,
)
from fpfurst.indices import ceil_rational_power, floor_scaled_power, marstrand_params
from fpfurst.projections import (
    ExceptionalQuery,
    PointSet,
    exceptional_set,
    subspace_projection_exponent,
)
from projection_oracle import projection_count
from subspace_counts import degenerate_direction_count, product_sides, type3_direction_families

F = Fraction


class _Oberlin(Exception):
    pass


def test_dispatcher_picks_oberlin_exactly_where_the_2d_rectangle_applies(monkeypatch):
    """In F_p^2 the dispatcher builds the Oberlin rectangle exactly where
    a/2 < s <= min(1, a), on every point of the 1/24 grid of (0, 2]^2."""

    def oberlin(a, s, p):
        raise _Oberlin

    monkeypatch.setattr("fpfurst.exceptional.construct_oberlin_rectangle", oberlin)
    grid = [F(j, 24) for j in range(1, 49)]
    for a in grid:
        for s in grid:
            try:
                construct_marstrand_witness(a, s, 2, 1, 2)
                chose = False
            except _Oberlin:
                chose = True
            except DegenerateScaleError:  # another branch, too small at p = 2
                chose = False
            assert chose == (a / 2 < s <= min(F(1), a)), (a, s)


def test_dispatcher_returns_the_oberlin_witness_in_2d():
    assert construct_marstrand_witness(F(3, 2), 1, 2, 1, 41) == construct_oberlin_rectangle(
        F(3, 2), 1, 41
    )


def test_oberlin_rectangle_spec_case():
    w = construct_oberlin_rectangle(F(3, 2), 1, 101)
    assert len(w.set_a) == 5 * 41 == 205
    assert len(w.claimed) == 2 * floor_scaled_power(F(1, 5), 101, F(1, 2)) + 1 == 5
    assert w.certified_count >= len(w.claimed)
    assert certify_lower_bound(w, F(1, 5))


def test_oberlin_claims_individually_exceptional():
    w = construct_oberlin_rectangle(1, F(3, 4), 101)
    assert len(w.claimed) == 5
    for V in w.claimed:
        assert projection_count(w.set_a, V) < ceil_rational_power(101, F(3, 4))


def test_certify_refuses_a_claimed_direction_that_is_not_exceptional():
    # the axis {0} x F_5 meets 1 coset of its own direction and 5 = p^1 of the
    # other axis, so only the first claim is 1-exceptional
    axis = PointSet(2, 5, tuple((0, y) for y in range(5)))
    claimed = (LinearSubspace.coordinate([1], 2, 5), LinearSubspace.coordinate([0], 2, 5))
    assert _certify(1, 1, 2, 1, 5, "axis", axis, claimed[:1]).certified_count == 1
    with pytest.raises(DegenerateScaleError) as exc:
        _certify(1, 1, 2, 1, 5, "axis", axis, claimed)
    assert str(exc.value) == "axis: 1 claimed directions fail the strict test at p = 5"


def test_oberlin_boundary_s_equals_a():
    w = construct_oberlin_rectangle(1, 1, 101)
    assert w.certified_count >= len(w.claimed) >= 1


def test_oberlin_preconditions():
    with pytest.raises(ValueError):
        construct_oberlin_rectangle(F(3, 2), F(1, 2), 101)  # s <= a/2
    with pytest.raises(DegenerateScaleError):
        construct_oberlin_rectangle(1, F(3, 4), 7)  # floor(p^s / 5) = 0


def test_type2_slab_spec_case():
    w = construct_marstrand_witness(F(5, 2), F(7, 4), 4, 2, 5)
    assert w.mtype == 2 and w.branch == "type2-slab"
    assert len(w.set_a) == 25 * 3
    assert w.certified_count >= len(w.claimed) > 0
    assert certify_lower_bound(w, F(1, 25))
    for V in w.claimed:
        assert projection_count(w.set_a, V) < ceil_rational_power(5, F(7, 4))


@pytest.mark.parametrize(
    "ask,p,want",
    [
        ((F(5, 2), F(7, 4), 4, 2), 5, 181),
        ((F(3, 2), F(5, 4), 4, 2), 5, 181),
        ((F(5, 2), F(7, 4), 4, 2), 7, 449),
        ((F(3, 2), F(5, 4), 4, 2), 7, 449),
    ],
)
def test_slab_witness_claim_reference_values(ask, p, want):
    assert len(construct_marstrand_witness(*ask, p).claimed) == want


def test_slab_witnesses_claim_exactly_the_small_projection_count():
    """On the 1/4 grid of (a, s) for n = 3 and 4, every slab witness claims
    the directions collapsing a coordinate m-subspace to at most p^l cosets:
    m for type2-slab, and m + 1 for type3-enlarged, which enlarges a."""
    reached = Counter()
    for n, primes in ((3, (2, 3, 5, 7, 11)), (4, (3, 5))):
        for k in range(1, n):
            for a, s in itertools.product([F(j, 4) for j in range(1, 4 * n + 1)], repeat=2):
                if s > k:
                    continue
                pr = marstrand_params(a, s, n, k)
                if pr.piece not in ("2-zero", "3-zero"):
                    continue
                branch, m = ("type2-slab", pr.m) if pr.mtype == 2 else ("type3-enlarged", pr.m + 1)
                for p in primes:
                    try:
                        w = construct_marstrand_witness(a, s, n, k, p)
                    except DegenerateScaleError:
                        continue
                    assert w.branch == branch
                    want = small_projection_count(n, k, m, pr.l, p)
                    assert len(w.claimed) == want, (a, s, n, k, p)
                    reached[branch] += 1
    assert reached == {"type2-slab": 58, "type3-enlarged": 160}


_WITNESS_BRANCHES = {"type1-any": 170, "type4-empty": 50, "type3-rectangle": 28, "type3-enlarged": 15, "type2-rectangle": 14}


@pytest.mark.parametrize(
    "p, degenerate, branch_counts, branch_digest",
    [
        pytest.param(
            3, [("1/2", "1/2", 2, 1), ("1", "1", 2, 1), ("3/2", "1", 2, 1)], _WITNESS_BRANCHES,
            "4012eefa01a0c73fec5782438f7397a7630fd6c13c3125ecb9006c7b8c41ae5d", id="p3",
        ),
        pytest.param(
            5, [("1/2", "1/2", 2, 1)], {**_WITNESS_BRANCHES, "oberlin-rectangle": 2},
            "cfef3a10fcb9d37debf9e73dc3268d62f673594be67a2343b7df14655d0b9573", id="p5",
        ),
    ],
)
def test_witness_sweep_over_the_half_grid(p, degenerate, branch_counts, branch_digest):
    # Every (a, s) of the 1/2 grid in (0, n]^2 for n <= 4 certifies with 1/25
    # or is degenerate at p.  The digest pins each certified point's branch,
    # in grid order; the slab branches claim through small_projection_directions.
    raised, branches = [], []
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        for i, j in itertools.product(range(1, 2 * n + 1), repeat=2):
            a, s = F(i, 2), F(j, 2)
            key = (str(a), str(s), n, k)
            try:
                w = construct_marstrand_witness(a, s, n, k, p)
            except DegenerateScaleError:
                raised.append(key)
                continue
            assert certify_lower_bound(w, F(1, 25)), key
            branches.append((key, w.branch))
    assert len(raised) + len(branches) == 280
    assert raised == degenerate
    assert Counter(branch for _, branch in branches) == branch_counts
    assert hashlib.sha256(repr(branches).encode()).hexdigest() == branch_digest


def test_type4_certifies_empty():
    w = construct_marstrand_witness(3, 1, 3, 1, 7)
    assert w.mtype == 4 and w.claimed == ()
    assert w.certified_count == 0
    assert certify_lower_bound(w, 10**9)  # vacuous at minus infinity


def test_type1_all_directions():
    w = construct_marstrand_witness(F(1, 2), 1, 3, 2, 7)
    assert w.mtype == 1
    assert w.certified_count == len(w.claimed) == gaussian_binomial(3, 1, 7) == 57


@pytest.mark.parametrize("p", [5, 7])
def test_type3_rectangle_branch(p):
    w = construct_marstrand_witness(F(3, 2), F(3, 2), 4, 2, p)
    assert w.branch == "type3-rectangle"
    assert certify_lower_bound(w, F(1, 25))
    for V in w.claimed:
        assert projection_count(w.set_a, V) < ceil_rational_power(p, F(3, 2))


@pytest.mark.parametrize(
    "p,ask",
    [
        pytest.param(5, (F(3, 2), F(3, 2), 4, 2), id="5"),
        pytest.param(7, (F(3, 2), F(3, 2), 4, 2), id="7"),
        # type 2 with gamma > (beta + 1)/2: the rectangle-product branch at m - 1
        pytest.param(7, (F(3, 2), F(1), 3, 1), id="type2-7"),
        pytest.param(11, (F(3, 2), F(1), 3, 1), id="type2-11"),
    ],
)
def test_type3_families_pairwise_disjoint(p, ask):
    fams = type3_direction_families(*ask, p)
    assert len(fams) >= 2
    keys = [frozenset(V.entries for V in vs) for vs in fams.values()]
    assert all(vs for vs in keys), "no family should be empty at this scale"
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert not (keys[i] & keys[j])


# Rectangle-product cases: type 3 at p = 5, 7; the type-2 branch in F_p^4;
# and the type-2 branch in F_p^3, where p = 29 is the least prime at which
# the rectangle's 2-D exceptional set is proper (24 of 30 lines), so a wrong
# theta key cannot hide behind "every theta is exceptional".  In the last
# two, l = k - 2: V + F_p^m has codimension 2, so the 2x2 minors decide.
PRODUCT_CASES = [
    pytest.param(5, (F(3, 2), F(3, 2), 4, 2), id="type3-5"),
    pytest.param(7, (F(3, 2), F(3, 2), 4, 2), id="type3-7"),
    pytest.param(5, (F(5, 2), F(15, 8), 4, 2), id="type2-n4-5"),
    pytest.param(11, (F(3, 2), F(1), 3, 1), id="type2-n3-11"),
    pytest.param(29, (F(3, 2), F(1), 3, 1), id="type2-n3-29"),
    pytest.param(5, (F(1, 8), F(1, 8), 3, 2), id="type3-n3-k2-5"),
    pytest.param(5, (F(9, 8), F(9, 8), 4, 3), id="type3-n4-k3-5"),
]


def _per_theta_oracle(a, s, n, k, p):
    """The families by brute force: every (theta, V) pair is decided by the
    projection exponents of theta + F_p^m, F_p^m and F_p^2 x F_p^m.  Returns
    the families by theta and the union of their members in enumeration order."""
    pr = marstrand_params(a, s, n, k)
    m, beta_eff = product_sides(pr)
    thetas = exceptional_set(_rectangle(beta_eff, pr.gamma, p), ExceptionalQuery(pr.gamma, 1))
    mid = LinearSubspace.coordinate(range(2, 2 + m), n, p)
    wide = LinearSubspace.coordinate(range(2 + m), n, p)
    directions = [
        V
        for V in enumerate_linear(n, n - k, p)
        if subspace_projection_exponent(mid, V) == pr.l
        and subspace_projection_exponent(wide, V) == pr.l + 1
    ]
    families = {}
    for theta in thetas:
        lifted = [list(r) + [0] * (n - 2) for r in theta.to_rows()]
        span = LinearSubspace.from_rows(lifted + mid.to_rows(), n, p)
        families[theta] = tuple(
            V for V in directions if subspace_projection_exponent(span, V) <= pr.l
        )
    members = {V for vs in families.values() for V in vs}
    return families, tuple(V for V in directions if V in members)


@pytest.mark.parametrize("p,ask", PRODUCT_CASES)
def test_type3_one_pass_matches_per_theta_oracle(p, ask):
    """Each direction's own line theta_V places it in exactly the families
    the per-(theta, V) filter does, in theta order and member order, and the
    witness claims their union in enumeration order."""
    families, union = _per_theta_oracle(*ask, p)
    assert list(type3_direction_families(*ask, p).items()) == list(families.items())
    assert construct_marstrand_witness(*ask, p).claimed == union


def test_degenerate_direction_count_reference_values():
    assert degenerate_direction_count(4, 2, 1, 1, 5) == 750
    assert degenerate_direction_count(4, 2, 1, 1, 7) == 2744
    assert degenerate_direction_count(3, 1, 0, 0, 31) == 992


@pytest.mark.parametrize("p,ask", PRODUCT_CASES)
def test_type3_families_have_the_exact_size(p, ask):
    """The p + 1 lines theta_V split the D degenerate directions evenly: each
    family has D / (p + 1) members, and the witness claims #Theta of them."""
    pr = marstrand_params(*ask)
    m, _ = product_sides(pr)
    d = degenerate_direction_count(ask[2], ask[3], m, pr.l, p)
    assert d % (p + 1) == 0
    families = type3_direction_families(*ask, p)
    assert {len(vs) for vs in families.values()} == {d // (p + 1)}
    assert len(construct_marstrand_witness(*ask, p).claimed) == len(families) * d // (p + 1)


@pytest.mark.parametrize(
    "ask",
    [
        pytest.param((F(5, 2), F(7, 4), 4, 2), id="type2-slab"),
        pytest.param((F(3, 2), F(5, 4), 4, 2), id="type3-enlarged"),
        pytest.param((1, 2, 3, 1), id="type1"),
        pytest.param((3, 1, 4, 2), id="type4"),
    ],
)
def test_type3_families_refuse_non_product_branches(ask):
    with pytest.raises(ValueError, match="no rectangle-product branch"):
        type3_direction_families(*ask, 5)


def test_type3_enlarged_branch():
    w = construct_marstrand_witness(F(3, 2), F(5, 4), 4, 2, 5)
    assert w.branch == "type3-enlarged"
    assert certify_lower_bound(w, F(1, 25))
    assert len(w.set_a) == 12  # ceil(5^(3/2))


def test_type2_rectangle_branch():
    w = construct_marstrand_witness(F(5, 2), F(15, 8), 4, 2, 5)
    assert w.branch == "type2-rectangle"
    assert certify_lower_bound(w, F(1, 25))


def test_certified_count_monotone_in_s():
    # E_s grows with s: same A, two thresholds
    w_small = construct_marstrand_witness(F(5, 2), F(7, 4), 4, 2, 5)
    bigger = exceptional_set(w_small.set_a, ExceptionalQuery(F(15, 8), 2))
    smaller = exceptional_set(w_small.set_a, ExceptionalQuery(F(7, 4), 2))
    small_keys = {V.entries for V in smaller}
    assert small_keys <= {V.entries for V in bigger}
    assert w_small.certified_count == len(smaller)


def test_certify_negative_control():
    w = construct_oberlin_rectangle(F(3, 2), 1, 41)
    assert not certify_lower_bound(w, 10**6)


def test_certify_refuses_nonpositive_constant():
    w = construct_oberlin_rectangle(F(3, 2), 1, 41)
    for c in (0, F(-1, 5)):
        with pytest.raises(ValueError):
            certify_lower_bound(w, c)


def test_witness_round_trip():
    w = construct_marstrand_witness(F(5, 2), F(7, 4), 4, 2, 5)
    assert w == construct_marstrand_witness(F(5, 2), F(7, 4), 4, 2, 5)


def test_slab_slicing_identity():
    # per-coset point counts over a type-2 witness sum to #A, one per coset
    w = construct_marstrand_witness(F(5, 2), F(7, 4), 4, 2, 5)
    for V in list(enumerate_linear(4, 2, 5))[:25]:
        counts = {}
        for q in w.set_a:
            rep = reduce_mod_subspace(q, V)
            counts[rep] = counts.get(rep, 0) + 1
        assert sum(counts.values()) == len(w.set_a)
        assert len(counts) == projection_count(w.set_a, V)


def test_seed_0_witness_certify_counts_one_point_per_stabiliser_coset(monkeypatch):
    """The benchmark's seed-0 witness-certify cases, run in-process: each
    `exceptional_set` makes one kernel call per direction, each on #A / p^dim S
    points for the axis stabiliser S of A, 39,772 points in all."""
    clibench = pathlib.Path(__file__).resolve().parents[1] / "clibench"
    monkeypatch.syspath_prepend(str(clibench))
    import workloads

    kernel, certify, points, spans = _kernel.project_count_flat, exceptional_set, [], []

    def counted(pts, npts, *args):
        points.append(npts)
        return kernel(pts, npts, *args)

    def traced(A, q):
        start = len(points)
        result = certify(A, q)
        spans.append((A, q.k, points[start:]))
        return result

    monkeypatch.setattr(_kernel, "project_count_flat", counted)
    monkeypatch.setattr("fpfurst.exceptional.exceptional_set", traced)
    for launch in workloads.launches("witness-certify", workloads.DEFAULT_SEED):
        assert run(parse_config(json.dumps(launch.config()))).fails == 0
    for A, k, block in spans:
        shifts = ({x[:c] + ((x[c] + 1) % A.p,) + x[c + 1 :] for x in A} for c in range(A.n))
        dim_s = sum(shifted == set(A.points) for shifted in shifts)
        assert len(block) == gaussian_binomial(A.n, A.n - k, A.p)
        assert set(block) == {len(A) // A.p**dim_s}
    assert len(spans) == 11 and sum(len(block) for _, _, block in spans) == len(points)
    prefix = PointSet.lex_prefix(4, 7, 343)  # the type-4 set {0} x F_7^3
    assert [block for A, _, block in spans if A == prefix] == [[1] * 2850]
    assert sum(points) == 39_772
