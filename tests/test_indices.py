import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import index_oracle
from fpfurst.indices import (
    NEG_INF,
    _furstenberg_scaled,
    _marstrand_scaled,
    _marstrand_piece,
    _split,
    ceil_rational_power,
    ceil_scaled_power,
    floor_scaled_power,
    furstenberg_index,
    furstenberg_params,
    integer_nth_root,
    marstrand_index,
    marstrand_params,
)

F = Fraction


@pytest.mark.parametrize(
    "x,expected",
    [(F(3, 2), (1, F(1, 2))), (F(2), (1, F(1))), (F(1, 3), (0, F(1, 3))),
     (F(1), (0, F(1))), (F(7, 3), (2, F(1, 3)))],
)
def test_canonical_split(x, expected):
    d, sigma = index_oracle.canonical_split(x)
    assert (d, sigma) == expected
    assert _split(x.numerator, x.denominator) == (d, sigma * x.denominator)


def test_canonical_split_rejects_nonpositive():
    # `_split` takes positive numerators only; the domain checks refuse the rest
    with pytest.raises(ValueError):
        index_oracle.canonical_split(0)
    with pytest.raises(ValueError, match="a must lie"):
        marstrand_params(0, 1, 2, 1)
    with pytest.raises(ValueError, match="s must be positive"):
        marstrand_params(1, 0, 2, 1)


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_integer_nth_root_is_floor_root(x, n):
    r = integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n


@pytest.mark.parametrize(
    "p,e,expected",
    [(29, F(1, 2), 6), (7, F(0), 1), (101, F(3, 4), 32), (5, F(3), 125)],
)
def test_ceil_rational_power(p, e, expected):
    assert ceil_rational_power(p, e) == expected


def test_ceil_rational_power_oracle_inequalities():
    # the root-with-remainder facts behind the frozen values above
    assert 5**2 < 29 <= 6**2
    assert 31**4 < 101**3 <= 32**4


def _sign_by_thresholds(c, p, e):
    """Sign of c - p^e: c > p^e iff c > floor(p^e), c < p^e iff c < ceil(p^e)."""
    return (c > floor_scaled_power(1, p, e)) - (c < ceil_rational_power(p, e))


@pytest.mark.parametrize(
    "c,p,e,sign", [(5, 5, F(1), 0), (6, 29, F(1, 2), 1), (2, 5, F(1, 2), -1)]
)
def test_compare_count_to_power(c, p, e, sign):
    assert _sign_by_thresholds(c, p, e) == sign


def test_scaled_power_helpers_match_bruteforce():
    def sign(c, coeff, p, e):
        # cross-multiplied oracle: c - coeff * p^e has the sign of
        # (c * den(coeff))^den(e) - num(coeff)^den(e) * p^num(e)
        d = e.denominator
        lhs = (c * coeff.denominator) ** d
        rhs = coeff.numerator ** d * p ** e.numerator
        return (lhs > rhs) - (lhs < rhs)

    for coeff in (F(1, 5), F(1, 2), F(3), F(7, 3)):
        for p in (2, 5, 29):
            for e in (F(0), F(1, 2), F(3, 4), F(5, 4)):
                fl = floor_scaled_power(coeff, p, e)
                assert sign(fl, coeff, p, e) <= 0
                assert sign(fl + 1, coeff, p, e) > 0
                ce = ceil_scaled_power(coeff, p, e)
                assert sign(ce, coeff, p, e) >= 0
                assert sign(ce - 1, coeff, p, e) < 0
                assert ce - fl in (0, 1)


@pytest.mark.parametrize("threshold", [floor_scaled_power, ceil_scaled_power])
@pytest.mark.parametrize("coeff,e", [(1, F(-1, 2)), (F(1, 2), -1), (0, F(1, 2)), (F(-1, 3), 1)])
def test_thresholds_reject_negative_exponent_and_nonpositive_coeff(threshold, coeff, e):
    # a negative exponent would otherwise make p**num(e) a float
    with pytest.raises(ValueError):
        threshold(coeff, 7, e)


def test_floats_rejected():
    with pytest.raises(TypeError):
        furstenberg_index(0.5, 1, 2, 1)


@pytest.mark.parametrize(
    "s,t,n,k,expected",
    [
        (F(1, 2), F(1), 2, 1, F(5, 4)),
        (F(0), F(2), 2, 1, F(1)),
        # d=1, sigma=1, m=0, tau=3 in (2,3]: flat-top case gives s+m+1
        (F(2), F(3), 3, 2, F(3)),
        (F(1), F(0), 2, 1, F(1)),
        (F(1), F(3), 3, 1, F(3)),
    ],
)
def test_furstenberg_index_values(s, t, n, k, expected):
    assert furstenberg_index(s, t, n, k) == expected


def test_furstenberg_index_closed_form_2d():
    # independent closed form for (n,k)=(2,1) on a 1/12 grid
    for si in range(1, 13):
        for ti in range(0, 25):
            s, t = F(si, 12), F(ti, 12)
            want = min(s + t, 3 * s / 2 + t / 2, s + 1)
            assert furstenberg_index(s, t, 2, 1) == want


def test_furstenberg_full_space_sanity():
    for n in range(2, 6):
        for k in range(1, n):
            assert furstenberg_index(k, (k + 1) * (n - k), n, k) == n


def test_furstenberg_inadmissible_rejected():
    with pytest.raises(ValueError):
        furstenberg_index(3, 1, 2, 1)
    with pytest.raises(ValueError):
        furstenberg_index(1, 7, 2, 1)
    with pytest.raises(ValueError):
        furstenberg_index(1, 1, 2, 2)


@pytest.mark.parametrize(
    "a,s,n,k,expected",
    [
        (F(1), F(3, 4), 2, 1, F(1, 2)),
        (F(3), F(1), 3, 1, NEG_INF),
        (F(5, 2), F(3, 2), 4, 2, F(5, 2)),
        (F(5, 2), F(7, 4), 4, 2, F(3)),
    ],
)
def test_marstrand_index_values(a, s, n, k, expected):
    assert marstrand_index(a, s, n, k) == expected


@pytest.mark.parametrize(
    "a,s,n,k,expected",
    [
        (F(1, 2), F(2), 3, 2, 1),
        (F(1), F(3, 4), 2, 1, 3),
        (F(5, 2), F(7, 4), 4, 2, 2),
        (F(3), F(1), 3, 1, 4),
    ],
)
def test_classify_marstrand_type(a, s, n, k, expected):
    D = math.lcm(a.denominator, s.denominator)
    assert index_oracle.marstrand_params(a, s, n, k).mtype == expected
    assert _marstrand_piece(int(a * D), int(s * D), n, k, D)[0][0] == str(expected)


def test_marstrand_2d_display():
    # the (2,1) specialization: 1 / max{0, 2s-a} / -inf by range, 1/12 grid
    for ai in range(1, 25):
        for si in range(1, 25):
            a, s = F(ai, 12), F(si, 12)
            got = marstrand_index(a, s, 2, 1)
            if s > min(a, F(1)):
                assert got == 1
            elif s > a - 1:
                assert got == max(F(0), 2 * s - a)
            else:
                assert got is NEG_INF


def test_marstrand_domain_errors():
    with pytest.raises(ValueError):
        marstrand_index(0, 1, 2, 1)
    with pytest.raises(ValueError):
        marstrand_index(F(5, 2), 1, 2, 1)
    with pytest.raises(ValueError):
        marstrand_index(1, 0, 2, 1)


_dims = st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n - 1))
)
_rationals = st.integers(0, 60).map(lambda i: F(i, 12))


@given(_dims, _rationals, _rationals)
@settings(max_examples=300, deadline=None)
def test_furstenberg_index_range(dims, s_raw, t_raw):
    n, k = dims
    s = min(s_raw, F(k))
    t = min(t_raw, F((k + 1) * (n - k)))
    val = furstenberg_index(s, t, n, k)
    assert s <= val <= n
    assert val >= s + max(F(0), t - k * (n - k))


@given(_dims, st.integers(1, 72).map(lambda i: F(i, 12)), st.integers(1, 72).map(lambda i: F(i, 12)))
@settings(max_examples=300, deadline=None)
def test_marstrand_index_range(dims, a_raw, s):
    n, k = dims
    a = min(a_raw, F(n))
    val = marstrand_index(a, s, n, k)
    if val is NEG_INF:
        assert marstrand_params(a, s, n, k).mtype == 4
    else:
        assert 0 <= val <= k * (n - k)


@given(st.integers(0, 10**9), st.sampled_from([2, 3, 5, 29, 101]),
       st.integers(0, 40), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_compare_count_to_power_against_integer_oracle(c, p, num, den):
    # cross-multiplied big-int oracle, written independently of the thresholds
    lhs, rhs = c**den, p**num
    want = 0 if lhs == rhs else (1 if lhs > rhs else -1)
    assert _sign_by_thresholds(c, p, F(num, den)) == want


def test_neg_inf_ordering_and_absorption():
    assert NEG_INF < F(-100) and NEG_INF <= NEG_INF
    assert not (NEG_INF > F(-100)) and NEG_INF >= NEG_INF
    assert NEG_INF + F(5) is NEG_INF and F(5) + NEG_INF is NEG_INF
    assert max(NEG_INF, F(2)) == F(2)


# -- the lattice case split against the Fraction oracle --

PAIRS_UP_TO_6 = [(n, k) for n in range(2, 7) for k in range(1, n)]


def _same_furstenberg(s, t, n, k):
    """The lattice evaluator at D = 2 lcm and both views equal the oracle."""
    want = index_oracle.furstenberg_index(s, t, n, k)
    D = 2 * math.lcm(s.denominator, t.denominator)
    assert _furstenberg_scaled(int(s * D), int(t * D), n, k, D) == want * D
    assert furstenberg_index(s, t, n, k) == want
    assert furstenberg_params(s, t, n, k) == index_oracle.furstenberg_params(s, t, n, k)


def _same_marstrand(a, s, n, k):
    want = index_oracle.marstrand_index(a, s, n, k)
    D = math.lcm(a.denominator, s.denominator)
    got = _marstrand_scaled(int(a * D), int(s * D), n, k, D)
    assert got is NEG_INF if want is NEG_INF else got == want * D
    assert marstrand_index(a, s, n, k) == want
    pr = index_oracle.marstrand_params(a, s, n, k)
    assert marstrand_params(a, s, n, k) == pr
    assert _marstrand_piece(int(a * D), int(s * D), n, k, D)[0] == pr.piece


@pytest.mark.parametrize("n,k", PAIRS_UP_TO_6)
def test_lattice_indices_equal_the_fraction_oracle_on_the_twelfth_grid(n, k):
    # the params comparison includes the piece label, against the oracle's
    # dispatch conditions
    for si in range(12 * k + 1):
        for ti in range(12 * (k + 1) * (n - k) + 1):
            _same_furstenberg(F(si, 12), F(ti, 12), n, k)
    for ai in range(1, 12 * n + 1):
        for si in range(1, 12 * (k + 1) + 1):
            _same_marstrand(F(ai, 12), F(si, 12), n, k)
    for x in range(1, 12 * n + 1):
        d, sigma = index_oracle.canonical_split(F(x, 12))
        assert _split(x, 12) == (d, sigma * 12)


def _unit(draw, hi):
    """A rational in [0, 1] scaled to [0, hi], with denominator up to 60."""
    den = draw(st.integers(1, 60))
    return F(draw(st.integers(0, den)), den) * hi


@st.composite
def _furstenberg_args(draw):
    n, k = draw(st.sampled_from(PAIRS_UP_TO_6))
    return _unit(draw, k), _unit(draw, (k + 1) * (n - k)), n, k


@st.composite
def _marstrand_args(draw):
    n, k = draw(st.sampled_from(PAIRS_UP_TO_6))
    a, s = _unit(draw, n), _unit(draw, k + 1)
    return a or F(n), s or F(1, 7), n, k


@given(_furstenberg_args())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_lattice_furstenberg_equals_the_oracle_on_drawn_rationals(args):
    _same_furstenberg(*args)


@given(_marstrand_args())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_lattice_marstrand_equals_the_oracle_on_drawn_rationals(args):
    _same_marstrand(*args)


def test_lattice_furstenberg_refuses_a_value_off_its_lattice():
    # F(1/2, 1; 2, 1) = 5/4: at D = 2, sigma + tau = 1 + 2 is odd
    with pytest.raises(ValueError, match="not on the 1/2 lattice"):
        _furstenberg_scaled(1, 2, 2, 1, 2)
    assert _furstenberg_scaled(2, 4, 2, 1, 4) == 5


def test_lattice_furstenberg_takes_an_odd_sum_off_the_mean_piece():
    # sigma + tau is odd, but the piece's term is 1, not (sigma + tau)/2:
    # F(1, 3/2; 2, 1) = 2 on c-one, and F(2, 5/2; 3, 2) = 3 on d
    assert _furstenberg_scaled(2, 3, 2, 1, 2) == 4
    assert _furstenberg_scaled(4, 5, 3, 2, 2) == 6


# -- the piece label against the oracle's dispatch conditions --


def test_piece_ties_go_to_the_earlier_term():
    """On the 1/12 grid for n <= 6, every point of a tie line takes the
    earlier term: tau = sigma the tau piece, tau = 2 - sigma the mean, t =
    k(n-k) at s = 0 and 2gamma = beta + 1 or beta the zero pieces.  The
    twelfth-grid test above compares these labels with the oracle's."""
    ties = {}

    def tie(line, got, want):
        assert got == want, line
        ties[line] = ties.get(line, 0) + 1

    for n, k in PAIRS_UP_TO_6:
        for si, ti in itertools.product(range(12 * k + 1), range(12 * (k + 1) * (n - k) + 1)):
            s, t = F(si, 12), F(ti, 12)
            pr = furstenberg_params(s, t, n, k)
            if s == 0 and t == k * (n - k):
                tie("t = k(n-k)", pr.piece, "a-zero")
            elif pr.case == "c" and pr.tau == pr.sigma:
                tie("tau = sigma", pr.piece, "c-tau")
            elif pr.case == "c" and pr.tau == 2 - pr.sigma:
                tie("tau = 2 - sigma", pr.piece, "c-mean")
        for ai, si in itertools.product(range(1, 12 * n + 1), range(1, 12 * (k + 1) + 1)):
            pr = marstrand_params(F(ai, 12), F(si, 12), n, k)
            if pr.mtype == 2 and 2 * pr.gamma == pr.beta + 1:
                tie("2gamma = beta + 1", pr.piece, "2-zero")
            elif pr.mtype == 3 and 2 * pr.gamma == pr.beta:
                tie("2gamma = beta", pr.piece, "3-zero")
    assert ties == {
        "t = k(n-k)": 15, "tau = sigma": 840, "tau = 2 - sigma": 770,
        "2gamma = beta + 1": 350, "2gamma = beta": 420,
    }


def test_rectangle_pieces_are_the_oberlin_domain_in_2d():
    # (a, s; 2, 1) is on an excess piece of M exactly where a/2 < s <= min(1, a)
    grid = [F(j, 24) for j in range(1, 49)]
    for a, s in itertools.product(grid, grid):
        piece = marstrand_params(a, s, 2, 1).piece
        assert (piece in ("2-excess", "3-excess")) == (a / 2 < s <= min(F(1), a)), (a, s)


@pytest.mark.parametrize(
    "args,piece,case",
    [((0, 1, 2, 1), "a-zero", "a"), ((0, F(3, 2), 2, 1), "a-excess", "a"),
     ((F(3, 2), 1, 4, 3), "b", "b"), ((F(1, 2), F(1, 2), 2, 1), "c-tau", "c"),
     ((F(1, 2), 1, 2, 1), "c-mean", "c"), ((1, F(3, 2), 2, 1), "c-one", "c"),
     ((2, F(5, 2), 3, 2), "d", "d")],
)
def test_furstenberg_params_expose_the_piece_and_its_case(args, piece, case):
    pr = furstenberg_params(*args)
    assert (pr.piece, pr.case) == (piece, case)


@pytest.mark.parametrize(
    "args,piece,mtype",
    [((F(1, 2), 2, 3, 2), "1", 1), ((F(5, 2), F(7, 4), 4, 2), "2-zero", 2),
     ((F(5, 2), F(15, 8), 4, 2), "2-excess", 2), ((F(3, 2), F(5, 4), 4, 2), "3-zero", 3),
     ((F(3, 2), F(3, 2), 4, 2), "3-excess", 3), ((3, 1, 3, 1), "4", 4)],
)
def test_marstrand_params_expose_the_piece_and_its_type(args, piece, mtype):
    pr = marstrand_params(*args)
    assert (pr.piece, pr.mtype) == (piece, mtype)
