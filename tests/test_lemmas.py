import hashlib
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

import index_oracle
import lattice_oracle
from fpfurst import lemmas
from fpfurst.indices import (
    NEG_INF,
    _furstenberg_scaled,
    _marstrand_scaled,
    _marstrand_piece,
    _split,
    furstenberg_index,
    marstrand_index,
)
from fpfurst.lemmas import (
    CounterexampleReport,
    GridSpec,
    check_index_properties,
    check_recursion_f1,
    check_recursion_f2,
    check_recursion_m,
    reports_to_csv,
)

F = Fraction
COARSE = GridSpec(F(1, 2))


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(F(2, 3))
    with pytest.raises(ValueError):
        GridSpec(F(0))


def test_gridspec_values_endpoints():
    g = GridSpec(F(1, 4))
    assert g.values(0, 1) == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    assert g.values(0, 1, include_lo=False)[0] == F(1, 4)
    assert g.values(0, 1, include_hi=False)[-1] == F(3, 4)
    assert g.values(F(1, 2), F(1, 2)) == [F(1, 2)]


def test_recursion_f1_clean_and_control():
    assert check_recursion_f1(2, COARSE) == []
    broken = check_recursion_f1(2, COARSE, slack=F(1, 10))
    assert broken, "negative control must produce counterexamples"
    # checker soundness: re-derive both sides of a reported witness
    r = broken[0]
    w = r.witness_dict()
    lhs = w["u"] + max(
        furstenberg_index(w["s2"], w["t1"] + w["v"], 2, 1), w["s2"] + w["v"]
    )
    assert lhs == r.lhs
    assert furstenberg_index(w["s"], w["t"], 3, 2) + F(1, 10) == r.rhs
    assert r.deficit == r.rhs - r.lhs > 0


def test_recursion_f1_derived_variable_consistency():
    # every reported witness of the control run satisfies the constraint block
    for r in check_recursion_f1(2, COARSE, slack=F(1, 10)):
        w = r.witness_dict()
        assert w["t1"] + w["t2"] == w["t"]
        assert w["s1"] + w["s2"] == w["s"]
        assert w["u"] + w["v"] == furstenberg_index(w["s1"], w["t2"], 2, 1)
        assert w["s1"] <= w["u"] <= 1 and 0 <= w["v"] <= 1


def test_recursion_f2_clean_and_control():
    assert check_recursion_f2(4, 2, COARSE) == []
    assert check_recursion_f2(4, 2, COARSE, slack=F(1, 10))


def test_recursion_m_clean_and_control():
    assert check_recursion_m(4, 2, COARSE) == []
    broken = check_recursion_m(4, 2, COARSE, slack=F(1, 10))
    assert broken
    r = broken[0]
    w = r.witness_dict()
    lhs = marstrand_index(w["a1"], w["s1"], 3, 2) + marstrand_index(
        w["s1"] + w["a"] - w["a1"], w["s"], 3, 2
    )
    assert lhs == r.lhs and r.deficit > 0


def test_recursion_preconditions():
    with pytest.raises(ValueError):
        check_recursion_f1(1, COARSE)
    with pytest.raises(ValueError):
        check_recursion_f2(3, 2, COARSE)
    with pytest.raises(ValueError):
        check_recursion_m(3, 2, COARSE)


@pytest.mark.parametrize("k", [0, -1])
def test_checkers_refuse_a_pair_with_no_index(k):
    # no index is defined at k < 1, where n >= k + 2 does hold
    with pytest.raises(ValueError, match=rf"bad dimension pair \({k + 1},{k}\)"):
        check_recursion_f1(k, COARSE)
    for checker in (check_recursion_f2, check_recursion_m, check_index_properties):
        with pytest.raises(ValueError, match=rf"bad dimension pair \(4,{k}\)"):
            checker(4, k, COARSE)
    with pytest.raises(ValueError, match=r"bad dimension pair \(2,2\)"):
        check_index_properties(2, 2, COARSE)


def _properties(pairs, grid):
    """The property reports of each (n, k) of `pairs` on `grid`, in order."""
    return [r for n, k in pairs for r in check_index_properties(n, k, grid)]


def test_properties_clean_on_fine_grid():
    assert _properties(((2, 1), (3, 2)), GridSpec(F(1, 6))) == []


def test_properties_closed_form_grid():
    assert check_index_properties(2, 1, GridSpec(F(1, 12))) == []


# Negative controls: lattice evaluators (x, y, n, k, D) -> int | NEG_INF, the
# numerator at scale D of a falsified index, patched over the checker's own.

def _m_unclamped_type3(x, y, n, k, D):
    """M with the max{., 0} clamp of the type-3 formula dropped."""
    piece, m, beta, l, gamma = _marstrand_piece(x, y, n, k, D)
    if piece[0] == "3":
        return (k * (n - k) - (m + 1 - l) * (k - l)) * D + (2 * gamma - beta)
    return _marstrand_scaled(x, y, n, k, D)


def _break(monkeypatch, **patches):
    for name, value in patches.items():
        monkeypatch.setattr(f"fpfurst.lemmas.{name}", value)


def test_properties_negative_control_broken_type3(monkeypatch):
    _break(monkeypatch, _marstrand_scaled=_m_unclamped_type3)
    reports = check_index_properties(3, 2, GridSpec(F(1, 6)))
    assert reports
    assert {r.lemma for r in reports} & {"easym_lower", "m_diagonal", "closed_form_m21"}


def test_properties_negative_control_broken_furstenberg(monkeypatch):
    def broken_f(x, y, n, k, D):
        val = _furstenberg_scaled(x, y, n, k, D)
        return val - D // 2 if x == D else val

    _break(monkeypatch, _furstenberg_scaled=broken_f)
    reports = check_index_properties(2, 1, GridSpec(F(1, 6)))
    lemmas = {r.lemma for r in reports}
    assert "closed_form_f21" in lemmas and "easybound" in lemmas


def _m_plus_one(x, y, n, k, D):
    return _marstrand_scaled(x, y, n, k, D) + D


# NEG_INF has no __sub__, so a shift of M is written as an addition
def _m_minus_one(x, y, n, k, D):
    return _marstrand_scaled(x, y, n, k, D) + (-D)


def _m_minus_a(x, y, n, k, D):
    return _marstrand_scaled(x, y, n, k, D) + (-x)


def _f_minus_one(x, y, n, k, D):
    return _furstenberg_scaled(x, y, n, k, D) - D


def _f_doubled(x, y, n, k, D):
    return 2 * _furstenberg_scaled(x, y, n, k, D)


# one break per property family; type_partition breaks the classifier instead
PROPERTY_BREAKS = {
    "easybound": {"_furstenberg_scaled": _f_minus_one},
    "t_lipschitz": {"_furstenberg_scaled": _f_doubled},
    "left_lipschitz": {"_LIPSCHITZ": 0},
    "m_diagonal": {"_marstrand_scaled": _m_minus_a},
    "easym_upper": {"_marstrand_scaled": _m_plus_one},
    "easym_lower": {"_marstrand_scaled": _m_minus_one},
    "closed_form_f21": {"_furstenberg_scaled": _f_minus_one},
    "closed_form_m21": {"_marstrand_scaled": _m_plus_one},
    "type_partition": {"_marstrand_piece": lambda a, s, n, k, D: ("1",) * 5},
}


@pytest.mark.parametrize("family", list(PROPERTY_BREAKS))
def test_properties_negative_control_each_family(family, monkeypatch):
    _break(monkeypatch, **PROPERTY_BREAKS[family])
    reports = check_index_properties(2, 1, GridSpec(F(1, 4)))
    assert family in {r.lemma for r in reports}


# sha256 of repr([(lemma, witness, lhs, rhs, deficit), ...]) for each break on
# the GOLDEN_PAIRS at GOLDEN_STEP, pair after pair, with the report count; the
# digests were taken from the Fraction sweep that the lattice property checker
# replaced.
GOLDEN_PAIRS, GOLDEN_STEP = ((2, 1), (3, 2), (4, 2)), GridSpec(F(1, 3))
GOLDEN = {
    "clean": ({}, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "2F": ({"_furstenberg_scaled": _f_doubled}, 335,
           "07b070576c435159ce3cd965f350e04e86b1b106c0277568ed1cf25755ab54fe"),
    "C=1/3": ({"_LIPSCHITZ": F(1, 3)}, 195,
              "ac829a194e3ddb994d18d3e2e872732783f01440f10a458f254454f47eeacc3e"),
    "M-a": ({"_marstrand_scaled": _m_minus_a}, 394,
            "f6c1b316f57a80f5d742667c9f138de1020423551eafade151df76bfa1abf048"),
    "M+1": ({"_marstrand_scaled": _m_plus_one}, 67,
            "919a703b081e2b74e9c9c39178c08536dba7068d547e5c2e43e66eda01d165de"),
    "M-1": ({"_marstrand_scaled": _m_minus_one}, 84,
            "26862eea2b7e59403b9f731d358cac51681b0d4f686db9c95bdb570e7b6aef36"),
    "F-1": ({"_furstenberg_scaled": _f_minus_one}, 190,
            "2e6cae569540bec1070ddc944f12306267e8b4c8c91f7d459dd2b6a143f02347"),
    "type3": ({"_marstrand_scaled": _m_unclamped_type3}, 8,
              "ded4a992e4dd6e7117bc7e2118224930635ecd20734a5f86d0ed62dcf1b5aeed"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_properties_reports_match_golden_digests(name, monkeypatch):
    patches, count, digest = GOLDEN[name]
    _break(monkeypatch, **patches)
    reports = _properties(GOLDEN_PAIRS, GOLDEN_STEP)
    text = repr([(r.lemma, r.witness, r.lhs, r.rhs, r.deficit) for r in reports])
    assert len(reports) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


FRACTION_API = ("canonical_split", "furstenberg_params", "furstenberg_index",
                "marstrand_params", "classify_marstrand_type", "marstrand_index")


def test_built_in_checkers_make_no_fraction_api_call(monkeypatch):
    def checks():
        clean = _properties(((2, 1), (3, 2)), GridSpec(F(1, 6)))
        with monkeypatch.context() as m:
            m.setattr("fpfurst.lemmas._LIPSCHITZ", F(1, 3))
            lipschitz_third = check_index_properties(3, 2, GridSpec(F(1, 3)))
        return [
            check_recursion_f1(2, COARSE, slack=F(1, 10)),
            check_recursion_f2(4, 2, COARSE, slack=F(1, 10)),
            check_recursion_m(4, 2, COARSE, slack=F(1, 10)),
            clean,
            lipschitz_third,
        ]

    expected = checks()
    assert all(expected[:3]) and expected[3] == [] and expected[4]

    def refuse(*args):
        raise AssertionError("a built-in lattice check called the Fraction API")

    for module in ("fpfurst.indices", "fpfurst.lemmas"):
        for name in FRACTION_API:
            monkeypatch.setattr(f"{module}.{name}", refuse, raising=False)
    assert checks() == expected


@pytest.mark.parametrize("D", [1, 2, 6, 8])
def test_split_is_canonical_split_on_the_lattice(D):
    for x in range(1, 5 * D + 1):
        d, sigma = index_oracle.canonical_split(F(x, D))
        assert _split(x, D) == (d, sigma * D)


def test_determinism_identical_reports():
    a = check_recursion_f1(2, GridSpec(F(1, 3)), slack=F(1, 10))
    b = check_recursion_f1(2, GridSpec(F(1, 3)), slack=F(1, 10))
    assert a == b


def test_reports_to_csv_shape():
    reports = check_recursion_m(4, 2, COARSE, slack=F(1, 10))
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "lemma" and header[-3:] == ["lhs", "rhs", "deficit"]
    assert len(lines) == len(reports) + 1
    assert reports_to_csv(reports) == text  # stable
    assert reports_to_csv([]) == "lemma,lhs,rhs,deficit\n"


# -- Fraction oracle: the literal recursion inequalities over the same grid --

_F = lru_cache(maxsize=None)(furstenberg_index)
_M = lru_cache(maxsize=None)(marstrand_index)


def _grid(q, lo, hi):
    """The points j/q of [lo, hi]."""
    return [F(j, q) for j in range(math.ceil(lo * q), math.floor(hi * q) + 1)]


def _oracle_f1(k, q):
    """(witness, lhs, F(s, t; k+1, k)) for every admissible witness, in order."""
    rows = []
    for s, t in product(_grid(q, 0, k), _grid(q, 0, k + 1)):
        base = _F(s, t, k + 1, k)
        for t1, s1 in product(_grid(q, 0, k - 1), _grid(q, 0, min(1, s))):
            t2, s2 = t - t1, s - s1
            if not (0 <= t2 <= 2 and s2 <= k - 1):
                continue
            for u in _grid(q, s1, 1):
                v = _F(s1, t2, 2, 1) - u
                if 0 <= v <= 1:
                    lhs = u + max(_F(s2, t1 + v, k, k - 1), s2 + v)
                    witness = (("k", F(k)), ("s", s), ("t", t), ("t1", t1), ("t2", t2),
                               ("s1", s1), ("s2", s2), ("u", u), ("v", v))
                    rows.append((witness, lhs, base))
    return rows


def _oracle_f2(n, k, q):
    rows = []
    for s, t in product(_grid(q, 0, k), _grid(q, 0, (k + 1) * (n - k))):
        base = _F(s, t, n, k)
        for t1, s1 in product(_grid(q, 0, (k + 1) * (n - k - 1)), _grid(q, s, k)):
            t2 = t - t1
            if 0 <= t2 <= k + 1:
                lhs = _F(s1, t1, n - 1, k) + max(_F(s, t2, k + 1, k) - s1, 0)
                witness = (("n", F(n)), ("k", F(k)), ("s", s), ("t", t), ("t1", t1),
                           ("t2", t2), ("s1", s1))
                rows.append((witness, lhs, base))
    return rows


def _oracle_m(n, k, q):
    rows = []
    for a, s in product(_grid(q, 0, n), _grid(q, 0, k)):
        if not (0 < a and max(0, a - (n - k)) < s <= min(a, k)):
            continue
        base = _M(a, s, n, k)
        for a1, s1 in product(_grid(q, max(0, a - 1), min(n - 1, a)), _grid(q, 0, s)):
            if a1 > 0 and s1 > 0:
                lhs = _M(a1, s1, n - 1, k) + _M(s1 + a - a1, s, k + 1, k)
                if lhs is not NEG_INF:
                    witness = (("n", F(n)), ("k", F(k)), ("a", a), ("s", s), ("a1", a1),
                               ("s1", s1))
                    rows.append((witness, lhs, base))
    return rows


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "lemma, dims",
    [("recursion_f1", (2,)), ("recursion_f1", (3,))]
    + [(lemma, pair) for lemma in ("recursion_f2", "recursion_m")
       for pair in ((4, 2), (5, 3), (4, 1))],
)
def test_lattice_checkers_equal_fraction_oracle(lemma, dims, q):
    checker, oracle = {
        "recursion_f1": (check_recursion_f1, _oracle_f1),
        "recursion_f2": (check_recursion_f2, _oracle_f2),
        "recursion_m": (check_recursion_m, _oracle_m),
    }[lemma]
    rows = oracle(*dims, q)
    assert rows
    for slack in (F(0), F(1, 10), F(1, 7)):  # 1/7 does not divide the grid
        if lemma == "recursion_m":  # lhs <= M(a, s; n, k) - slack
            expected = [CounterexampleReport(lemma, w, lhs, base - slack, lhs - base + slack)
                        for w, lhs, base in rows if lhs > base - slack]
        else:  # lhs >= F(...) + slack
            expected = [CounterexampleReport(lemma, w, lhs, base + slack, base + slack - lhs)
                        for w, lhs, base in rows if lhs < base + slack]
        got = checker(*dims, GridSpec(F(1, q)), slack=slack)
        assert got == expected
        assert bool(got) == (slack > 0)


def test_properties_report_an_injected_neg_inf(monkeypatch):
    # M = -inf everywhere: easym_lower sees val < lower with val = -inf, whose
    # deficit is one whole unit rather than |rhs - lhs|
    _break(monkeypatch, _marstrand_scaled=lambda x, y, n, k, D: NEG_INF)
    reports = check_index_properties(2, 1, GridSpec(F(1, 2)))
    lemmas = {r.lemma for r in reports}
    assert "easym_lower" in lemmas
    for r in reports:
        if r.lemma == "easym_lower":
            assert r.lhs is NEG_INF and r.deficit == 1


def test_properties_report_m_diagonal_from_a_neg_inf_base(monkeypatch):
    # M(1, 1; 2, 1) = 1 replaced by -inf: M(1/2, 1/2) is finite and larger
    def holed(x, y, n, k, D):
        return NEG_INF if (x, y, n, k) == (D, D, 2, 1) else _marstrand_scaled(x, y, n, k, D)

    _break(monkeypatch, _marstrand_scaled=holed)
    reports = check_index_properties(2, 1, GridSpec(F(1, 2)))
    diagonal = [r for r in reports if r.lemma == "m_diagonal"]
    assert diagonal == [CounterexampleReport(
        "m_diagonal",
        (("n", F(2)), ("k", F(1)), ("a", F(1)), ("s", F(1)), ("theta", F(1, 2))),
        marstrand_index(F(1, 2), F(1, 2), 2, 1), NEG_INF, F(1),
    )]


# -- tightness: at slack = one unit 1/D of a checker's lattice, a point is
# reported exactly when some witness attains the index --

TIGHT_GRID = GridSpec(F(1, 6))


@pytest.mark.parametrize(
    "checker, dims, unit, outer",
    [
        # recursion_f1 works at scale 4q = 24, recursion_f2 at 2q = 12
        (check_recursion_f1, (2,), F(1, 24), 247),
        (check_recursion_f1, (3,), F(1, 24), 475),
        (check_recursion_f2, (4, 2), F(1, 12), 481),
        (check_recursion_f2, (5, 3), F(1, 12), 931),
        (check_recursion_f2, (4, 1), F(1, 12), 259),
        (check_recursion_f2, (5, 2), F(1, 12), 715),
    ],
    ids=["f1-2", "f1-3", "f2-42", "f2-53", "f2-41", "f2-52"],
)
def test_f_recursions_are_equalities(checker, dims, unit, outer):
    """min over witnesses of the left side equals F at every outer point: each
    point has a reported witness (gap < unit, so gap 0), and every reported
    witness has deficit exactly unit (no left side below F)."""
    reports = checker(*dims, TIGHT_GRID, slack=unit)
    points = {(r.witness_dict()["s"], r.witness_dict()["t"]) for r in reports}
    k = dims[-1]
    n = dims[0] if len(dims) == 2 else k + 1
    grid = set(product(_grid(6, 0, k), _grid(6, 0, (k + 1) * (n - k))))
    assert len(grid) == outer
    assert points == grid
    assert {r.deficit for r in reports} == {unit}


# sha256 of repr(sorted reported (a, s)) at slack 1/6, the lattice unit of
# recursion_m at step 1/6: the points where some witness attains M
M_TIGHT = {
    (4, 2): (52, 144, "aa2571d11851f1fd36d2067f8ee3a2230dadf074fcc834fae73f2806a4594024"),
    (4, 1): (43, 108, "5d149deb3a89b7dd543a8a64e2c596fc5e6d70207e30c771029e8492f50896b0"),
}


@pytest.mark.parametrize("dims", list(M_TIGHT))
def test_recursion_m_tight_set_is_pinned(dims):
    """The M recursion is not tight on the lattice, so the assertion that makes
    the F recursions equalities fails here: only part of the outer grid has a
    witness attaining M."""
    tight, outer, digest = M_TIGHT[dims]
    n, k = dims
    reports = check_recursion_m(n, k, TIGHT_GRID, slack=F(1, 6))
    points = sorted({(r.witness_dict()["a"], r.witness_dict()["s"]) for r in reports})
    grid = [(a, s) for a, s in product(_grid(6, 0, n), _grid(6, 0, k))
            if 0 < a and max(0, a - (n - k)) < s <= min(a, k)]
    assert len(grid) == outer
    assert len(points) == tight < outer
    assert {r.deficit for r in reports} == {F(1, 6)}
    assert hashlib.sha256(repr(points).encode()).hexdigest() == digest


# -- bound-first sweeps: the checkers skip an inner sweep where a lower bound
# on its left side reaches the target, and report exactly the exhaustive
# sweep's witnesses (tests/lattice_oracle.py), whatever the evaluator --

def _f_bumped(q):
    """F plus one whole unit at odd indices of the s-lattice of step 1/q: not
    monotone in s, and recursion_f1 fails for it at slack 0."""
    def bumped(x, y, n, k, D):
        return _furstenberg_scaled(x, y, n, k, D) + (D if x * q // D % 2 else 0)
    return bumped


def _f_minus_2s(x, y, n, k, D):
    """F minus twice its s: not increasing in s, so the least left side of a
    recursion_f2 sweep is attained at its far end, s1 = k."""
    return _furstenberg_scaled(x, y, n, k, D) - 2 * x


EVALUATORS = {
    "F": lambda q: _furstenberg_scaled,
    "F-1": lambda q: _f_minus_one,
    "2F": lambda q: _f_doubled,
    "F+odd": _f_bumped,
    "F-2s": lambda q: _f_minus_2s,
}
F_RECURSIONS = [
    (check_recursion_f1, lattice_oracle.check_recursion_f1, (2,), 4),
    (check_recursion_f1, lattice_oracle.check_recursion_f1, (3,), 4),
] + [(check_recursion_f2, lattice_oracle.check_recursion_f2, pair, 2)
     for pair in ((4, 2), (5, 3), (4, 1), (5, 2))]
F_RECURSION_IDS = ["f1-2", "f1-3", "f2-42", "f2-53", "f2-41", "f2-52"]


@pytest.mark.parametrize("evaluator", list(EVALUATORS))
@pytest.mark.parametrize("q", [2, 3, 6])
@pytest.mark.parametrize("checker, oracle, dims, c", F_RECURSIONS, ids=F_RECURSION_IDS)
def test_f_recursions_equal_exhaustive_lattice_sweep(checker, oracle, dims, c, q, evaluator,
                                                     monkeypatch):
    """Both sweeps make the same `report` calls, in the same order, so their
    reports are equal; the calls are kept as raw lattice tuples, which spares
    the Fraction conversion of tens of thousands of reports at q = 6."""
    frame = lemmas._frame

    def raw_frame(*args):
        *head, out, _ = frame(*args)
        return (*head, out, lambda *call, **witness: out.append((call, witness)))

    monkeypatch.setattr("fpfurst.lemmas._frame", raw_frame)
    monkeypatch.setattr("fpfurst.lemmas._furstenberg_scaled", EVALUATORS[evaluator](q))
    grid = GridSpec(F(1, q))
    for slack in (F(0), F(1, c * q), F(1, 7), F(1, 2)):  # 1/(cq) is one lattice unit
        expected = oracle(*dims, grid, slack=slack)
        assert checker(*dims, grid, slack=slack) == expected
        if slack > 0:
            assert expected  # every positive slack drives the report path
        elif evaluator == "F":
            assert not expected  # the recursions hold for F itself


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("checker, oracle, dims, c", F_RECURSIONS, ids=F_RECURSION_IDS)
def test_f_recursions_evaluate_only_exhaustive_sweep_points(checker, oracle, dims, c, q,
                                                            monkeypatch):
    """Every point the bound-first checker hands the evaluator, the exhaustive
    sweep hands it too: no new input, so no new off-lattice ValueError."""
    def recording(seen):
        def evaluator(x, y, n, k, D):
            seen.add((x, y, n, k, D))
            return _furstenberg_scaled(x, y, n, k, D)
        return evaluator

    grid = GridSpec(F(1, q))
    for slack in (F(0), F(1, c * q)):
        seen, full = set(), set()
        monkeypatch.setattr("fpfurst.lemmas._furstenberg_scaled", recording(seen))
        checker(*dims, grid, slack=slack)
        monkeypatch.setattr("fpfurst.lemmas._furstenberg_scaled", recording(full))
        oracle(*dims, grid, slack=slack)
        assert seen and seen <= full
