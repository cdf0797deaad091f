"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is decided in exact arithmetic at desk scale: enumerations are
compared to closed-form counts, piecewise index values to independent closed
forms, grid inequalities to exhaustive witness sweeps, and every construction
to its size bounds with fixed constants (upper C = 16, lower c as stated per
criterion).  Stated runtime limits are asserted.
"""

import itertools
import time
from fractions import Fraction

import pytest

from fpfurst.cli import parse_config, run
from fpfurst.exceptional import (
    certify_lower_bound,
    construct_marstrand_witness,
)
from fpfurst.flags import (
    LinearSubspace,
    enumerate_affine,
    enumerate_linear,
    gaussian_binomial,
    small_projection_count,
)
from fpfurst.furstenberg import (
    construct_general,
    lower_bound_sanity,
    meets_upper_bound,
    verify_family,
)
from fpfurst.indices import (
    NEG_INF,
    ceil_rational_power,
    ceil_scaled_power,
    furstenberg_index,
    marstrand_index,
)
from fpfurst.lemmas import (
    GridSpec,
    check_index_properties,
    check_recursion_f1,
    check_recursion_f2,
    check_recursion_m,
)
from fpfurst.projections import count_small_projection_subspaces
from projection_oracle import projection_count
from subspace_counts import type3_direction_families

F = Fraction

TWO_D_CASES = [(F(1, 2), F(1)), (F(1, 2), F(3, 2)), (F(1), F(2)), (F(0), F(3, 2))]
TWO_D_PRIMES = (29, 61, 101)
GENERAL_CASES = [(F(1), F(3), 3, 1), (F(3, 2), F(1), 4, 3), (F(2), F(3), 3, 2)]
GENERAL_PRIMES = (7, 11, 13)


def _finish(num: int, label: str, ok: bool, t0: float, limit: float):
    elapsed = time.monotonic() - t0
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num} {label}: {verdict} ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def families():
    built = {}
    for (s, t), p in itertools.product(TWO_D_CASES, TWO_D_PRIMES):
        built[(s, t, 2, 1, p)] = construct_general(s, t, 2, 1, p)
    for (s, t, n, k), p in itertools.product(GENERAL_CASES, GENERAL_PRIMES):
        built[(s, t, n, k, p)] = construct_general(s, t, n, k, p)
    return built


def test_criterion_01_enumeration_matches_formulas():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        for n in range(1, 5):
            for k in range(n + 1):
                grass = gaussian_binomial(n, k, p)
                ok &= sum(1 for _ in enumerate_linear(n, k, p)) == grass
                ok &= sum(1 for _ in enumerate_affine(n, k, p)) == p ** (n - k) * grass
    _finish(1, "enumeration vs formula", ok, t0, 10)


def test_criterion_02_small_projection_counts():
    t0 = time.monotonic()
    ok = True
    checked = 0
    for p in (2, 3, 5):
        for n in range(2, 5):
            for k in range(1, n + 1):
                for m in range(1, n + 1):
                    for l in range(0, min(k, m) + 1):
                        if n - k < m - l:
                            continue
                        W = LinearSubspace.coordinate(range(m), n, p)
                        got = count_small_projection_subspaces(W, k, l)
                        expected = p ** (k * (n - k) - (k - l) * (m - l))
                        ok &= got <= 4 * expected and expected <= 4 * got
                        ok &= got == small_projection_count(n, k, m, l, p)
                        checked += 1
    assert checked > 60
    _finish(2, f"small-projection counts ({checked} instances)", ok, t0, 60)


def test_criterion_03_two_dimensional_closed_forms():
    t0 = time.monotonic()
    ok = True
    for si in range(1, 13):
        for ti in range(25):
            s, t = F(si, 12), F(ti, 12)
            ok &= furstenberg_index(s, t, 2, 1) == min(s + t, 3 * s / 2 + t / 2, s + 1)
    for ai in range(1, 25):
        for si in range(1, 25):
            a, s = F(ai, 12), F(si, 12)
            got = marstrand_index(a, s, 2, 1)
            if s > min(a, F(1)):
                ok &= got == 1
            elif s > a - 1:
                ok &= got == max(F(0), 2 * s - a)
            else:
                ok &= got is NEG_INF
    _finish(3, "2-D closed forms, step 1/12", ok, t0, 10)


def test_criterion_04_index_property_suite():
    t0 = time.monotonic()
    grid = GridSpec(F(1, 6))
    pairs = ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3))
    reports = [r for n, k in pairs for r in check_index_properties(n, k, grid)]
    _finish(4, "index property suite, step 1/6", reports == [], t0, 120)


def test_criterion_05_recursion_inequalities():
    t0 = time.monotonic()
    grid = GridSpec(F(1, 6))
    slack = F(1, 10)
    ok = True
    for k in (2, 3):
        ok &= check_recursion_f1(k, grid) == []
        ok &= len(check_recursion_f1(k, grid, slack=slack)) > 0
    for n, k in ((4, 2), (5, 3)):
        ok &= check_recursion_f2(n, k, grid) == []
        ok &= len(check_recursion_f2(n, k, grid, slack=slack)) > 0
        ok &= check_recursion_m(n, k, grid) == []
        ok &= len(check_recursion_m(n, k, grid, slack=slack)) > 0
    _finish(5, "recursion inequalities + negative controls", ok, t0, 600)


def test_criterion_06_construction_validity_and_upper_bound(families):
    t0 = time.monotonic()
    ok = True
    for fam in families.values():
        validity = verify_family(fam)
        ok &= validity.is_valid
        ok &= fam.lam == F(1, 2)
        ok &= meets_upper_bound(fam, 16)
    _finish(6, f"constructions valid + C=16 bound ({len(families)} families)", ok, t0, 300)


def test_criterion_07_lower_bound_sanity(families):
    t0 = time.monotonic()
    ok = all(lower_bound_sanity(fam) for fam in families.values())
    _finish(7, "lower-bound sanity on every family", ok, t0, 300)


def test_criterion_08_oberlin_witnesses():
    t0 = time.monotonic()
    ok = True
    for p in (41, 101):
        for a, s in ((F(3, 2), F(1)), (F(1), F(3, 4))):
            w = construct_marstrand_witness(a, s, 2, 1, p)
            ok &= len(w.set_a) >= ceil_scaled_power(F(1, 25), p, a)
            ok &= w.certified_count >= ceil_scaled_power(F(1, 5), p, 2 * s - a)
            ok &= len(w.claimed) >= 1
            for V in w.claimed:
                ok &= projection_count(w.set_a, V) < ceil_rational_power(p, s)
    _finish(8, "rectangle witnesses at p in {41, 101}", ok, t0, 30)


def test_criterion_09_higher_dimensional_witnesses():
    t0 = time.monotonic()
    ok = True

    w2 = construct_marstrand_witness(F(5, 2), F(7, 4), 4, 2, 5)
    ok &= w2.mtype == 2
    for V in w2.claimed:
        ok &= projection_count(w2.set_a, V) < ceil_rational_power(5, F(7, 4))
    ok &= certify_lower_bound(w2, F(1, 25))

    for p in (5, 7):
        for s in (F(3, 2), F(5, 4)):  # gamma = 1/2 (rectangle) and 1/4 (enlarged)
            w3 = construct_marstrand_witness(F(3, 2), s, 4, 2, p)
            ok &= w3.mtype == 3
            for V in w3.claimed:
                ok &= projection_count(w3.set_a, V) < ceil_rational_power(p, s)
            ok &= certify_lower_bound(w3, F(1, 25))
        fams = type3_direction_families(F(3, 2), F(3, 2), 4, 2, p)
        keys = [frozenset(V.entries for V in vs) for vs in fams.values()]
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                ok &= not (keys[i] & keys[j])

    w4 = construct_marstrand_witness(F(3), F(1), 3, 1, 7)
    ok &= w4.certified_count == 0

    _finish(9, "higher-dimensional witnesses (types 1-4 machinery)", ok, t0, 300)


def test_criterion_10_byte_identical_reruns():
    t0 = time.monotonic()
    configs = [
        '{"command":"construct","s":"1/2","t":"1","n":2,"k":1,"p":[29,61,101]}',
        '{"command":"lemmas","lemma":"recursion_m","pairs":[[4,2]],"step":"1/4"}',
        '{"command":"exceptional","a":"3/2","s":"1","n":2,"k":1,"p":41}',
        '{"command":"count","n":3,"k":[1,2],"p":[2,3]}',
        '{"command":"index","s":["1/2","1"],"t":["1","2"],"n":2,"k":1}',
    ]
    ok = True
    for text in configs:
        cfg = parse_config(text)
        first, second = run(cfg), run(cfg)
        ok &= first.to_csv() == second.to_csv()
        if cfg.command == "lemmas":
            ok &= first.counterexample_csv == second.counterexample_csv
    _finish(10, "byte-identical CSV across reruns", ok, t0, 120)
