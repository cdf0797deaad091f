import dataclasses
import gc
import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from fpfurst.flags import (
    AffineFlat,
    LinearSubspace,
    enumerate_affine,
    enumerate_linear,
    gaussian_binomial,
    join_rows,
    reduce_mod_subspace,
)
from fpfurst.primefield import PrimeMatrix
from rank_oracle import matrix, rref


@pytest.mark.parametrize(
    "n,k,p,expected",
    [(2, 1, 3, 4), (4, 2, 2, 35), (4, 4, 7, 1), (3, 0, 5, 1), (3, 2, 3, 13)],
)
def test_gaussian_binomial_values(n, k, p, expected):
    assert gaussian_binomial(n, k, p) == expected


def test_gaussian_binomial_rejects_bad_k():
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 5)


def test_gaussian_binomial_crosschecked_by_enumeration():
    # (4,2,2) -> 35 from the product formula (15*7)/(3*1); recount directly
    assert gaussian_binomial(4, 2, 2) == (15 * 7) // 3
    assert sum(1 for _ in enumerate_linear(4, 2, 2)) == 35


@pytest.mark.parametrize(
    "n,k,p,count", [(2, 1, 2, 3), (3, 2, 3, 13), (4, 2, 5, 806)]
)
def test_enumerate_linear_counts(n, k, p, count):
    assert sum(1 for _ in enumerate_linear(n, k, p)) == count


@pytest.mark.parametrize("n,k,p,count", [(2, 1, 2, 6), (3, 1, 3, 117), (3, 3, 3, 1)])
def test_enumerate_affine_counts(n, k, p, count):
    assert sum(1 for _ in enumerate_affine(n, k, p)) == count


def test_enumerate_linear_order_is_pinned():
    # constructions rely on "the first N" being reproducible: pivot patterns
    # lexicographic, then free entries row-major
    got = [(s.pivots, s.basis.to_rows()) for s in enumerate_linear(2, 1, 3)]
    assert got == [
        ((0,), [[1, 0]]),
        ((0,), [[1, 1]]),
        ((0,), [[1, 2]]),
        ((1,), [[0, 1]]),
    ]
    first = [(s.pivots, s.basis.to_rows()) for s in enumerate_linear(3, 2, 2)][:3]
    assert first == [
        ((0, 1), [[1, 0, 0], [0, 1, 0]]),
        ((0, 1), [[1, 0, 0], [0, 1, 1]]),
        ((0, 1), [[1, 0, 1], [0, 1, 0]]),
    ]


ORACLE_CASES = [(n, k, p) for p in (2, 3) for n in range(1, 4) for k in range(n + 1)]
ORACLE_CASES += [(4, 2, 2), (4, 2, 3), (4, 3, 2)]


@pytest.mark.parametrize("n,k,p", ORACLE_CASES)
def test_enumeration_order_matches_rref_oracle(n, k, p):
    # The oracle spans every k-tuple of vectors through the tests' rref, not
    # through _kernel._reduce, and sorts the distinct RREF names.
    space = list(itertools.product(range(p), repeat=n))
    names = {rref(matrix(rows, p, n)) for rows in itertools.product(space, repeat=k)}
    oracle = sorted(
        (LinearSubspace(n, k, p, basis, pivots) for basis, pivots in names if len(pivots) == k),
        key=lambda V: (V.pivots, V.basis.entries),
    )
    assert list(enumerate_linear(n, k, p)) == oracle
    flats = [
        AffineFlat(V, b)
        for V in oracle
        for b in sorted({reduce_mod_subspace(x, V) for x in space})
    ]
    assert list(enumerate_affine(n, k, p)) == flats


@pytest.mark.parametrize("n,k,p", ORACLE_CASES + [(4, 2, 7), (3, 1, 5)])
def test_enumerated_values_are_valid(n, k, p):
    # The enumerators skip __post_init__; dataclasses.replace runs it again,
    # so each value must survive its own constructor unchanged.
    for V in enumerate_linear(n, k, p):
        W = dataclasses.replace(V, basis=dataclasses.replace(V.basis))
        assert W == V and hash(W) == hash(V)
    for flat in enumerate_affine(n, k, p):
        same = dataclasses.replace(flat)
        assert same == flat and hash(same) == hash(flat)


_RETAINED_BYTES = """
import itertools, tracemalloc
from fpfurst.flags import LinearSubspace, enumerate_linear
from fpfurst.primefield import PrimeMatrix

def constructed(n, k, p):
    # enumerate_linear's RREF bases, built through the validating constructors
    for pivots in itertools.combinations(range(n), k):
        choices = [
            (1,) if j == c else (0,) if j < c or j in pivots else range(p)
            for c in pivots
            for j in range(n)
        ]
        for entries in itertools.product(*choices):
            yield LinearSubspace(n, k, p, PrimeMatrix(p, k, n, entries), pivots)

def retained(build):
    build()  # the first build also fills the interpreter's caches
    tracemalloc.start()
    kept = build()
    size = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return size, len(kept)

print(*retained(lambda: list(constructed(4, 2, 7))), *retained(lambda: list(enumerate_linear(4, 2, 7))))
"""


def test_enumerated_subspaces_hold_no_more_memory_than_constructed_ones():
    # Filling an instance's __dict__ directly, rather than through
    # object.__setattr__, gives every retained subspace a dictionary of its
    # own (126 bytes each on CPython 3.11).  Once that has happened, later
    # instances of the class lose their compact layout too, so the
    # constructor path is measured first, in a fresh interpreter.  Either
    # total moves by a few dozen bytes between runs, so 1 KiB of slack is
    # allowed: under half a byte per subspace.
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _RETAINED_BYTES], env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    constructed, built, enumerated, yielded = map(int, proc.stdout.split())
    assert built == yielded == gaussian_binomial(4, 2, 7) == 2850
    assert enumerated <= constructed + 1024


def test_constructors_refuse_bad_input():
    # the enumerators rely on these checks staying on every public path
    V = LinearSubspace.from_rows([[1, 2, 0]], 3, 5)
    with pytest.raises(ValueError, match="vanish on pivot"):
        AffineFlat(V, (1, 0, 0))
    with pytest.raises(ValueError, match="base length"):
        AffineFlat(V, (0, 0))
    with pytest.raises(ValueError, match="shape mismatch"):
        LinearSubspace(3, 2, 5, V.basis, (0, 1))
    with pytest.raises(ValueError, match="shape mismatch"):
        LinearSubspace(4, 1, 5, V.basis, (0,))
    with pytest.raises(ValueError, match="pivot count"):
        LinearSubspace(3, 1, 5, V.basis, (0, 1))


_D = LinearSubspace.from_rows([[1, 0]], 2, 5)


@pytest.mark.parametrize(
    "build,error,message",
    [
        pytest.param(
            lambda: LinearSubspace(2, 1, 5, PrimeMatrix(5, 1, 2, (2, 0)), (0,)),
            ValueError, "not the RREF", id="pivot-entry-not-one",
        ),
        pytest.param(
            lambda: LinearSubspace(2, 1, 5, PrimeMatrix(5, 1, 2, (0, 1)), (0,)),
            ValueError, "not the RREF", id="zero-at-pivot",
        ),
        pytest.param(
            lambda: LinearSubspace(2, 2, 5, PrimeMatrix(5, 2, 2, (1, 3, 0, 1)), (0, 1)),
            ValueError, "not the RREF", id="entry-at-other-pivot",
        ),
        pytest.param(
            lambda: LinearSubspace(2, 2, 5, PrimeMatrix(5, 2, 2, (0, 1, 1, 0)), (1, 0)),
            ValueError, "not the RREF", id="pivots-out-of-order",
        ),
        pytest.param(lambda: AffineFlat(_D, (0, 7)), ValueError, "residues", id="base-above-p"),
        pytest.param(lambda: AffineFlat(_D, (0, -3)), ValueError, "residues", id="base-negative"),
        pytest.param(lambda: AffineFlat(_D, (0, 2.5)), TypeError, "ints", id="base-not-int"),
        pytest.param(
            lambda: AffineFlat.through((0, 2.5), _D), TypeError, "ints", id="through-not-int"
        ),
        pytest.param(
            lambda: reduce_mod_subspace((0, Fraction(5, 2)), _D), TypeError, "ints",
            id="reduce-not-int",
        ),
    ],
)
def test_constructors_accept_only_canonical_exact_values(build, error, message):
    # each of these named an object that from_rows and through never give;
    # the canonical forms stay accepted
    with pytest.raises(error, match=message):
        build()
    assert LinearSubspace(2, 1, 5, _D.basis, _D.pivots) == _D
    assert AffineFlat(_D, (0, 2)) == AffineFlat.through((5, 7), _D)


def _random_rows(rng, p, n):
    # 0 to 7 rows; some are combinations of earlier ones, entries may be
    # negative, and small entries give structured rows at large p too
    rows = []
    for _ in range(rng.randrange(8)):
        if rows and rng.random() < 0.3:
            coeffs = [rng.randrange(-p, p) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
        else:
            span = rng.choice([1, 2, p])
            rows.append([rng.randrange(-span, span + 1) for _ in range(n)])
    return rows


def test_from_rows_matches_rref_oracle():
    rng = random.Random(20240611)
    cases = 0
    for p in (2, 3, 5, 7, 101, 2**61 - 1):
        for n in range(1, 7):
            for rows in [[]] + [_random_rows(rng, p, n) for _ in range(80)]:
                V = LinearSubspace.from_rows(rows, n, p)
                reduced, pivots = rref(matrix(rows, p, n))
                assert V.pivots == pivots, (p, rows)
                assert V.basis.entries == reduced.entries[: len(pivots) * n], (p, rows)
                cases += 1
    assert cases == 6 * 6 * 81


@pytest.mark.parametrize(
    "rows,n,p,error,message",
    [
        ([[1, 2], [1]], 2, 5, ValueError, "ragged"),
        ([[1, 2, 3]], 2, 5, ValueError, "row length"),
        ([[1, 2.7]], 2, 5, TypeError, "ints"),
        ([[1, Fraction(7, 2)]], 2, 5, TypeError, "ints"),
        ([[1, "3"]], 2, 5, TypeError, "ints"),
        ([[3, 1]], 2, 9, ValueError, "is not prime"),
        ([], 2, 9, ValueError, "is not prime"),
    ],
)
def test_from_rows_refuses_bad_input(rows, n, p, error, message):
    with pytest.raises(error, match=message):
        LinearSubspace.from_rows(rows, n, p)


def test_enumerations_have_no_duplicates():
    for p in (2, 3):
        for n in range(1, 4):
            for k in range(n + 1):
                subs = list(enumerate_linear(n, k, p))
                assert len({(s.pivots, s.basis.entries) for s in subs}) == len(subs)
                flats = list(enumerate_affine(n, k, p))
                keys = {(f.direction.basis.entries, f.base) for f in flats}
                assert len(keys) == len(flats)


def test_point_flat_regularity():
    # every point lies in exactly gaussian_binomial(n,k,p) flats of A(k, F_p^n)
    for p in (2, 3):
        for n in range(1, 4):
            for k in range(n + 1):
                incidence = {}
                for flat in enumerate_affine(n, k, p):
                    for q in flat.points():
                        incidence[q] = incidence.get(q, 0) + 1
                expected = gaussian_binomial(n, k, p)
                assert set(incidence.values()) == {expected}
                assert len(incidence) == p**n


def test_subspace_membership_and_points():
    V = LinearSubspace.from_rows([[1, 2, 0], [0, 0, 1]], 3, 5)
    pts = V.points()
    assert len(pts) == 25 and len(set(pts)) == 25
    assert all(not any(reduce_mod_subspace(q, V)) for q in pts)
    assert any(reduce_mod_subspace((0, 1, 0), V))


@pytest.mark.parametrize("axis", [-1, 3])
def test_coordinate_rejects_axis_outside_range(axis):
    # -1 would index the last axis and n would overrun the row
    assert not any(reduce_mod_subspace((1, 0, 4), LinearSubspace.coordinate([0, 2], 3, 5)))
    with pytest.raises(ValueError, match="outside range"):
        LinearSubspace.coordinate([axis], 3, 5)


def test_canonical_flat_base():
    D = LinearSubspace.from_rows([[1, 1]], 2, 3)
    flat = AffineFlat.through((2, 0), D)
    assert flat.base == (0, 1)  # 2*(1,1) subtracted
    assert flat.contains_point((2, 0))
    same = AffineFlat.through((0, 1), D)
    assert same == flat


def test_relate_rejects_mixed_spaces():
    # the sum of two subspaces of different spaces is refused
    a = LinearSubspace.from_rows([[1, 0]], 2, 3)
    b = LinearSubspace.from_rows([[1, 0, 0]], 3, 3)
    with pytest.raises(ValueError, match="different spaces"):
        join_rows(a, b)


def _blocks_left_behind(stream):
    # see test_primefield.test_from_rows_leaves_no_blocks_behind
    def sweep():
        for _ in stream():
            pass

    sweep()  # warm-up
    gc.collect()
    before = sys.getallocatedblocks()
    sweep()
    return sys.getallocatedblocks() - before


def test_enumerate_linear_leaves_no_blocks_behind():
    assert _blocks_left_behind(lambda: enumerate_linear(4, 3, 7)) < 200


def test_enumerate_affine_leaves_no_blocks_behind():
    assert _blocks_left_behind(lambda: enumerate_affine(4, 2, 5)) < 200
