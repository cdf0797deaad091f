import copy
import gc
import itertools
import os
import pathlib
import pickle
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
from fpfurst.cli import ExperimentConfig, RunReport
from fpfurst.exceptional import ExceptionalWitness
from fpfurst.furstenberg import FamilyValidity, FurstenbergFamily, construct_general
from fpfurst.indices import furstenberg_params, marstrand_params
from fpfurst.lemmas import CounterexampleReport, GridSpec
from fpfurst.primefield import PrimeMatrix
from fpfurst.projections import ExceptionalQuery, PointSet
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
    got = [(s.pivots, s.to_rows()) for s in enumerate_linear(2, 1, 3)]
    assert got == [
        ((0,), [[1, 0]]),
        ((0,), [[1, 1]]),
        ((0,), [[1, 2]]),
        ((1,), [[0, 1]]),
    ]
    first = [(s.pivots, s.to_rows()) for s in enumerate_linear(3, 2, 2)][:3]
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
        (LinearSubspace(p, k, n, basis.entries, pivots) for basis, pivots in names if len(pivots) == k),
        key=lambda V: (V.pivots, V.entries),
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
    # The enumerators skip __init__; replace runs it again, so each value
    # must survive its own constructor unchanged.
    for V in enumerate_linear(n, k, p):
        W = V.replace()
        assert W == V and hash(W) == hash(V)
    for flat in enumerate_affine(n, k, p):
        same = flat.replace()
        assert same == flat and hash(same) == hash(flat)


_RETAINED_BYTES = """
import itertools, tracemalloc
from fpfurst.flags import LinearSubspace, enumerate_linear

def constructed(n, k, p):
    # enumerate_linear's RREF bases, built through the validating constructors
    for pivots in itertools.combinations(range(n), k):
        choices = [
            (1,) if j == c else (0,) if j < c or j in pivots else range(p)
            for c in pivots
            for j in range(n)
        ]
        for entries in itertools.product(*choices):
            yield LinearSubspace(p, k, n, entries, pivots)

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
    with pytest.raises(ValueError, match="does not match shape"):
        LinearSubspace(5, 2, 3, V.entries, (0, 1))
    with pytest.raises(ValueError, match="does not match shape"):
        LinearSubspace(5, 1, 4, V.entries, (0,))
    with pytest.raises(ValueError, match="pivot count"):
        LinearSubspace(5, 1, 3, V.entries, (0, 1))


def test_enumerated_subspace_is_one_object():
    # the RREF basis' PrimeMatrix fields, then the pivots: no nested matrix
    V = list(enumerate_linear(3, 2, 5))[7]
    assert isinstance(V, PrimeMatrix) and (V.n, V.k) == (3, 2)
    assert V._fields == ("p", "rows", "cols", "entries", "pivots")
    assert vars(V) == {"p": 5, "rows": 2, "cols": 3, "entries": (1, 0, 1, 0, 1, 2), "pivots": (0, 1)}


def test_flats_are_slotted_and_frozen():
    # enumerated and constructed flats share one slotted layout: no __dict__
    V = LinearSubspace.from_rows([[1, 2, 0]], 3, 5)
    for flat in (list(enumerate_affine(3, 1, 5))[7], AffineFlat(V, (0, 1, 3))):
        assert not hasattr(flat, "__dict__")
        assert flat._fields == ("direction", "base")
        for name, value in (("direction", V), ("base", (0, 0, 0))):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(flat, name, value)


def _records():
    """One record of each class: the record, a change its constructor refuses
    with that error and message (an unknown field where it checks nothing),
    and its repr."""
    F = Fraction
    line = LinearSubspace.from_rows([[1, 2]], 2, 5)
    member = (AffineFlat.through((0, 0), line), ((0, 0), (1, 2)))
    unknown = ({"bogus": 1}, TypeError, "unexpected keyword argument 'bogus'")
    cases = [
        (PrimeMatrix(5, 1, 2, (1, 4)), ({"entries": (1, 5)}, ValueError, "residues"),
         "PrimeMatrix(p=5, rows=1, cols=2, entries=(1, 4))"),
        (line, ({"pivots": (1,)}, ValueError, "not the RREF"),
         "LinearSubspace(p=5, rows=1, cols=2, entries=(1, 2), pivots=(0,))"),
        (list(enumerate_affine(3, 2, 3))[20], ({"base": (0, 0)}, ValueError, "base length"),
         "AffineFlat(direction=LinearSubspace(p=3, rows=2, cols=3, entries=(1, 0, 2, 0, 1, 0), "
         "pivots=(0, 1)), base=(0, 0, 2))"),
        (PointSet(2, 5, ((0, 1), (3, 4))), ({"points": ((3, 4), (0, 1))}, ValueError, "sorted"),
         "PointSet(n=2, p=5, points=((0, 1), (3, 4)))"),
        (ExceptionalQuery(F(1, 2), 1), ({"s": 0}, ValueError, "s must be positive"),
         "ExceptionalQuery(s=Fraction(1, 2), k=1)"),
        (furstenberg_params(F(1, 2), 1, 2, 1), unknown,
         "FurstenbergParams(s=Fraction(1, 2), t=Fraction(1, 1), n=2, k=1, piece='c-mean', d=0, "
         "sigma=Fraction(1, 2), m=0, tau=Fraction(1, 1))"),
        (marstrand_params(F(3, 2), F(3, 2), 4, 2), unknown,
         "MarstrandParams(a=Fraction(3, 2), s=Fraction(3, 2), n=4, k=2, m=1, beta=Fraction(1, 2), "
         "l=1, gamma=Fraction(1, 2), piece='3-excess')"),
        (GridSpec(F(1, 4)), ({"step": F(2, 3)}, ValueError, "unit fraction"),
         "GridSpec(step=Fraction(1, 4))"),
        (CounterexampleReport("recursion_f1", (("s", F(1)),), F(1), F(2), F(1)), unknown,
         "CounterexampleReport(lemma='recursion_f1', witness=(('s', Fraction(1, 1)),), "
         "lhs=Fraction(1, 1), rhs=Fraction(2, 1), deficit=Fraction(1, 1))"),
        (FurstenbergFamily(F(1), F(2), 2, 1, 5, "2d-strip", (member,)), unknown,
         "FurstenbergFamily(s=Fraction(1, 1), t=Fraction(2, 1), n=2, k=1, p=5, branch='2d-strip', "
         "members=((AffineFlat(direction=LinearSubspace(p=5, rows=1, cols=2, entries=(1, 2), "
         "pivots=(0,)), base=(0, 0)), ((0, 0), (1, 2))),))"),
        (FamilyValidity(("member 1: duplicate flat",)), unknown,
         "FamilyValidity(failures=('member 1: duplicate flat',))"),
        (ExceptionalWitness(F(1), F(1, 2), 2, 1, 5, "type1", PointSet(2, 5, ((0, 0),)), (line,), 1),
         unknown,
         "ExceptionalWitness(a=Fraction(1, 1), s=Fraction(1, 2), n=2, k=1, p=5, branch='type1', "
         "set_a=PointSet(n=2, p=5, points=((0, 0),)), claimed=(LinearSubspace(p=5, rows=1, "
         "cols=2, entries=(1, 2), pivots=(0,)),), certified_count=1)"),
        (ExperimentConfig("index", {"k": [1]}), unknown,
         "ExperimentConfig(command='index', params={'k': [1]}, constant=None, jobs=1)"),
        (RunReport("index", [{"status": "pass"}], "", 3), unknown,
         "RunReport(command='index', rows=[{'status': 'pass'}], counterexample_csv='', wall_ms=3)"),
    ]
    return [pytest.param(*case, id=type(case[0]).__name__) for case in cases]


@pytest.mark.parametrize("record, refused, text", _records())
def test_enumerated_flat_survives_pickle_and_deepcopy(record, refused, text):
    # Every record keeps the contract of a frozen dataclass: a round trip
    # through pickle or deepcopy, equality and hashing by field values within
    # one class, the repr, refused assignment and deletion, and a replace that
    # runs the constructor's checks.
    cls, values = type(record), {name: getattr(record, name) for name in record._fields}
    hashable = not any(isinstance(v, (list, dict)) for v in values.values())  # a list or dict is not
    for same in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert same is not record and same == record and type(same) is cls
        if cls is AffineFlat:
            assert not hasattr(same, "__dict__")
        else:
            assert vars(same) == values
        if hashable:
            assert hash(same) == hash(record)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(same)
    assert repr(record) == text
    twin = type("Twin", (cls,), {})(**values)
    assert record != twin and twin != record
    name = record._fields[-1]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, values[name])
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    changes, error, match = refused
    with pytest.raises(error, match=match):
        record.replace(**changes)
    assert record.replace() == record


def test_replace_rebuilds_without_cached_values():
    # replace goes through __init__, so no cached property is carried over
    empty = FurstenbergFamily(Fraction(1), Fraction(2), 2, 1, 5, "2d-strip", ())
    fam = construct_general(1, 2, 2, 1, 5)
    assert len(empty.union) == 0 and len(fam.union) == 25
    shrunk = fam.replace(members=fam.members[:1])
    assert "union" not in vars(shrunk) and shrunk.union.points == fam.members[0][1]
    assert empty.replace(members=fam.members).union == fam.union
    V = LinearSubspace.from_rows([[1, 2, 0]], 3, 5)
    V._rows
    assert "_rows" in vars(V) and "_rows" not in vars(V.replace())


@pytest.mark.parametrize("p", [2, 3])
def test_enumerate_affine_equals_the_constructed_flats(p):
    # each direction's cosets, named by reduce_mod_subspace and built through
    # the validating constructor; sorted bases are lexicographic in the free
    # coordinates because every base is 0 at the pivots
    for n in range(1, 4):
        for k in range(n + 1):
            want = [
                AffineFlat(V, base)
                for V in enumerate_linear(n, k, p)
                for base in sorted({reduce_mod_subspace(x, V) for x in itertools.product(range(p), repeat=n)})
            ]
            assert list(enumerate_affine(n, k, p)) == want, (n, k)


_D = LinearSubspace.from_rows([[1, 0]], 2, 5)
_E1 = LinearSubspace.coordinate([0], 3, 5)


@pytest.mark.parametrize(
    "build,error,message",
    [
        pytest.param(
            lambda: LinearSubspace(5, 1, 2, (2, 0), (0,)),
            ValueError, "not the RREF", id="pivot-entry-not-one",
        ),
        pytest.param(
            lambda: LinearSubspace(5, 1, 2, (0, 1), (0,)),
            ValueError, "not the RREF", id="zero-at-pivot",
        ),
        pytest.param(
            lambda: LinearSubspace(5, 2, 2, (1, 3, 0, 1), (0, 1)),
            ValueError, "not the RREF", id="entry-at-other-pivot",
        ),
        pytest.param(
            lambda: LinearSubspace(5, 2, 2, (0, 1, 1, 0), (1, 0)),
            ValueError, "not the RREF", id="pivots-out-of-order",
        ),
        pytest.param(
            lambda: LinearSubspace(5, 1, 2, (1, 6), (0,)), ValueError, "residues",
            id="entry-above-p",
        ),
        pytest.param(
            lambda: LinearSubspace(9, 1, 2, (1, 0), (0,)), ValueError, "not prime",
            id="composite-p",
        ),
        pytest.param(lambda: AffineFlat(_D, (0, 7)), ValueError, "residues", id="base-above-p"),
        pytest.param(lambda: AffineFlat(_D, (0, -3)), ValueError, "residues", id="base-negative"),
        pytest.param(lambda: AffineFlat(_D, (0, 2.5)), TypeError, "ints", id="base-not-int"),
        # list containers: a flat with a list base has no hash, and no tuple
        # residue of contains_point equals its base
        pytest.param(lambda: AffineFlat(_D, [0, 2]), TypeError, "base must be a tuple", id="base-list"),
        pytest.param(
            lambda: PrimeMatrix(5, 1, 2, [1, 3]), TypeError, "entries must be a tuple", id="matrix-entries-list"
        ),
        pytest.param(
            lambda: LinearSubspace(5, 1, 2, [1, 3], (0,)), TypeError, "entries must be a tuple", id="entries-list"
        ),
        pytest.param(
            lambda: LinearSubspace(5, 1, 2, (1, 3), [0]), TypeError, "pivots must be a tuple", id="pivots-list"
        ),
        pytest.param(
            lambda: AffineFlat.through((0, 2.5), _D), TypeError, "ints", id="through-not-int"
        ),
        pytest.param(
            lambda: reduce_mod_subspace((0, Fraction(5, 2)), _D), TypeError, "ints",
            id="reduce-not-int",
        ),
        # vectors of F_5^2 or F_5^4 against subspaces of F_5^3
        pytest.param(
            lambda: reduce_mod_subspace((1, 2), _E1), ValueError, "not in F_5", id="reduce-short",
        ),
        pytest.param(
            lambda: reduce_mod_subspace((1, 2, 3, 4), _E1), ValueError, "not in F_5",
            id="reduce-long",
        ),
        pytest.param(
            lambda: AffineFlat.through((0, 1, 2), _E1).contains_point((0, 1)), ValueError,
            "not in F_5", id="contains-short",
        ),
        pytest.param(
            lambda: AffineFlat.through((1, 2), LinearSubspace.coordinate([2], 3, 5)), ValueError,
            "not in F_5", id="through-short",
        ),
    ],
)
def test_constructors_accept_only_canonical_exact_values(build, error, message):
    # each of these named an object that from_rows and through never give;
    # the canonical forms stay accepted
    with pytest.raises(error, match=message):
        build()
    assert LinearSubspace(5, 1, 2, _D.entries, _D.pivots) == _D
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
                assert V.entries == reduced.entries[: len(pivots) * n], (p, rows)
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
                assert len({(s.pivots, s.entries) for s in subs}) == len(subs)
                flats = list(enumerate_affine(n, k, p))
                keys = {(f.direction.entries, f.base) for f in flats}
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
