import gc
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpfurst.flags import LinearSubspace, enumerate_linear
from fpfurst.primefield import PRIME_LIMIT, PrimeMatrix, check_prime, is_prime
from fpfurst.projections import PointSet
from rank_oracle import matrix, rref


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 997}
    for n in range(2, 1000):
        naive = all(n % d for d in range(2, n))
        assert is_prime(n) == naive, n
    assert all(is_prime(p) for p in primes)


def test_is_prime_large_and_pseudoprimes():
    assert is_prime(2**61 - 1)  # Mersenne prime, out of reach of trial division
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime((2**61 - 1) * 1000003)  # two large prime factors
    with pytest.raises(ValueError):
        is_prime(PRIME_LIMIT)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError, match="is not prime"):
        PrimeMatrix(9, 1, 1, (1,))


@pytest.mark.parametrize(
    "build",
    [
        lambda: check_prime(7.0),
        lambda: PrimeMatrix(5.0, 1, 2, (1, 3)),
        lambda: LinearSubspace(5.0, 1, 2, (1, 3), (0,)),
        lambda: PointSet(2, 5.0, ((1, 2),)),
        lambda: is_prime(5.0),
        lambda: is_prime(4.0),
        lambda: is_prime(43.0),
    ],
    ids=["check-prime", "matrix", "subspace", "point-set", "is-prime", "is-prime-composite",
         "is-prime-uncached"],
)
def test_integral_float_modulus_refused(build):
    # is_prime's cache would answer 5.0 from its entry for 5
    assert is_prime(5) and is_prime(7)
    with pytest.raises(TypeError, match="p must be an int"):
        build()


def test_prime_matrix_refuses_bad_input():
    # the enumerators skip this check; the public constructor must keep it
    with pytest.raises(ValueError, match="entries must be residues"):
        PrimeMatrix(5, 1, 2, (0, 5))
    with pytest.raises(ValueError, match="entry count"):
        PrimeMatrix(5, 1, 2, (0,))


def test_prime_matrix_refuses_non_int_entries():
    with pytest.raises(TypeError, match="ints"):
        PrimeMatrix(5, 1, 2, (1, 2.5))


def test_rref_identity_case():
    m = matrix([[1, 0], [0, 1]], 3, 2)
    reduced, pivots = rref(m)
    assert reduced == m and pivots == (0, 1)


def test_rref_hand_example():
    # hand row-reduction: R2 <- R2 - 3*R1 after scaling R1 by inverse of 2
    m = matrix([[2, 4], [1, 2]], 5, 2)
    reduced, pivots = rref(m)
    assert reduced.to_rows() == [[1, 2], [0, 0]]
    assert pivots == (0,)


def test_rref_zero_matrix():
    m = PrimeMatrix(3, 3, 2, (0,) * 6)
    reduced, pivots = rref(m)
    assert reduced == m and pivots == ()


def _matrices(max_dim=4, primes=(2, 3, 5)):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.sampled_from(primes).flatmap(
                lambda p: st.lists(
                    st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                ).map(lambda rows: matrix(rows, p, c))
            )
        )
    )


@given(_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent(m):
    reduced, _ = rref(m)
    again, _ = rref(reduced)
    assert again == reduced


def test_row_space_equality_iff_equal_rref():
    # brute force over all 2x3 matrices mod 2: same row space <=> same RREF
    def row_space(m):
        rows = m.to_rows()
        span = set()
        for c0, c1 in itertools.product(range(2), repeat=2):
            v = tuple((c0 * a + c1 * b) % 2 for a, b in zip(rows[0], rows[1]))
            span.add(v)
        return frozenset(span)

    by_space = {}
    for entries in itertools.product(range(2), repeat=6):
        m = PrimeMatrix(2, 2, 3, entries)
        by_space.setdefault(row_space(m), set()).add(rref(m)[0])
    assert all(len(forms) == 1 for forms in by_space.values())
    forms = [next(iter(v)) for v in by_space.values()]
    assert len(forms) == len(set(forms))


def test_from_rows_leaves_no_blocks_behind():
    # tuple(<generator>) is allocated at a guessed size and shrunk, which
    # strands blocks on the small-tuple free lists on every call
    def sweep():
        for V in enumerate_linear(4, 2, 7):
            LinearSubspace.from_rows(V.to_rows(), 4, 7)

    sweep()  # warm-up
    gc.collect()
    before = sys.getallocatedblocks()
    sweep()
    assert sys.getallocatedblocks() - before < 200
