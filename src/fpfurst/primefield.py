"""Primality and the matrix type over F_p that everything sits on.

Scalars are stored as plain machine-word residues in [0, p); the prime modulus
is verified eagerly by deterministic Miller-Rabin, because a composite modulus
silently breaks the whole theory (F_{p^2} admits cheap counterexamples).
Counting is done elsewhere in arbitrary-precision integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


# The first thirteen primes are Miller-Rabin witnesses deciding every n below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for every p < PRIME_LIMIT (about
    3.3 * 10**24), and a ValueError beyond it rather than a guess."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"{p} is not below PRIME_LIMIT, where primality is decided")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _check_ints(values):
    """Refuse non-int values: every scalar here is exact."""
    if not all([isinstance(e, int) for e in values]):
        raise TypeError("entries must be ints")


@dataclass(frozen=True)
class PrimeMatrix:
    """Immutable row-major matrix over F_p."""

    p: int
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        _check_ints(self.entries)
        if any(not (0 <= e < self.p) for e in self.entries):
            raise ValueError("entries must be residues in [0, p)")

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

