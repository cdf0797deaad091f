"""Primality and the row-reduction primitives over F_p that everything sits on.

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
        if any(not (0 <= e < self.p) for e in self.entries):
            raise ValueError("entries must be residues in [0, p)")

    @classmethod
    def from_rows(cls, rows, p: int) -> "PrimeMatrix":
        # tuple() of lists, not generators: see _kernel._reduction_rows
        rows = [tuple([int(e) % p for e in row]) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple([e for row in rows for e in row])
        return cls(p, len(rows), ncols, flat)

    @classmethod
    def identity(cls, n: int, p: int) -> "PrimeMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)], p)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


def rref(m: PrimeMatrix) -> tuple[PrimeMatrix, tuple[int, ...]]:
    """Unique reduced row echelon form of m and its pivot columns.

    Row space is preserved; two matrices have equal row space iff their RREFs
    coincide, which is what makes RREF bases canonical subspace names.
    """
    p = m.p
    work = m.to_rows()
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] % p != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(e * inv) % p for e in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                row_r = work[r]
                work[i] = [(e - f * rr) % p for e, rr in zip(work[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return PrimeMatrix.from_rows(work, p), tuple(pivots)
