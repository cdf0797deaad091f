"""The tests' rank oracle: Gauss-Jordan elimination on lists, independent of
`_kernel._reduce`, and the rank of stacked bases it gives; and
`flags.join_rows` as it eliminates full-length vectors, the oracle its short
rows at the free columns must equal row for row."""

from fpfurst._kernel import _echelon
from fpfurst.primefield import PrimeMatrix


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
    return matrix(work, p, ncols), tuple(pivots)


def matrix(rows, p: int, ncols: int) -> PrimeMatrix:
    """The matrix with the given rows of ints, each reduced mod p."""
    return PrimeMatrix(p, len(rows), ncols, tuple(e % p for row in rows for e in row))


def stacked_rank(*mats: PrimeMatrix) -> int:
    """Rank of the matrices stacked top to bottom; all share p and width.
    A `LinearSubspace` is its RREF basis matrix, so subspaces go in as they are."""
    assert len({(m.p, m.cols) for m in mats}) == 1, "incompatible stack"
    entries = tuple(e for m in mats for e in m.entries)
    stacked = PrimeMatrix(mats[0].p, sum(m.rows for m in mats), mats[0].cols, entries)
    return len(rref(stacked)[1])


def full_join_rows(U, axes) -> list:
    """Rows in `_reduce`'s form spanning U + C, C the axes' span, with no plan
    and no free columns: the axis rows, U's RREF rows whose pivot is off the
    axes with their axis entries dropped, then `_echelon` of the other rows
    as full-length vectors."""
    n, rows, rest = U.n, [(a, ()) for a in axes], []
    for c, row in zip(U.pivots, U.to_rows()):
        if c in axes:
            rest.append(row)
        else:
            rows.append((c, tuple((j, b) for j, b in enumerate(row) if j > c and j not in axes and b)))
    return _echelon(rest, rows, n, U.p)
