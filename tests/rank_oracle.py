"""The tests' rank oracle: the dimension of the row space of stacked bases,
computed by `primefield.rref` and never by `_kernel._reduce`."""

from fpfurst.primefield import PrimeMatrix, rref


def stacked_rank(*mats: PrimeMatrix) -> int:
    """Rank of the matrices stacked top to bottom; all share p and width."""
    assert len({(m.p, m.cols) for m in mats}) == 1, "incompatible stack"
    entries = tuple(e for m in mats for e in m.entries)
    stacked = PrimeMatrix(mats[0].p, sum(m.rows for m in mats), mats[0].cols, entries)
    return len(rref(stacked)[1])
