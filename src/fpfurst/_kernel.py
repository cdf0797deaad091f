"""The one coset-reduction routine and the projection count built on it.

Every canonical coset name in the package -- `flags.reduce_mod_subspace`,
subspace membership, flat membership and the projection counts -- is computed
by `_reduce`, and so is every echelon basis: `flags._echelon` reduces each
vector modulo the rows so far and keeps the nonzero remainders.  It gives
`flags.join_rows`' basis of U + V, in the echelon order `project_count_flat`
accepts, and `LinearSubspace.from_rows`' RREF.  `_reduce` works on pure
Python ints, so there is no limit on p**n.
"""

from __future__ import annotations


def backend_name() -> str:
    return "python"


def _reduction_rows(basis, n: int, kdim: int, pivots) -> tuple:
    """Per RREF row: its pivot column and the nonzero (column, entry) pairs to
    the right of the pivot.  `basis` is the row-major flat basis (kdim rows)."""
    rows = []
    for i in range(kdim):
        c, off = pivots[i], i * n
        # tuple() of a list, not of a generator: a generator's tuple is
        # allocated at a guessed size and shrunk, so every call would move
        # memory onto the interpreter's small-tuple free lists.
        rows.append((c, tuple([(j, basis[off + j]) for j in range(c + 1, n) if basis[off + j]])))
    return tuple(rows)


def _dense(rows, n: int) -> list:
    """Row-major entries of rows in `_reduce`'s form; `_reduction_rows` inverted."""
    out = [0] * (len(rows) * n)
    for off, (c, entries) in zip(range(0, len(out), n), rows):
        out[off + c] = 1
        for j, b in entries:
            out[off + j] = b
    return out


def _reduce(x, rows, p: int) -> tuple[int, ...]:
    """Canonical representative of x + V: zero at V's pivot coordinates.

    x must hold residues in [0, p).  Exact because each row is 1 at its own
    pivot and 0 left of it and at every earlier row's pivot, so clearing one
    pivot leaves the pivots cleared before it at zero.
    """
    w = list(x)
    for c, entries in rows:
        f = w[c]
        if f:
            w[c] = 0
            for j, b in entries:
                w[j] = (w[j] - f * b) % p
    return tuple(w)


def project_count_flat(pts, npts: int, n: int, basis, kdim: int, pivots, p: int) -> int:
    """Number of distinct cosets x + V met by the points.

    pts: row-major flat sequence of npts points of F_p^n (coords reduced);
    basis: row-major flat basis of V (kdim rows) in echelon order, each row 1
    at its pivot and zero left of it and at every earlier row's pivot (an
    RREF basis is one case); pivots: the rows' pivot columns.
    """
    rows = _reduction_rows(basis, n, kdim, pivots)
    return len({_reduce(pts[b : b + n], rows, p) for b in range(0, npts * n, n)})
