"""The one coset-reduction routine and the projection count built on it.

Every canonical coset name in the package -- `flags.reduce_mod_subspace`,
subspace membership, a point's flat membership and the projection counts --
is computed by `_reduce`, and so is every echelon basis: `flags._echelon`
reduces each vector modulo the rows so far and keeps the nonzero remainders.
It gives `flags.join_rows`' rows of U + V, which `project_count_flat` takes
as they are, and `LinearSubspace.from_rows`' RREF.  `verify_family` runs the
same elimination column-major over a member's marked points, with no
`_reduce` call.  `_reduce` works on pure Python ints, so p**n is unbounded.
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


def project_count_flat(pts, npts: int, n: int, rows, kdim: int, pivots, p: int) -> int:
    """Number of distinct cosets x + V met by the points.

    Reads only pts (tuples of residues), rows (V's basis in `_reduce`'s form)
    and p.  npts, n, kdim and pivots stay positional for the benchmark tracer
    until ROADMAP item 6; callers pass their true values.
    """
    return len({_reduce(x, rows, p) for x in pts})
