"""The package's one elimination: the coset reducer, the echelon builder on
it, and the projection count.

Every canonical coset name in the package -- `flags.reduce_mod_subspace`,
subspace membership, a point's flat membership and the projection counts --
is computed by `_reduce`, and so is every echelon basis: `_echelon` reduces
each vector modulo the rows so far, keeping the nonzero remainders.  It names
`LinearSubspace.from_rows`' RREF, ends `flags.join_rows`' rows of U + axes,
which `project_count_flat` takes as is, and ranks the short rows of the
directions `projections.small_projection_directions` cannot decide by pivot
pattern.  A subspace's own rows in `_reduce`'s form are `join_rows` with no
axes.  `verify_family` runs the same elimination column-major over a member's
marked points, with no `_reduce` call.  `_reduce` works on pure Python ints,
so p**n is unbounded.
"""

from __future__ import annotations


def backend_name() -> str:
    return "python"


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


def _echelon(vectors, rows: list, n: int, p: int) -> list:
    """Extend `rows`, in `_reduce`'s form, to span the vectors (residues).

    Each vector's nonzero remainder modulo the rows so far, scaled to 1 at its
    first nonzero column, is appended: zero at every earlier pivot and left of
    its own, which keeps `_reduce` exact."""
    for v in vectors:
        w = _reduce(v, rows, p)
        nonzero = [j for j in range(n) if w[j]]
        if nonzero:
            inv = pow(w[nonzero[0]], -1, p)
            rows.append((nonzero[0], tuple([(j, w[j] * inv % p) for j in nonzero[1:]])))
    return rows


def project_count_flat(pts, npts: int, n: int, rows, kdim: int, pivots, p: int) -> int:
    """Number of distinct cosets x + V met by the points.

    Reads only pts (tuples of residues), rows (V's basis in `_reduce`'s form)
    and p.  npts, n, kdim and pivots stay positional for the benchmark tracer
    until ROADMAP item 6; callers pass their true values.
    """
    return len({_reduce(x, rows, p) for x in pts})
