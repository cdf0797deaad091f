"""The package's one elimination: the coset reducer, the echelon builder on
it, the same reduction laid out over a point set's columns, and the
projection count on those columns.

Every canonical coset name in the package -- `flags.reduce_mod_subspace`,
subspace membership, a point's flat membership -- is computed by `_reduce`,
and so is every echelon basis: `_echelon` reduces each vector modulo the rows
so far, keeping the nonzero remainders.  It names `LinearSubspace.from_rows`'
RREF, ends `flags.join_rows`' rows of U + axes, which `project_count_flat`
takes as is, and ranks the short rows of the directions
`projections.small_projection_directions` cannot decide by pivot pattern.
`join_rows` and that rank hand `_echelon` only the free columns, those off the
axes and off V's pivots.  A subspace's own rows in `_reduce`'s form are
`join_rows` with no axes.

`_reduce_columns` runs `_reduce`'s steps in the same order over all of a
point set's columns at once, so each non-pivot column holds that coordinate
of every point's `_reduce`.  `project_count_flat` counts the distinct rows of
those columns, and `verify_family` compares them with a flat's base, with no
`_reduce` call.  Everything works on pure Python ints, so p**n is unbounded.
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


def _reduce_columns(pts, rows, p: int) -> list:
    """The columns of the nonempty points (residue tuples), reduced modulo
    `rows` in `_reduce`'s form: for each row (c, entries) and each entry
    (j, b), column j loses b times column c, as coordinate j of one point does
    in `_reduce`, and in the same order.  No row has an entry at an earlier
    row's pivot, so a pivot column is read only before `_reduce` would zero
    it; it is left as it is, and every other column j holds coordinate j of
    each point's `_reduce`."""
    cols = list(zip(*pts))
    for c, entries in rows:
        pivot_col = cols[c]
        for j, b in entries:
            cols[j] = [(a - x * b) % p for a, x in zip(cols[j], pivot_col)]
    return cols


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

    pts are tuples of residues in F_p^n, rows V's basis in `_reduce`'s form
    and pivots its pivot columns.  Two points share a coset iff their
    `_reduce_columns` agree at every non-pivot column; with no such column
    there is one coset.  A set of 0 or 1 points is its own count.  npts and
    kdim stay positional for the benchmark tracer until ROADMAP item 6;
    callers pass their true values.
    """
    if len(pts) < 2:
        return len(pts)
    cols = _reduce_columns(pts, rows, p)
    return len(set(zip(*[cols[j] for j in range(n) if j not in pivots]))) or 1
