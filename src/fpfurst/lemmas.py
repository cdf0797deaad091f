"""Exhaustive integer-lattice checks of the index recursion inequalities and
the index-property lemmas, with counterexample reporting.

Grids cannot certify an inequality for all reals; they corroborate it on a
finite rational mesh.  Each checker takes one dimension pair, then the grid
(and, for a recursion, a `slack`), and refuses a pair outside 1 <= k < n.
The checkers are falsifiable: a test raises the slack, or patches the
module's lattice evaluators or `_LIPSCHITZ`, and sees a nonempty report.
The slack also checks tightness: at slack = 1/D, one unit of the checker's
lattice (below), an outer point is reported exactly when some witness
attains the index, since every gap is a multiple of 1/D.  Constraint
equalities (t1 + t2 = t, u + v = F(s1,t2;2,1), ...) derive the dependent
variable rather than filter a product grid, so no witness set is silently
empty.

All four checkers hold each value as the numerator x of x/D, at one scale
D = lcm(c*q, den(slack)) per call for step 1/q; every sum and comparison is
an int operation.  Both indices are piecewise affine with coefficients in
{1, 1/2}, so the scale is exact:

* recursion_m, c = 1: M on the 1/q grid has denominator q;
* recursion_f2 and the properties, c = 2: F has denominator 2q, from
  (sigma + tau)/2, and the stride D/q = 2 keeps 3s/2 + t/2 on the lattice;
* recursion_f1, c = 4: v = F(s1, t2; 2, 1) - u has denominator 2q, so
  F(s2, t1 + v; k, k-1) has 4q.

The case split lives once, in `indices`, whose lattice evaluators the
checkers call at D under a cache for one call.  An F recursion sweeps its
innermost variable only where a lower bound on the left side, which assumes
nothing of F, is below the target: the exact least over s1 for recursion_f2,
and s2 + u + v for recursion_f1.  NEG_INF stays NEG_INF: `x + NEG_INF` and
`x > NEG_INF` work for an int x, and a report's default deficit |rhs - lhs|
is 1 when a side is NEG_INF.  Reports, in Fractions, equal a Fraction sweep's.
"""

from __future__ import annotations

import io
import csv
import math
from fractions import Fraction
from functools import lru_cache, partial
from operator import add

from .indices import (
    NEG_INF,
    Exponent,
    _furstenberg_scaled,
    _marstrand_scaled,
    _marstrand_piece,
    _split,
    as_fraction,
    furstenberg_index,
    marstrand_index,
)
from .primefield import _Record

# read by clibench's tracer; the checkers cache per call and leave both empty
_findex = lru_cache(maxsize=None)(furstenberg_index)
_mindex = lru_cache(maxsize=None)(marstrand_index)
# the left-Lipschitz constant of F in s
_LIPSCHITZ = 2

ZERO = Fraction(0)


class GridSpec(_Record):
    """A finite rational mesh with a unit-fraction step."""

    def __init__(self, step: Fraction):
        step = as_fraction(step)
        if step <= 0 or step.numerator != 1:
            raise ValueError("step must be a positive unit fraction like 1/12")
        self._set_fields(step)

    def values(self, lo, hi, include_lo: bool = True, include_hi: bool = True):
        """Grid points in [lo, hi], optionally dropping either endpoint; no
        caller in `src/`, kept for clibench's tracer."""
        lo, hi, q = as_fraction(lo), as_fraction(hi), self.step.denominator
        return [Fraction(j, q) for j in range(math.ceil(lo * q), math.floor(hi * q) + 1)
                if (include_lo or j != lo * q) and (include_hi or j != hi * q)]


class CounterexampleReport(_Record):
    """One violated instance: witness values plus both sides and the deficit
    (positive exactly when reported)."""

    def __init__(self, lemma: str, witness: tuple[tuple[str, Fraction], ...], lhs: Exponent,
                 rhs: Exponent, deficit: Fraction):
        self._set_fields(lemma, witness, lhs, rhs, deficit)

    def witness_dict(self):
        return dict(self.witness)


def reports_to_csv(reports) -> str:
    """Serialize reports; columns: lemma, union of witness fields, lhs, rhs,
    deficit.  Deterministic field order, exact num/den values."""
    fields = sorted({name for r in reports for name, _ in r.witness})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lemma", *fields, "lhs", "rhs", "deficit"])
    for r in reports:
        w = r.witness_dict()
        writer.writerow(
            [r.lemma]
            + [str(w.get(f, "")) for f in fields]
            + [str(r.lhs), str(r.rhs), str(r.deficit)]
        )
    return buf.getvalue()


def _check_pair(n: int, k: int):
    if not 1 <= k < n:
        raise ValueError(f"bad dimension pair ({n},{k})")


def _frame(grid: GridSpec, c: int, slack, *indices):
    """The set-up every checker shares: each of `indices` at the scale
    D = lcm(c * q, den(slack)) for step 1/q, bound to D and cached for this
    call, then D, the lattice stride g = D / q, slack * D, the report list
    and `report`.

    `report(lemma, dims, lhs, rhs, deficit=None, **witness)` appends one
    CounterexampleReport from lattice numerators: `dims` are the integer
    (name, value) parameters and each witness keyword a numerator.  A NEG_INF
    side passes through unchanged; the deficit defaults to |rhs - lhs|, and
    to one whole unit when a side is NEG_INF.
    """
    slack = as_fraction(slack)
    q = grid.step.denominator
    D = math.lcm(c * q, slack.denominator)
    out = []

    def exact(x):
        return x if x is NEG_INF else Fraction(x, D)

    def report(lemma, dims, lhs, rhs, deficit=None, **witness):
        if deficit is None:
            deficit = D if lhs is NEG_INF or rhs is NEG_INF else abs(rhs - lhs)
        out.append(CounterexampleReport(
            lemma,
            tuple((name, Fraction(x)) for name, x in dims)
            + tuple((name, Fraction(x, D)) for name, x in witness.items()),
            exact(lhs),
            exact(rhs),
            Fraction(deficit, D),
        ))

    scaled = (lru_cache(maxsize=None)(partial(f, D=D)) for f in indices)
    return (*scaled, D, D // q, slack.numerator * (D // slack.denominator), out, report)


def check_recursion_f1(k: int, grid: GridSpec, slack=ZERO) -> list[CounterexampleReport]:
    """Grid check of the one-dimension-up recursion for (k+1, k).

    Witnesses satisfy t1 + t2 = t, s1 + s2 = s, u + v = F(s1, t2; 2, 1) with
    t1 in [0, k-1], t2 in [0, 2], s1 in [0, 1], s2 in [0, s], u in [s1, 1],
    v in [0, 1]; v is derived and out-of-range witnesses are skipped, as are
    the witnesses whose inner tuple (s2, t1+v; k, k-1) falls outside the
    admissible domain (s2 > k - 1), where the index is undefined.

    The inequality checked is
        u + max{F(s2, t1+v; k, k-1), s2 + v} >= F(s, t; k+1, k) + slack,
    and the u sweep runs only where its lower bound s2 + u + v is below it.
    """
    _check_pair(k + 1, k)
    if k < 2:
        raise ValueError("recursion needs k >= 2")
    F, D, g, eps, out, report = _frame(grid, 4, slack, _furstenberg_scaled)
    for s in range(0, k * D + 1, g):
        for t in range(0, (k + 1) * D + 1, g):
            target = F(s, t, k + 1, k) + eps
            for t1 in range(max(0, t - 2 * D), min((k - 1) * D, t) + 1, g):
                t2 = t - t1
                for s1 in range(max(0, s - (k - 1) * D), min(D, s) + 1, g):
                    s2 = s - s1
                    f12 = F(s1, t2, 2, 1)
                    # u on the grid in [s1, 1] with v = f12 - u in [0, 1]
                    if s2 + f12 < target:  # lhs >= u + s2 + v = s2 + f12 for every u
                        for u in range(max(s1, -((D - f12) // g) * g), min(D, f12) + 1, g):
                            v = f12 - u
                            lhs = u + max(F(s2, t1 + v, k, k - 1), s2 + v)
                            if lhs < target:
                                report("recursion_f1", [("k", k)], lhs, target, s=s, t=t,
                                       t1=t1, t2=t2, s1=s1, s2=s2, u=u, v=v)
    return out


def check_recursion_f2(n: int, k: int, grid: GridSpec, slack=ZERO) -> list[CounterexampleReport]:
    """Grid check of the ambient-dimension recursion for n >= k + 2:

        F(s1, t1; n-1, k) + max{F(s, t2; k+1, k) - s1, 0}
            >= F(s, t; n, k) + slack

    over t1 in [0, (k+1)(n-k-1)], t2 = t - t1 in [0, k+1], s1 in [s, k]; the
    s1 sweep runs only where its least left side is below the right side.
    """
    _check_pair(n, k)
    if n < k + 2:
        raise ValueError("recursion needs n >= k + 2")
    F, D, g, eps, out, report = _frame(grid, 2, slack, _furstenberg_scaled)
    s1s = range(0, k * D + 1, g)  # low[t1 / g][s1 / g] = F(s1, t1; n-1, k)
    low = [[F(s1, t1, n - 1, k) for s1 in s1s]
           for t1 in range(0, (k + 1) * (n - k - 1) * D + 1, g)]
    hinge = lru_cache(maxsize=None)(lambda inner: [max(inner - s1, 0) for s1 in s1s])
    for j, s in enumerate(s1s):
        for t in range(0, (k + 1) * (n - k) * D + 1, g):
            target = F(s, t, n, k) + eps
            for t1 in range(max(0, t - (k + 1) * D), min((k + 1) * (n - k - 1) * D, t) + 1, g):
                t2 = t - t1
                inner = F(s, t2, k + 1, k)
                if min(map(add, low[t1 // g][j:], hinge(inner)[j:])) < target:
                    for s1 in range(s, k * D + 1, g):
                        lhs = F(s1, t1, n - 1, k) + max(inner - s1, 0)
                        if lhs < target:
                            report("recursion_f2", [("n", n), ("k", k)], lhs, target,
                                   s=s, t=t, t1=t1, t2=t2, s1=s1)
    return out


def check_recursion_m(n: int, k: int, grid: GridSpec, slack=ZERO) -> list[CounterexampleReport]:
    """Grid check of the exceptional-exponent recursion for n >= k + 2:

        M(a1, s1; n-1, k) + M(s1 + a - a1, s; k+1, k)
            <= M(a, s; n, k) - slack

    over a in (0, n], s in (a-(n-k), min{a, k}], a1 in [max{0, a-1},
    min{n-1, a}] with a1 > 0, s1 in (0, s].  A NEG_INF term absorbs the
    left side, which then cannot violate.
    """
    _check_pair(n, k)
    if n < k + 2:
        raise ValueError("recursion needs n >= k + 2")
    M, D, g, eps, out, report = _frame(grid, 1, slack, _marstrand_scaled)
    for a in range(g, n * D + 1, g):
        for s in range(max(0, a - (n - k) * D) + g, min(a, k * D) + 1, g):
            rhs = M(a, s, n, k) - eps
            for a1 in range(max(g, a - D), min((n - 1) * D, a) + 1, g):
                for s1 in range(g, s + 1, g):
                    lhs = M(a1, s1, n - 1, k) + M(s1 + a - a1, s, k + 1, k)
                    if lhs > rhs:
                        report("recursion_m", [("n", n), ("k", k)], lhs, rhs,
                               a=a, s=s, a1=a1, s1=s1)
    return out


def check_index_properties(n: int, k: int, grid: GridSpec) -> list[CounterexampleReport]:
    """Run the index-property families for the pair (n, k).

    Families: easybound (F >= s + max{0, t - k(n-k)}), t-Lipschitz
    (F(s, t1+t2) <= t1 + F(s, t2)), left-Lipschitz in s with constant
    `_LIPSCHITZ`, diagonal monotonicity of M, the easyM sandwich, the
    four-type partition, and -- for (2, 1) -- the closed forms of both
    indices.
    """
    _check_pair(n, k)
    F, M, D, g, _, out, report = _frame(grid, 2, ZERO, _furstenberg_scaled, _marstrand_scaled)
    nk = [("n", n), ("k", k)]
    kk = k * (n - k) * D
    tmax = (k + 1) * (n - k) * D
    svals = range(0, k * D + 1, g)
    tvals = range(0, tmax + 1, g)

    for s in svals:
        for t in tvals:
            val = F(s, t, n, k)
            bound = s + max(0, t - kk)
            if val < bound:
                report("easybound", nk, val, bound, s=s, t=t)

    for s in svals:
        for t2 in tvals:
            base = F(s, t2, n, k)
            for t1 in range(0, tmax - t2 + 1, g):
                val = F(s, t1 + t2, n, k)
                if val > t1 + base:
                    report("t_lipschitz", nk, val, t1 + base, s=s, t1=t1, t2=t2)

    for s in svals[1:]:
        _, sigma = _split(s, D)
        for t in tvals:
            val = F(s, t, n, k)
            for theta in range(0, sigma, g):
                # theta < sigma keeps s - theta inside the same piece (d unchanged)
                lower = val - _LIPSCHITZ * theta
                shifted = F(s - theta, t, n, k)
                if shifted < lower:
                    report("left_lipschitz", nk, shifted, lower, s=s, t=t, theta=theta)

    avals = range(g, n * D + 1, g)
    smvals = range(g, (k + 1) * D + 1, g)

    for a in avals:
        for s in smvals:
            base = M(a, s, n, k)
            for theta in range(0, min(a, s), g):
                moved = M(a - theta, s - theta, n, k)
                if moved > base:
                    report("m_diagonal", nk, moved, base, a=a, s=s, theta=theta)

    for a in avals:
        m_int, beta = _split(a, D)
        for s in range(max(0, a - (n - k) * D) + g, min(a, k * D) + 1, g):
            l_int, gamma = _split(s, D)
            upper = kk - (m_int - l_int) * (k - l_int) * D + max(2 * gamma - beta - D, 0)
            lower = kk - (m_int + 1 - l_int) * (k - l_int) * D + max(2 * gamma - beta, 0)
            val = M(a, s, n, k)
            if val > upper:
                report("easym_upper", nk, val, upper, a=a, s=s)
            if val < lower:
                report("easym_lower", nk, val, lower, a=a, s=s)

    for a in avals:
        m_int, beta = _split(a, D)
        for s in smvals:
            l_int, gamma = _split(s, D)
            inside = s <= min(a, k * D)
            conds = [
                not inside,
                inside and l_int + 1 <= m_int <= n + l_int - k and gamma > beta,
                inside and l_int <= m_int <= n + l_int - k - 1 and gamma <= beta,
                s <= a - (n - k) * D,
            ]
            piece = _marstrand_piece(a, s, n, k, D)[0]
            if sum(conds) != 1 or piece[0] != str(conds.index(True) + 1):
                report("type_partition", nk, sum(conds) * D, D, D, a=a, s=s)

    if (n, k) == (2, 1):
        for s in range(g, D + 1, g):
            for t in range(0, 2 * D + 1, g):
                val = F(s, t, 2, 1)
                closed = min(s + t, (3 * s + t) // 2, s + D)
                if val != closed:
                    report("closed_form_f21", [], val, closed, s=s, t=t)
        for a in range(g, 2 * D + 1, g):
            for s in range(g, 2 * D + 1, g):
                closed = D if s > min(a, D) else max(0, 2 * s - a) if s > a - D else NEG_INF
                val = M(a, s, 2, 1)
                if val != closed:
                    report("closed_form_m21", [], val, closed, D, a=a, s=s)
    return out
