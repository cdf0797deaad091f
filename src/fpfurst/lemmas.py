"""Exhaustive rational-grid verification of the index recursion inequalities
and the index-property lemmas, with counterexample reporting.

Grids cannot certify an inequality for all reals; they corroborate it on a
finite rational mesh and, just as importantly, the checkers are falsifiable:
every checker accepts a `slack` (and the property checker injectable index
functions) so tests can deliberately break an inequality and confirm a
nonempty report.  Constraint equalities (t1 + t2 = t, u + v = F(s1,t2;2,1),
...) are enforced by deriving the dependent variable, never by filtering a
product grid, so a silently empty witness set is impossible.

The three recursion checkers run on an integer lattice: for step 1/q and a
given slack, every value is held as its numerator x of x/D at one scale
D = lcm(c*q, den(slack)) per call, and every sum and comparison is an int
operation.  The scale is exact because both index functions are piecewise
affine with coefficients in {1, 1/2}:

* recursion_m, c = 1: M(a, s) on the 1/q grid has denominator q
  (2*gamma - beta and the integer parts stay on the grid);
* recursion_f2, c = 2: F(s, t) on the 1/q grid has denominator 2q, from the
  (sigma + tau)/2 term;
* recursion_f1, c = 4: v = F(s1, t2; 2, 1) - u has denominator 2q, so
  F(s2, t1 + v; k, k-1) halves a 1/(2q) value and has denominator 4q.

Index values come from `_scaled_index`, which evaluates the Fraction formulas
of `indices` once per lattice point and raises if a value is off the lattice.
Reports convert back to Fractions, so they are the same as a Fraction sweep
of the same grid would give.  The property checker stays on Fractions: its
injectable index functions may return any denominator.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .indices import (
    NEG_INF,
    Exponent,
    as_fraction,
    canonical_split,
    classify_marstrand_type,
    furstenberg_index,
    marstrand_index,
)

_findex = lru_cache(maxsize=None)(furstenberg_index)
_mindex = lru_cache(maxsize=None)(marstrand_index)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class GridSpec:
    """A finite rational mesh: unit-fraction step plus (n, k) pairs to sweep."""

    step: Fraction
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "step", as_fraction(self.step))
        if self.step <= 0 or self.step.numerator != 1:
            raise ValueError("step must be a positive unit fraction like 1/12")
        for (n, k) in self.pairs:
            if not 1 <= k < n:
                raise ValueError(f"bad dimension pair ({n},{k})")

    def values(self, lo, hi, include_lo: bool = True, include_hi: bool = True):
        """Grid points in [lo, hi], optionally dropping either endpoint."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        q = self.step.denominator
        start = lo.numerator * q // lo.denominator  # lo is on-grid in our uses
        vals = []
        v = Fraction(start, q)
        while v < lo:
            v += self.step
        while v <= hi:
            vals.append(v)
            v += self.step
        if vals and not include_lo and vals[0] == lo:
            vals = vals[1:]
        if vals and not include_hi and vals[-1] == hi:
            vals = vals[:-1]
        return vals


@dataclass(frozen=True)
class CounterexampleReport:
    """One violated instance: witness values plus both sides and the deficit
    (positive exactly when reported)."""

    lemma: str
    witness: tuple[tuple[str, Fraction], ...]
    lhs: Exponent
    rhs: Exponent
    deficit: Fraction

    def witness_dict(self):
        return dict(self.witness)


def _report(lemma, witness, lhs, rhs, deficit):
    return CounterexampleReport(lemma, tuple(witness), lhs, rhs, deficit)


def _lattice_report(lemma, dims, D, witness, lhs, rhs):
    """A report from lattice numerators at scale D; `dims` are the integer
    (name, value) parameters, `witness` the (name, numerator) pairs."""
    return CounterexampleReport(
        lemma,
        tuple((name, Fraction(x)) for name, x in dims)
        + tuple((name, Fraction(x, D)) for name, x in witness),
        Fraction(lhs, D),
        Fraction(rhs, D),
        Fraction(abs(rhs - lhs), D),
    )


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
            + [str(w[f]) if f in w else "" for f in fields]
            + [str(r.lhs), str(r.rhs), str(r.deficit)]
        )
    return buf.getvalue()


def _scaled_index(index, D: int):
    """`index` on the lattice point (x/D, y/D; n, k), as the integer numerator
    of value * D, or None for NEG_INF.

    The cache is keyed on plain ints and lives for one checker call, whose
    scale D is fixed.  A miss evaluates `index` on Fractions, so the formulas
    exist only in `indices`; a value off the 1/D lattice raises, so the
    exactness of the scale is checked, not assumed.
    """

    # One Fraction per numerator, shared by the keys that `index`'s own cache
    # keeps; a fresh pair per key raised a lemma launch's peak RSS by ~0.2 MB.
    @lru_cache(maxsize=None)
    def frac(x: int) -> Fraction:
        return Fraction(x, D)

    @lru_cache(maxsize=None)
    def scaled(x: int, y: int, n: int, k: int):
        value = index(frac(x), frac(y), n, k)
        if value is NEG_INF:
            return None
        num, rem = divmod(value.numerator * D, value.denominator)
        if rem:
            raise ValueError(f"index value {value} is not on the 1/{D} lattice")
        return num

    return scaled


def _scale(grid: GridSpec, factor: int, slack: Fraction) -> tuple[int, int, int]:
    """The common scale D = lcm(factor * q, den(slack)) for step 1/q, the
    lattice stride g = D / q of the grid, and slack * D."""
    q = grid.step.denominator
    D = math.lcm(factor * q, slack.denominator)
    return D, D // q, slack.numerator * (D // slack.denominator)


def check_recursion_f1(k: int, grid: GridSpec, slack=ZERO) -> list[CounterexampleReport]:
    """Grid check of the one-dimension-up recursion for (k+1, k).

    Witnesses satisfy t1 + t2 = t, s1 + s2 = s, u + v = F(s1, t2; 2, 1) with
    t1 in [0, k-1], t2 in [0, 2], s1 in [0, 1], s2 in [0, s], u in [s1, 1],
    v in [0, 1]; v is derived and out-of-range witnesses are skipped, as are
    the witnesses whose inner tuple (s2, t1+v; k, k-1) falls outside the
    admissible domain (s2 > k - 1), where the index is undefined.

    The inequality checked is
        u + max{F(s2, t1+v; k, k-1), s2 + v} >= F(s, t; k+1, k) + slack.
    """
    if k < 2:
        raise ValueError("recursion needs k >= 2")
    slack = as_fraction(slack)
    D, g, eps = _scale(grid, 4, slack)
    F = _scaled_index(_findex, D)
    out = []
    for s in range(0, k * D + 1, g):
        for t in range(0, (k + 1) * D + 1, g):
            target = F(s, t, k + 1, k) + eps
            for t1 in range(max(0, t - 2 * D), min((k - 1) * D, t) + 1, g):
                t2 = t - t1
                for s1 in range(max(0, s - (k - 1) * D), min(D, s) + 1, g):
                    s2 = s - s1
                    f12 = F(s1, t2, 2, 1)
                    # u on the grid in [s1, 1] with v = f12 - u in [0, 1]
                    for u in range(max(s1, -((D - f12) // g) * g), min(D, f12) + 1, g):
                        v = f12 - u
                        lhs = u + max(F(s2, t1 + v, k, k - 1), s2 + v)
                        if lhs < target:
                            out.append(_lattice_report(
                                "recursion_f1", [("k", k)], D,
                                [("s", s), ("t", t), ("t1", t1), ("t2", t2),
                                 ("s1", s1), ("s2", s2), ("u", u), ("v", v)],
                                lhs, target,
                            ))
    return out


def check_recursion_f2(n: int, k: int, grid: GridSpec, slack=ZERO) -> list[CounterexampleReport]:
    """Grid check of the ambient-dimension recursion for n >= k + 2:

        F(s1, t1; n-1, k) + max{F(s, t2; k+1, k) - s1, 0}
            >= F(s, t; n, k) + slack

    over t1 in [0, (k+1)(n-k-1)], t2 = t - t1 in [0, k+1], s1 in [s, k].
    """
    if n < k + 2:
        raise ValueError("recursion needs n >= k + 2")
    slack = as_fraction(slack)
    D, g, eps = _scale(grid, 2, slack)
    F = _scaled_index(_findex, D)
    out = []
    for s in range(0, k * D + 1, g):
        for t in range(0, (k + 1) * (n - k) * D + 1, g):
            target = F(s, t, n, k) + eps
            for t1 in range(max(0, t - (k + 1) * D), min((k + 1) * (n - k - 1) * D, t) + 1, g):
                t2 = t - t1
                inner = F(s, t2, k + 1, k)
                for s1 in range(s, k * D + 1, g):
                    lhs = F(s1, t1, n - 1, k) + max(inner - s1, 0)
                    if lhs < target:
                        out.append(_lattice_report(
                            "recursion_f2", [("n", n), ("k", k)], D,
                            [("s", s), ("t", t), ("t1", t1), ("t2", t2), ("s1", s1)],
                            lhs, target,
                        ))
    return out


def check_recursion_m(n: int, k: int, grid: GridSpec, slack=ZERO) -> list[CounterexampleReport]:
    """Grid check of the exceptional-exponent recursion for n >= k + 2:

        M(a1, s1; n-1, k) + M(s1 + a - a1, s; k+1, k)
            <= M(a, s; n, k) - slack

    over a in (0, n], s in (a-(n-k), min{a, k}], a1 in [max{0, a-1},
    min{n-1, a}] with a1 > 0, s1 in (0, s].  A NEG_INF term absorbs the
    left side, which then cannot violate.
    """
    if n < k + 2:
        raise ValueError("recursion needs n >= k + 2")
    slack = as_fraction(slack)
    D, g, eps = _scale(grid, 1, slack)
    M = _scaled_index(_mindex, D)
    out = []
    for a in range(g, n * D + 1, g):
        for s in range(max(0, a - (n - k) * D) + g, min(a, k * D) + 1, g):
            rhs = M(a, s, n, k) - eps
            for a1 in range(max(g, a - D), min((n - 1) * D, a) + 1, g):
                for s1 in range(g, s + 1, g):
                    first = M(a1, s1, n - 1, k)
                    second = M(s1 + a - a1, s, k + 1, k)
                    if first is None or second is None:
                        continue
                    lhs = first + second
                    if lhs > rhs:
                        out.append(_lattice_report(
                            "recursion_m", [("n", n), ("k", k)], D,
                            [("a", a), ("s", s), ("a1", a1), ("s1", s1)],
                            lhs, rhs,
                        ))
    return out


def check_index_properties(
    grid: GridSpec,
    furstenberg_fn=None,
    marstrand_fn=None,
    lipschitz_constant=Fraction(2),
) -> list[CounterexampleReport]:
    """Run the index-property families over every (n, k) pair of the grid.

    Families: easybound (F >= s + max{0, t - k(n-k)}), t-Lipschitz
    (F(s, t1+t2) <= t1 + F(s, t2)), left-Lipschitz in s with the given
    constant, diagonal monotonicity of M, the easyM sandwich, the
    four-type partition, and -- for (2, 1) -- the closed forms of both
    indices.  Index functions are injectable so negative controls can
    falsify a formula and watch the checker notice.
    """
    F = lru_cache(maxsize=None)(furstenberg_fn) if furstenberg_fn else _findex
    M = lru_cache(maxsize=None)(marstrand_fn) if marstrand_fn else _mindex
    C = as_fraction(lipschitz_constant)
    out = []
    for (n, k) in grid.pairs:
        kk = k * (n - k)
        tmax = (k + 1) * (n - k)
        svals = grid.values(0, k)
        tvals = grid.values(0, tmax)

        for s in svals:
            for t in tvals:
                val = F(s, t, n, k)
                bound = s + max(ZERO, t - kk)
                if val < bound:
                    out.append(_report(
                        "easybound",
                        [("n", Fraction(n)), ("k", Fraction(k)), ("s", s), ("t", t)],
                        val, bound, bound - val))

        for s in svals:
            for t2 in tvals:
                base = F(s, t2, n, k)
                for t1 in grid.values(0, tmax - t2):
                    val = F(s, t1 + t2, n, k)
                    if val > t1 + base:
                        out.append(_report(
                            "t_lipschitz",
                            [("n", Fraction(n)), ("k", Fraction(k)), ("s", s),
                             ("t1", t1), ("t2", t2)],
                            val, t1 + base, val - (t1 + base)))

        for s in svals:
            if s == 0:
                continue
            _, sigma = canonical_split(s)
            for t in tvals:
                val = F(s, t, n, k)
                for theta in grid.values(0, sigma, include_hi=False):
                    # theta < sigma keeps s - theta inside the same piece (d unchanged)
                    lower = val - C * theta
                    shifted = F(s - theta, t, n, k)
                    if shifted < lower:
                        out.append(_report(
                            "left_lipschitz",
                            [("n", Fraction(n)), ("k", Fraction(k)), ("s", s),
                             ("t", t), ("theta", theta)],
                            shifted, lower, lower - shifted))

        avals = grid.values(0, n, include_lo=False)
        smvals = grid.values(0, k + 1, include_lo=False)

        for a in avals:
            for s in smvals:
                base = M(a, s, n, k)
                for theta in grid.values(0, min(a, s), include_hi=False):
                    moved = M(a - theta, s - theta, n, k)
                    if moved > base:
                        out.append(_report(
                            "m_diagonal",
                            [("n", Fraction(n)), ("k", Fraction(k)), ("a", a),
                             ("s", s), ("theta", theta)],
                            moved, base, moved - base))

        for a in avals:
            for s in grid.values(max(ZERO, a - (n - k)), min(a, Fraction(k)), include_lo=False):
                m_int, beta = canonical_split(a)
                l_int, gamma = canonical_split(s)
                upper = kk - (m_int - l_int) * (k - l_int) + max(
                    2 * gamma - (beta + 1), ZERO)
                lower = kk - (m_int + 1 - l_int) * (k - l_int) + max(
                    2 * gamma - beta, ZERO)
                val = M(a, s, n, k)
                if val > upper:
                    out.append(_report(
                        "easym_upper",
                        [("n", Fraction(n)), ("k", Fraction(k)), ("a", a), ("s", s)],
                        val, upper, val - upper))
                if val < lower:
                    out.append(_report(
                        "easym_lower",
                        [("n", Fraction(n)), ("k", Fraction(k)), ("a", a), ("s", s)],
                        val, lower, lower - val))

        for a in avals:
            for s in smvals:
                m_int, beta = canonical_split(a)
                l_int, gamma = canonical_split(s)
                conds = [
                    s > min(a, Fraction(k)),
                    s <= min(a, Fraction(k))
                    and l_int + 1 <= m_int <= n + l_int - k
                    and gamma > beta,
                    s <= min(a, Fraction(k))
                    and l_int <= m_int <= n + l_int - k - 1
                    and gamma <= beta,
                    s <= a - (n - k),
                ]
                if sum(conds) != 1 or classify_marstrand_type(a, s, n, k) != conds.index(True) + 1:
                    out.append(_report(
                        "type_partition",
                        [("n", Fraction(n)), ("k", Fraction(k)), ("a", a), ("s", s)],
                        Fraction(sum(conds)), ONE, ONE))

        if (n, k) == (2, 1):
            for s in grid.values(0, 1, include_lo=False):
                for t in grid.values(0, 2):
                    val = F(s, t, 2, 1)
                    closed = min(s + t, 3 * s / 2 + t / 2, s + 1)
                    if val != closed:
                        out.append(_report(
                            "closed_form_f21",
                            [("s", s), ("t", t)],
                            val, closed, abs(closed - val)))
            for a in grid.values(0, 2, include_lo=False):
                for s in grid.values(0, 2, include_lo=False):
                    val = M(a, s, 2, 1)
                    if s > min(a, ONE):
                        closed = ONE
                    elif s > a - 1:
                        closed = max(ZERO, 2 * s - a)
                    else:
                        closed = NEG_INF
                    if val != closed:
                        out.append(_report(
                            "closed_form_m21",
                            [("a", a), ("s", s)],
                            val, closed, ONE))
    return out
