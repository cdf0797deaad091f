"""Exact rational-power arithmetic and the two piecewise index functions.

Everything here is exact: exponents are `Fraction`s, every comparison of a
count c against coeff * p^e is an int comparison with the threshold
`floor_scaled_power` or `ceil_scaled_power`, computed once from
`integer_nth_root` (`c < p^e` iff `c < ceil(p^e)`), and minus infinity is a
distinguished value rather than a float sentinel.

The two index functions:

* ``furstenberg_index(s, t, n, k)`` -- the conjectured sharp exponent for the
  minimum size of a family-of-flats set: a union of >= p^t many k-flats of
  F_p^n, each carrying >= p^s points.
* ``marstrand_index(a, s, n, k)`` -- the sharp exponent for the maximum number
  of directions V in G(n-k, F_p^n) onto which a p^a-sized set can project to
  fewer than p^s cosets; minus infinity encodes "that exceptional set is
  empty".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class NegInfinity:
    """Bottom element adjoined to the rationals.

    Compares below every number, absorbs addition.  A single instance,
    ``NEG_INF``, is used everywhere.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("NegInfinity")

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__


NEG_INF = NegInfinity()

Exponent = Union[Fraction, NegInfinity]


def as_fraction(x) -> Fraction:
    """Convert to an exact rational; floats are rejected on principle."""
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass an int, Fraction or 'num/den'")
    if isinstance(x, str) and any(c in x for c in ".eE"):
        raise ValueError("rationals must be num/den")
    return Fraction(x)


def canonical_split(x) -> tuple[int, Fraction]:
    """Write a positive rational as d + sigma with d a nonnegative integer and
    sigma in the half-open interval (0, 1].

    Integers deliberately split as (x-1, 1): the fractional part is closed at
    1, which is what decides every boundary case of the index functions.
    """
    x = as_fraction(x)
    if x <= 0:
        raise ValueError(f"canonical_split needs a positive rational, got {x}")
    d = (x.numerator - 1) // x.denominator
    return d, x - d


def integer_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for nonnegative integer x, by Newton iteration."""
    if x < 0 or n < 1:
        raise ValueError("integer_nth_root needs x >= 0, n >= 1")
    if x < 2 or n == 1:
        return x
    r = 1 << -((-x.bit_length()) // n)  # >= true root
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


def ceil_rational_power(p: int, e) -> int:
    """Exact ceil(p**e) for a nonnegative rational exponent e."""
    return ceil_scaled_power(1, p, e)


def floor_scaled_power(coeff, p: int, e) -> int:
    """Exact floor(coeff * p**e); `c <= coeff * p**e` iff `c <= floor`."""
    return _scaled_root(coeff, p, e)[0]


def ceil_scaled_power(coeff, p: int, e) -> int:
    """Exact ceil(coeff * p**e); `c < coeff * p**e` iff `c < ceil`, and
    `c >= coeff * p**e` iff `c >= ceil`."""
    f, exact = _scaled_root(coeff, p, e)
    return f if exact else f + 1


def _scaled_root(coeff, p: int, e) -> tuple[int, bool]:
    """floor(coeff * p**e) and whether it is attained, for a positive
    rational coeff = a/b and a nonnegative rational e = r/d.

    coeff * p**e = (a**d * p**r)**(1/d) / b, and the inner floor of the d-th
    root loses nothing, since no integer lies strictly between it and the root.
    """
    coeff, e = as_fraction(coeff), as_fraction(e)
    if coeff <= 0 or e < 0:
        raise ValueError(f"need a positive coefficient and a nonnegative exponent, got {coeff}, {e}")
    b, d = coeff.denominator, e.denominator
    big = coeff.numerator ** d * p ** e.numerator
    f = integer_nth_root(big, d) // b
    return f, (f * b) ** d == big


def is_admissible(s, t, n: int, k: int) -> bool:
    """Whether (s, t; n, k) is in the domain of the Furstenberg index."""
    s, t = as_fraction(s), as_fraction(t)
    return 1 <= k < n and 0 <= s <= k and 0 <= t <= (k + 1) * (n - k)


@dataclass(frozen=True)
class FurstenbergParams:
    """An admissible tuple together with its canonical decomposition.

    For s > 0, s = d + sigma with sigma in (0,1].  Outside the flat
    low-t regime, t = (k-d-1)(n-k) + (d+2)m + tau with m in {0,..,n-k-1}
    and tau in (0, d+2].  ``case`` is one of "a", "b", "c", "d".
    """

    s: Fraction
    t: Fraction
    n: int
    k: int
    case: str
    d: int | None = None
    sigma: Fraction | None = None
    m: int | None = None
    tau: Fraction | None = None


def furstenberg_params(s, t, n: int, k: int) -> FurstenbergParams:
    s, t = as_fraction(s), as_fraction(t)
    if not is_admissible(s, t, n, k):
        raise ValueError(f"({s},{t};{n},{k}) is not admissible")
    if s == 0:
        return FurstenbergParams(s, t, n, k, "a")
    d, sigma = canonical_split(s)
    if t <= (k - d - 1) * (n - k):
        return FurstenbergParams(s, t, n, k, "b", d, sigma)
    tprime = t - (k - d - 1) * (n - k)
    # m = ceil(tprime / (d+2)) - 1, so that tau lands in (0, d+2]
    m = (tprime.numerator - 1) // (tprime.denominator * (d + 2))
    tau = tprime - (d + 2) * m
    assert 0 < tau <= d + 2 and 0 <= m <= n - k - 1, (s, t, n, k, m, tau)
    case = "c" if tau <= 2 else "d"
    return FurstenbergParams(s, t, n, k, case, d, sigma, m, tau)


def furstenberg_index(s, t, n: int, k: int) -> Fraction:
    """The piecewise-defined sharp exponent for family-of-flats sets.

    Cases: (a) s=0 gives max{0, t - k(n-k)}; (b) small t gives s;
    (c) tau <= 2 gives s + m + min{tau, (sigma+tau)/2, 1};
    (d) tau > 2 gives s + m + 1.
    """
    pr = furstenberg_params(s, t, n, k)
    if pr.case == "a":
        return max(Fraction(0), pr.t - k * (n - k))
    if pr.case == "b":
        return pr.s
    if pr.case == "c":
        return pr.s + pr.m + min(pr.tau, (pr.sigma + pr.tau) / 2, Fraction(1))
    return pr.s + pr.m + 1


@dataclass(frozen=True)
class MarstrandParams:
    """Canonical decomposition a = m + beta, s = l + gamma plus the type tag."""

    a: Fraction
    s: Fraction
    n: int
    k: int
    m: int
    beta: Fraction
    l: int
    gamma: Fraction
    mtype: int


def marstrand_params(a, s, n: int, k: int) -> MarstrandParams:
    a, s = as_fraction(a), as_fraction(s)
    if not (1 <= k < n):
        raise ValueError(f"need 1 <= k < n, got ({n},{k})")
    if not (0 < a <= n):
        raise ValueError(f"a must lie in (0, n], got {a}")
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    m, beta = canonical_split(a)
    l, gamma = canonical_split(s)
    if s > min(a, Fraction(k)):
        mtype = 1
    elif s <= a - (n - k):
        mtype = 4
    elif gamma > beta:
        mtype = 2
        assert l + 1 <= m <= n + l - k, (a, s, n, k)
    else:
        mtype = 3
        assert l <= m <= n + l - k - 1, (a, s, n, k)
    return MarstrandParams(a, s, n, k, m, beta, l, gamma, mtype)


def classify_marstrand_type(a, s, n: int, k: int) -> int:
    """The unique applicable type in {1, 2, 3, 4}."""
    return marstrand_params(a, s, n, k).mtype


def marstrand_index(a, s, n: int, k: int) -> Exponent:
    """Sharp exceptional-set exponent; NEG_INF for type 4 (empty set)."""
    pr = marstrand_params(a, s, n, k)
    kk = pr.k * (pr.n - pr.k)
    if pr.mtype == 1:
        return Fraction(kk)
    if pr.mtype == 2:
        return kk - (pr.m - pr.l) * (pr.k - pr.l) + max(
            2 * pr.gamma - (pr.beta + 1), Fraction(0)
        )
    if pr.mtype == 3:
        return kk - (pr.m + 1 - pr.l) * (pr.k - pr.l) + max(
            2 * pr.gamma - pr.beta, Fraction(0)
        )
    return NEG_INF
