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

Both are piecewise affine with coefficients in {1, 1/2}.  Their split into
pieces is written once, on the numerators x of x/D at one scale D, and names
each piece by a plain string that the constructions and witnesses dispatch
on: the case, plus the term that attains F's min or max or M's max(., 0),
ties going to the earlier term and to 0.  F's pieces are a-zero, a-excess
(t - k(n-k)), b, c-tau, c-mean ((sigma + tau)/2), c-one and d; M's are 1,
2-zero, 2-excess (2gamma - beta - 1), 3-zero, 3-excess (2gamma - beta) and 4.
`_furstenberg_scaled` returns F * D by its piece's formula, and raises
ValueError where c-mean's (sigma + tau)/2 is off the lattice;
`_marstrand_scaled` returns M * D or NEG_INF.  The Fraction functions are
views at D = lcm of their inputs' denominators, doubled for F so that
(sigma + tau)/2 lies on the lattice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Union

from .primefield import _Record


@total_ordering
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


def _split(x: int, D: int) -> tuple[int, int]:
    """x/D = d + sigma/D with d >= 0 an integer and sigma in (0, D], for a
    positive numerator x; an integer splits as (x/D - 1, D), the fractional
    part closed at 1, which decides every boundary case of the indices."""
    d = (x - 1) // D
    return d, x - d * D


def _lattice(x: Fraction, y: Fraction, scale: int) -> tuple[int, int, int]:
    """D = scale * lcm(den x, den y), then x * D and y * D."""
    D = scale * math.lcm(x.denominator, y.denominator)
    return D, x.numerator * D // x.denominator, y.numerator * D // y.denominator


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


class FurstenbergParams(_Record):
    """An admissible tuple together with its canonical decomposition.

    For s > 0, s = d + sigma with sigma in (0,1].  Outside the flat
    low-t regime, t = (k-d-1)(n-k) + (d+2)m + tau with m in {0,..,n-k-1}
    and tau in (0, d+2].  ``case``, the piece label's first letter, is one
    of "a", "b", "c", "d".
    """

    def __init__(self, s: Fraction, t: Fraction, n: int, k: int, piece: str, d: int | None = None,
                 sigma: Fraction | None = None, m: int | None = None, tau: Fraction | None = None):
        self._set_fields(s, t, n, k, piece, d, sigma, m, tau)

    case = property(lambda self: self.piece[0])


def _furstenberg_piece(s: int, t: int, n: int, k: int, D: int):
    """The piece of an admissible (s/D, t/D; n, k): (piece, d, sigma, m,
    tau), sigma and tau at scale D, and None for the parts a case lacks."""
    if s == 0:
        return ("a-zero" if t <= k * (n - k) * D else "a-excess"), None, None, None, None
    d, sigma = _split(s, D)
    low = (k - d - 1) * (n - k) * D
    if t <= low:
        return "b", d, sigma, None, None
    m, tau = _split(t - low, (d + 2) * D)
    piece = ("d" if tau > 2 * D else "c-tau" if tau <= sigma
             else "c-mean" if sigma + tau <= 2 * D else "c-one")
    return piece, d, sigma, m, tau


def _furstenberg_scaled(s: int, t: int, n: int, k: int, D: int) -> int:
    """F(s/D, t/D; n, k) * D for an admissible tuple, by its piece's formula;
    ValueError on the c-mean piece where (sigma + tau)/2 is off the 1/D
    lattice."""
    piece, _, sigma, m, tau = _furstenberg_piece(s, t, n, k, D)
    if piece[0] == "a":
        return 0 if piece == "a-zero" else t - k * (n - k) * D
    if piece == "b":
        return s
    if piece == "c-mean" and (sigma + tau) % 2:
        raise ValueError(f"F({s}/{D}, {t}/{D}; {n}, {k}) is not on the 1/{D} lattice")
    return s + m * D + (tau if piece == "c-tau" else (sigma + tau) // 2 if piece == "c-mean" else D)


def _furstenberg_domain(s, t, n: int, k: int) -> tuple[Fraction, Fraction]:
    """s and t as Fractions; ValueError unless (s, t; n, k) is admissible."""
    s, t = as_fraction(s), as_fraction(t)
    if not is_admissible(s, t, n, k):
        raise ValueError(f"({s},{t};{n},{k}) is not admissible")
    return s, t


def furstenberg_params(s, t, n: int, k: int) -> FurstenbergParams:
    s, t = _furstenberg_domain(s, t, n, k)
    D, x, y = _lattice(s, t, 2)
    piece, d, sigma, m, tau = _furstenberg_piece(x, y, n, k, D)
    sigma, tau = sigma and Fraction(sigma, D), tau and Fraction(tau, D)  # None stays None
    return FurstenbergParams(s, t, n, k, piece, d, sigma, m, tau)


def furstenberg_index(s, t, n: int, k: int) -> Fraction:
    """The piecewise-defined sharp exponent for family-of-flats sets.

    Cases: (a) s=0 gives max{0, t - k(n-k)}; (b) small t gives s;
    (c) tau <= 2 gives s + m + min{tau, (sigma+tau)/2, 1};
    (d) tau > 2 gives s + m + 1.
    """
    D, x, y = _lattice(*_furstenberg_domain(s, t, n, k), 2)
    return Fraction(_furstenberg_scaled(x, y, n, k, D), D)


class MarstrandParams(_Record):
    """Canonical decomposition a = m + beta, s = l + gamma plus M's piece
    label, whose first character is the type tag."""

    def __init__(self, a: Fraction, s: Fraction, n: int, k: int, m: int, beta: Fraction, l: int,
                 gamma: Fraction, piece: str):
        self._set_fields(a, s, n, k, m, beta, l, gamma, piece)

    mtype = property(lambda self: int(self.piece[0]))


def _marstrand_piece(a: int, s: int, n: int, k: int, D: int):
    """The piece of (a/D, s/D; n, k): (piece, m, beta, l, gamma), beta and
    gamma at scale D."""
    (m, beta), (l, gamma) = _split(a, D), _split(s, D)
    if s > min(a, k * D):
        return "1", m, beta, l, gamma
    if s <= a - (n - k) * D:
        return "4", m, beta, l, gamma
    if gamma > beta:
        return ("2-excess" if 2 * gamma > beta + D else "2-zero"), m, beta, l, gamma
    return ("3-excess" if 2 * gamma > beta else "3-zero"), m, beta, l, gamma


def _marstrand_scaled(a: int, s: int, n: int, k: int, D: int):
    """M(a/D, s/D; n, k) * D by its piece's formula, or NEG_INF for type 4."""
    piece, m, beta, l, gamma = _marstrand_piece(a, s, n, k, D)
    kk = k * (n - k) * D
    if piece == "1":
        return kk
    if piece == "4":
        return NEG_INF
    if piece[0] == "2":
        return kk - (m - l) * (k - l) * D + (2 * gamma - beta - D if piece == "2-excess" else 0)
    return kk - (m + 1 - l) * (k - l) * D + (2 * gamma - beta if piece == "3-excess" else 0)


def _marstrand_domain(a, s, n: int, k: int) -> tuple[Fraction, Fraction]:
    """a and s as Fractions; ValueError unless (a, s; n, k) is in M's domain."""
    a, s = as_fraction(a), as_fraction(s)
    if not (1 <= k < n):
        raise ValueError(f"need 1 <= k < n, got ({n},{k})")
    if not (0 < a <= n):
        raise ValueError(f"a must lie in (0, n], got {a}")
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    return a, s


def marstrand_params(a, s, n: int, k: int) -> MarstrandParams:
    a, s = _marstrand_domain(a, s, n, k)
    D, x, y = _lattice(a, s, 1)
    piece, m, beta, l, gamma = _marstrand_piece(x, y, n, k, D)
    return MarstrandParams(a, s, n, k, m, Fraction(beta, D), l, Fraction(gamma, D), piece)


def marstrand_index(a, s, n: int, k: int) -> Exponent:
    """Sharp exceptional-set exponent; NEG_INF for type 4 (empty set)."""
    D, x, y = _lattice(*_marstrand_domain(a, s, n, k), 1)
    value = _marstrand_scaled(x, y, n, k, D)
    return value if value is NEG_INF else Fraction(value, D)
