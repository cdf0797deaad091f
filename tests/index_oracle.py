"""The tests' Fraction formulas for both indices: every step of the case split
in exact rationals, as the paper states it, with no lattice.

Each params' piece label is decided by the conditions the constructions and
witnesses dispatched on before they read the label: the origin pencil while
t <= k(n-k), the 2-D construction's chain on (sigma, tau), and the rectangle
product for type 3 with gamma > beta/2 and type 2 with gamma > (beta+1)/2.
"""

from fractions import Fraction

from fpfurst.indices import (
    NEG_INF,
    FurstenbergParams,
    MarstrandParams,
    as_fraction,
    is_admissible,
)


def canonical_split(x):
    """x = d + sigma with d a nonnegative integer and sigma in (0, 1]."""
    x = as_fraction(x)
    if x <= 0:
        raise ValueError(f"canonical_split needs a positive rational, got {x}")
    d = (x.numerator - 1) // x.denominator
    return d, x - d


def furstenberg_params(s, t, n, k):
    s, t = as_fraction(s), as_fraction(t)
    if not is_admissible(s, t, n, k):
        raise ValueError(f"({s},{t};{n},{k}) is not admissible")
    if s == 0:
        return FurstenbergParams(s, t, n, k, "a-zero" if t <= k * (n - k) else "a-excess")
    d, sigma = canonical_split(s)
    if t <= (k - d - 1) * (n - k):
        return FurstenbergParams(s, t, n, k, "b", d, sigma)
    tprime = t - (k - d - 1) * (n - k)
    # m = ceil(tprime / (d+2)) - 1, so that tau lands in (0, d+2]
    m = (tprime.numerator - 1) // (tprime.denominator * (d + 2))
    tau = tprime - (d + 2) * m
    if tau > 2:
        piece = "d"
    elif tau <= sigma:
        piece = "c-tau"
    elif tau <= 2 - sigma:
        piece = "c-mean"
    else:
        piece = "c-one"
    return FurstenbergParams(s, t, n, k, piece, d, sigma, m, tau)


def furstenberg_index(s, t, n, k):
    pr = furstenberg_params(s, t, n, k)
    if pr.case == "a":
        return max(Fraction(0), pr.t - k * (n - k))
    if pr.case == "b":
        return pr.s
    if pr.case == "c":
        return pr.s + pr.m + min(pr.tau, (pr.sigma + pr.tau) / 2, Fraction(1))
    return pr.s + pr.m + 1


def marstrand_params(a, s, n, k):
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
        piece = "1"
    elif s <= a - (n - k):
        piece = "4"
    elif gamma > beta:
        piece = "2-excess" if gamma > (beta + 1) / 2 else "2-zero"
    else:
        piece = "3-excess" if gamma > beta / 2 else "3-zero"
    return MarstrandParams(a, s, n, k, m, beta, l, gamma, piece)


def marstrand_index(a, s, n, k):
    pr = marstrand_params(a, s, n, k)
    kk = k * (n - k)
    if pr.mtype == 1:
        return Fraction(kk)
    if pr.mtype == 2:
        return kk - (pr.m - pr.l) * (k - pr.l) + max(2 * pr.gamma - (pr.beta + 1), Fraction(0))
    if pr.mtype == 3:
        return kk - (pr.m + 1 - pr.l) * (k - pr.l) + max(2 * pr.gamma - pr.beta, Fraction(0))
    return NEG_INF
