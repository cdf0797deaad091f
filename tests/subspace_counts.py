"""Direction counts and families the tests check the witnesses against."""

from fpfurst.exceptional import _rectangle, _theta_families
from fpfurst.flags import gaussian_binomial
from fpfurst.indices import marstrand_params


def degenerate_direction_count(n, k, m, l, p):
    """D: the number of V in G(n-k, F_p^n) with #proj_V(F_p^m) = p^l and
    #proj_V(F_p^2 x F_p^m) = p^(l+1), with j = m - l and d = n - k."""
    j, d = m - l, n - k
    return (
        gaussian_binomial(m, j, p)
        * (p ** (l + 2) - p**l)
        // (p - 1)
        * p ** ((l + 1) * (d - j - 1))
        * gaussian_binomial(n - m - 2, d - j - 1, p)
    )


def product_sides(pr):
    """(m, beta) of an excess piece's rectangle product R x F_p^m: type 3's
    own, and type 2's at a = (m-1) + (beta+1)."""
    return (pr.m, pr.beta) if pr.mtype == 3 else (pr.m - 1, pr.beta + 1)


def type3_direction_families(a, s, n, k, p):
    """The per-theta families of the rectangle-product branches, in
    `exceptional_set` order: `_theta_families` on the branch's rectangle."""
    pr = marstrand_params(a, s, n, k)
    if pr.piece not in ("2-excess", "3-excess"):
        raise ValueError("no rectangle-product branch applies to these parameters")
    m, beta_eff = product_sides(pr)
    return _theta_families(_rectangle(beta_eff, pr.gamma, p), pr.gamma, n, k, p, m, pr.l)[1]
