"""Closed-form direction counts the tests check enumeration against."""

from fpfurst.flags import gaussian_binomial


def small_projection_count(n, k, m, l, p):
    """#{V in G(n-k, F_p^n) : #proj_V(W) <= p^l} for an m-subspace W, exactly.

    #proj_V(W) = p^(m - dim(V & W)), and the (n-k)-subspaces meeting W in
    dimension exactly j number p^((m-j)(n-k-j)) [m, j]_p [n-m, n-k-j]_p (the
    q-analogue count; Stanley, Enumerative Combinatorics I, 1.7).
    """
    d = n - k
    return sum(
        p ** ((m - j) * (d - j)) * gaussian_binomial(m, j, p) * gaussian_binomial(n - m, d - j, p)
        for j in range(max(m - l, 0), min(m, d) + 1)
        if d - j <= n - m
    )


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
