"""The exhaustive lattice sweeps of the two F recursions: every witness of
every outer point is evaluated and compared with the target, in the order
the checkers of `fpfurst.lemmas` report them.

The checkers skip an inner sweep where a lower bound on its left side reaches
the target; these loops skip nothing.  Both read `fpfurst.lemmas`'s
`_furstenberg_scaled` when called, so a test that patches it patches the
oracle too.
"""

from fpfurst import lemmas


def check_recursion_f1(k, grid, slack=0):
    lemmas._check_pair(k + 1, k)
    F, D, g, eps, out, report = lemmas._frame(grid, 4, slack, lemmas._furstenberg_scaled)
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
                            report("recursion_f1", [("k", k)], lhs, target, s=s, t=t,
                                   t1=t1, t2=t2, s1=s1, s2=s2, u=u, v=v)
    return out


def check_recursion_f2(n, k, grid, slack=0):
    lemmas._check_pair(n, k)
    F, D, g, eps, out, report = lemmas._frame(grid, 2, slack, lemmas._furstenberg_scaled)
    for s in range(0, k * D + 1, g):
        for t in range(0, (k + 1) * (n - k) * D + 1, g):
            target = F(s, t, n, k) + eps
            for t1 in range(max(0, t - (k + 1) * D), min((k + 1) * (n - k - 1) * D, t) + 1, g):
                t2 = t - t1
                inner = F(s, t2, k + 1, k)
                for s1 in range(s, k * D + 1, g):
                    lhs = F(s1, t1, n - 1, k) + max(inner - s1, 0)
                    if lhs < target:
                        report("recursion_f2", [("n", n), ("k", k)], lhs, target,
                               s=s, t=t, t1=t1, t2=t2, s1=s1)
    return out
