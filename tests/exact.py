"""Exact rational dynamic programming on small trees, the yardstick of the
float tree solvers.

``Fraction(x)`` reads a float exactly, so :func:`exact_dp` solves the very
tree the float code solves: the tree's branch probabilities, edge returns and
claim values, as stored.  Each node's problem,
min sum_j p_j ell_j (G_j . x - v_j)^2 over holdings x with x . ones = w (G_j
the gross returns of child j), is solved from its KKT system by Gaussian
elimination, once for w = 0 and once for w = 1.  The minimizer is unique
exactly when the KKT matrix is nonsingular; with a duplicated asset it is
not, and then the node has no holdings, though its value function and the
wealth of its children are still unique.  The arithmetic is exact, so a
40-node tree takes a fraction of a second and an 85-node tree a few.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class ExactResult:
    """Value-function coefficients and the realized strategy, as fractions.

    ``ell``, ``v`` and ``e`` are in node order, as in ``DpResult``;
    ``holdings[i]`` is the holdings vector of non-terminal node i along the
    tree, or None where its minimizer is not unique; ``wealth`` is every
    node's wealth for the given initial wealth.
    """

    ell: list
    v: list
    e: list
    holdings: list
    wealth: list
    objective: Fraction

    def floats(self, name):
        """The named node array as float64, rounded once from the exact value."""
        return np.array([float(x) for x in getattr(self, name)])


def _solve(M, rhs):
    """A solution of M X = rhs by Gauss-Jordan elimination, free unknowns at 0.

    ``M`` is square and ``rhs`` a list of columns; the system must be
    consistent.  Returns the columns of X and whether M is nonsingular.
    """
    n = len(M)
    rows = [list(M[i]) + [col[i] for col in rhs] for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        k = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        assert all(x == 0 for x in rows[i][n:]), "inconsistent KKT system"
    cols = []
    for j in range(len(rhs)):
        x = [Fraction(0)] * n
        for i, c in enumerate(pivots):
            x[c] = rows[i][n + j]
        cols.append(x)
    return cols, r == n


def exact_dp(tree, claim, w0):
    """Exact backward induction for min E[(wealth_T - H)^2] with wealth ``w0``."""
    n, n_int, d = len(tree.ids), tree.n_internal, tree.d
    prob = [Fraction(float(p)) for p in tree.prob]
    gross = [[1 + Fraction(float(x)) for x in row] for row in tree.rets]
    first = np.searchsorted(tree.parent, np.arange(n_int + 1)).tolist()
    ell = [Fraction(1)] * n
    v = [Fraction(0)] * n
    e = [Fraction(0)] * n
    for i, t in enumerate(tree.terminal_ids):
        v[n_int + i] = Fraction(
            float(claim.constant if claim.payoff is None else claim.payoff[t])
        )
    policy = [None] * n_int
    for i in reversed(range(n_int)):
        kids = range(first[i], first[i + 1])
        weight = {j: prob[j] * ell[j] for j in kids}
        kkt = [
            [sum(weight[j] * gross[j][a] * gross[j][b] for j in kids) for b in range(d)]
            + [Fraction(1)]
            for a in range(d)
        ]
        kkt.append([Fraction(1)] * d + [Fraction(0)])
        target = [sum(weight[j] * v[j] * gross[j][a] for j in kids) for a in range(d)]
        (x0, x1), unique = _solve(kkt, [target + [0], [0] * d + [1]])
        x0, x1 = x0[:d], x1[:d]
        miss = {j: sum(g * x for g, x in zip(gross[j], x0)) - v[j] for j in kids}
        slope = {j: sum(g * x for g, x in zip(gross[j], x1)) for j in kids}
        ell[i] = sum(weight[j] * slope[j] ** 2 for j in kids)
        cross = sum(weight[j] * miss[j] * slope[j] for j in kids)
        v[i] = -cross / ell[i]
        e[i] = (
            sum(weight[j] * miss[j] ** 2 for j in kids)
            - cross**2 / ell[i]
            + sum(prob[j] * e[j] for j in kids)
        )
        policy[i] = (x0, x1, unique)
    wealth = [Fraction(0)] * n
    wealth[0] = Fraction(float(w0))
    holdings = [None] * n_int
    for i in range(n_int):
        x0, x1, unique = policy[i]
        x = [a + wealth[i] * b for a, b in zip(x0, x1)]
        if unique:
            holdings[i] = x
        for j in range(first[i], first[i + 1]):
            wealth[j] = sum(g * h for g, h in zip(gross[j], x))
    objective = ell[0] * (wealth[0] - v[0]) ** 2 + e[0]
    return ExactResult(ell, v, e, holdings, wealth, objective)
