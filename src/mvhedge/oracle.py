"""Independent ground truth for the hedging engine.

Contains an exact dynamic-programming solver for quadratic hedging on finite
event trees (value functions are quadratics in wealth, solved level by level
with the closed-form constrained QP), a checker for the numeraire-change
equivalence, and a seeded Monte Carlo simulator of feedback strategies.

The DP makes no use of the engine's weighted-moment recursions: it works
directly on the children's value-function coefficients, so agreement between
the two is a genuine cross-check.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import qp
from .engine import LocalArbitrageError, TreeSolution, _pii_segment_table
from .linalg import DEFAULT_CTX, InvalidInputError
from .models import (
    MAX_STEPS,
    Claim,
    FiniteTreeModel,
    IidDiscreteModel,
    PiiItoModel,
    _quad,
    _rowdot,
    discount_tree,
)

__all__ = [
    "DpResult",
    "SimReport",
    "NumeraireCheckReport",
    "dp_solve",
    "numeraire_change_check",
    "mc_simulate",
    "enumerate_terminal_wealth",
    "ENUMERATION_THRESHOLD",
]

ENUMERATION_THRESHOLD = 10**6
_RNG_BLOCK = 1 << 14
_DRAW_FLOATS = 1 << 19


@dataclass(frozen=True)
class DpResult:
    """Exact DP solution in the tree's node order.

    The value function at node i is min future error = ell[i] (w - v[i])^2 +
    e[i] over wealth w.  ``policy[i]`` is the pair (pi0, pi1) of the
    non-terminal node i, with optimal holdings pi0 + wealth * pi1;
    ``holdings`` (non-terminal nodes) and ``wealth`` (all nodes) are the
    realized values along the tree for the given initial wealth.
    """

    ell: np.ndarray
    v: np.ndarray
    e: np.ndarray
    policy: np.ndarray
    holdings: np.ndarray
    wealth: np.ndarray
    objective: float


def dp_solve(tree, claim, v, ctx=DEFAULT_CTX):
    """Exact backward induction for min E[(wealth_T - H)^2] on a finite tree.

    At each node the continuation value is a quadratic in wealth whose
    coefficients follow from one closed-form constrained QP per unit of the
    wealth decomposition; the objective for initial wealth v is
    ell_root (v - v_root)^2 + e_root.  Each level is one array step over the
    children's value-function coefficients around one stacked QP (ones' is
    factored once per tree).  Holdings and wealth come from one wealth roll of
    the policy pi0 + wealth * pi1.
    """
    n, n_int, d = len(tree.ids), tree.n_internal, tree.d
    ell, vals, errs = np.ones(n), np.empty(n), np.zeros(n)
    vals[n_int:] = [claim.value_at(t) for t in tree.terminal_ids]
    policy = np.empty((n_int, 2, d))
    ones = qp.Constraint(np.ones((1, d)), ctx)
    for here, kids, sums, _ in reversed(tree.levels):
        p, R = tree.prob[kids], tree.rets[kids]
        pl, vv = p * ell[kids], vals[kids]
        C = sums(R[:, :, None] * (R * pl[:, None])[:, None, :])
        C = 0.5 * (C + C.transpose(0, 2, 1))
        F0 = sums((pl * vv)[:, None] * R)
        F1 = -sums(pl[:, None] * R)
        problem = qp.QpProblem(C, np.stack([F0, F1], axis=-1), ones, [[0.0, 1.0]], ctx)
        try:
            policy[here] = qp.solve(problem).x_hat.transpose(0, 2, 1)
        except qp.UnboundedBelowError as err:
            raise LocalArbitrageError(
                "one-step hedging problem is unbounded below",
                where=f"node {tree.ids[here.start + err.index]!r}",
                certificate=err.direction,
            ) from err
        pi0, pi1 = policy[here, 0], policy[here, 1]
        a2 = _quad(pi1, C, pi1) - 2.0 * _rowdot(pi1, F1) + sums(pl)
        a1 = 2.0 * _quad(pi0, C, pi1) - 2.0 * _rowdot(pi0, F1)
        a1 = a1 - 2.0 * _rowdot(pi1, F0) - 2.0 * sums(pl * vv)
        a0 = _quad(pi0, C, pi0) - 2.0 * _rowdot(pi0, F0)
        a0 = a0 + (sums(pl * vv**2) + sums(p * errs[kids]))
        if np.any(a2 <= 1e-12):
            raise LocalArbitrageError(
                "value function degenerates: wealth has no quadratic cost, so a "
                "fully invested portfolio attains zero conditional second moment",
                where=f"node {tree.ids[here.start + int(np.argmax(a2 <= 1e-12))]!r}",
            )
        ell[here] = a2
        vals[here] = -a1 / (2.0 * a2)
        errs[here] = a0 - a1**2 / (4.0 * a2)
    holdings, wealth = tree.roll_wealth(
        lambda nodes, w: policy[nodes, 0] + w[:, None] * policy[nodes, 1], v
    )
    objective = float(ell[0] * (float(v) - vals[0]) ** 2 + errs[0])
    return DpResult(ell, vals, errs, policy, holdings, wealth, objective)


@dataclass(frozen=True)
class NumeraireCheckReport:
    """Outcome of the hedging-equivalence check under a numeraire change.

    The undiscounted objective must equal ``terminal_second_moment`` (the
    numeraire's E[X_T^2]) times the discounted objective, and the share
    holdings must coincide node by node.
    """

    numeraire_index: int
    objective: float
    objective_discounted: float
    terminal_second_moment: float
    objective_gap: float
    max_holdings_gap: float

    def passed(self, tol=1e-9):
        scale = 1.0 + abs(self.objective)
        return (
            self.objective_gap <= tol * scale
            and self.max_holdings_gap <= tol
        )


def numeraire_change_check(tree, claim, numeraire_index, v, ctx=DEFAULT_CTX):
    """Solve the problem with and without discounting by one asset and compare.

    Discounting divides prices pathwise by the chosen strictly positive asset,
    reweights probabilities by its conditional terminal second moment, divides
    the claim by X_T and the initial wealth by X_0.  The optimal share
    holdings are invariant and the objectives differ by the factor E[X_T^2].
    """
    return _numeraire_report(
        tree, claim, numeraire_index, v, dp_solve(tree, claim, v, ctx), ctx
    )


def _numeraire_report(tree, claim, numeraire_index, v, base, ctx):
    """:func:`numeraire_change_check` given its undiscounted ``base`` DP result."""
    j = int(numeraire_index)
    disc_tree, weights = discount_tree(tree, j, ctx)
    m2 = weights[0]
    n_int = tree.n_internal
    disc_claim = Claim(
        payoff={
            t: claim.value_at(t) / x
            for t, x in zip(tree.terminal_ids, tree.prices[n_int:, j])
        }
    )
    v_hat = float(v) / tree.prices[0, j]
    disc = dp_solve(disc_tree, disc_claim, v_hat, ctx)
    objective_gap = abs(base.objective - m2 * disc.objective)
    shares = base.holdings / tree.prices[:n_int]
    shares_hat = disc.holdings / disc_tree.prices[:n_int]
    gaps = np.abs(shares - shares_hat) / (1.0 + np.abs(shares))
    max_gap = float(np.max(gaps, initial=0.0))
    return NumeraireCheckReport(
        numeraire_index=j,
        objective=base.objective,
        objective_discounted=disc.objective,
        terminal_second_moment=float(m2),
        objective_gap=float(objective_gap),
        max_holdings_gap=max_gap,
    )


def enumerate_terminal_wealth(tree, solution: TreeSolution, v):
    """Exact terminal wealth distribution of the feedback strategy.

    Returns (probs, wealth, payoff) arrays over terminal nodes: one wealth
    roll over the tree with the solution's feedback rule, weighted by the
    tree's branch probabilities.
    """
    _, wealth = tree.roll_wealth(solution.feedback, v)
    h = np.array([solution.claim.value_at(t) for t in tree.terminal_ids])
    n_int = tree.n_internal
    return tree.node_probabilities()[n_int:], wealth[n_int:], h


@dataclass(frozen=True)
class SimReport:
    """Simulation summary for the terminal hedging error wealth_T - H.

    ``error_second_moment`` estimates E[(wealth_T - H)^2]; ``std_error`` is
    the sample standard deviation of the squared errors divided by
    sqrt(n_paths) (zero when the distribution was enumerated exactly).
    """

    n_paths: int
    seed: int | None
    error_mean: float
    error_second_moment: float
    std_error: float
    exact: bool


def _block_rng(seed, block):
    """Counter-based Philox stream keyed by (seed, block index).

    Streams with distinct keys are statistically independent, so results
    depend only on (seed, path index) and not on any scheduling of blocks.
    """
    key = np.array([np.uint64(seed % (1 << 64)), np.uint64(block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _psd_factor(c):
    w, Q = np.linalg.eigh(np.asarray(c, dtype=float))
    w = np.clip(w, 0.0, None)
    return Q * np.sqrt(w)


def _report_from_samples(errors, seed, exact=False):
    sq = errors**2
    n = sq.shape[0]
    if exact or n < 2:
        se = 0.0
    else:
        se = float(np.std(sq, ddof=1) / np.sqrt(n))
    return SimReport(
        n_paths=int(n),
        seed=seed,
        error_mean=float(np.mean(errors)),
        error_second_moment=float(np.mean(sq)),
        std_error=se,
        exact=exact,
    )


def _simulate_iid(model, coeffs, values, v, n_paths, seed):
    factor = _psd_factor(model.sigma)
    T, d = model.n_periods, model.d
    errors = np.empty(n_paths)
    done = 0
    block = 0
    # Path chunks of <= _DRAW_FLOATS normals continue one stream: same draws.
    chunk = max(1, _DRAW_FLOATS // (T * d))
    while done < n_paths:
        size = min(_RNG_BLOCK, n_paths - done)
        rng = _block_rng(seed, block)
        for lo in range(done, done + size, chunk):
            z = rng.standard_normal((min(chunk, done + size - lo), T, d))
            rets = model.mu + z @ factor.T
            wealth = np.full(len(z), float(v))
            for t in range(T):
                pi = coeffs.xi[t] + (values.V[t] - wealth)[:, None] * coeffs.a[t]
                wealth = wealth + np.einsum("ij,ij->i", pi, rets[:, t, :])
            errors[lo : lo + len(z)] = wealth - 1.0
        done += size
        block += 1
    return _report_from_samples(errors, seed)


def _simulate_pii(model, coeffs, v, n_paths, seed, step, ctx):
    if step is None or not step > 0:
        raise InvalidInputError(f"a positive Euler step is required, got {step}")
    table = _pii_segment_table(model, ctx)
    bounds = table["t"]

    # Global substep grid: each segment is cut into ceil(duration/step) pieces
    # so segment boundaries are always grid points (integrands stay exact).
    n_subs = np.ceil(np.diff(bounds) / step - 1e-12)
    if n_subs.sum() > MAX_STEPS:
        raise InvalidInputError(
            f"an Euler step of {step:g} needs {n_subs.sum():.3g} steps; "
            f"at most {MAX_STEPS} are allowed"
        )
    seg_grids = [
        (i, np.linspace(bounds[i], bounds[i + 1], max(1, int(n_sub)) + 1))
        for i, n_sub in enumerate(n_subs)
    ]

    def tracking_at(i, t):
        tail_L = table["int_L"][i + 1] + table["rate_L"][i] * (bounds[i + 1] - t)
        tail_LV = table["int_LV"][i + 1] + table["rate_LV"][i] * (bounds[i + 1] - t)
        return np.exp(tail_LV - tail_L)

    seg_factors = [_psd_factor(seg.c) for seg in model.segments]
    errors = np.empty(n_paths)
    done = 0
    block = 0
    while done < n_paths:
        size = min(_RNG_BLOCK, n_paths - done)
        rng = _block_rng(seed, block)
        wealth = np.full(size, float(v))
        for i, edges in seg_grids:
            a_i = table["a"][i]
            zeta_i = table["zeta"][i]
            b_i = model.segments[i].b
            fac = seg_factors[i]
            for t0, t1 in zip(edges[:-1], edges[1:]):
                dt = t1 - t0
                v_track = tracking_at(i, t0)
                pi = v_track * zeta_i + (v_track - wealth)[:, None] * a_i
                z = rng.standard_normal((size, model.d))
                dlog = b_i * dt + np.sqrt(dt) * (z @ fac.T)
                wealth = wealth + np.einsum("ij,ij->i", pi, dlog)
        errors[done : done + size] = wealth - 1.0
        done += size
        block += 1
    return _report_from_samples(errors, seed)


def _simulate_tree(tree, solution, claim, v, n_paths, seed, exhaustive):
    n_terminal = len(tree.terminal_ids)
    if exhaustive is None:
        exhaustive = n_terminal <= ENUMERATION_THRESHOLD
    if exhaustive:
        probs, wealth, payoff = enumerate_terminal_wealth(tree, solution, v)
        err = wealth - payoff
        second = float(probs @ err**2)
        return SimReport(
            n_paths=n_terminal,
            seed=seed,
            error_mean=float(probs @ err),
            error_second_moment=second,
            std_error=0.0,
            exact=True,
        )
    warnings.warn(
        f"tree has {n_terminal} terminal paths; falling back to sampling"
    )
    # Wealth at a node does not depend on the path sampled to reach it, so
    # one roll over the tree serves every path.
    _, wealth = tree.roll_wealth(solution.feedback, v)
    n_int = tree.n_internal
    errors_at = wealth[n_int:] - [claim.value_at(t) for t in tree.terminal_ids]
    first = np.searchsorted(tree.parent, np.arange(n_int + 1))
    errors = np.empty(n_paths)
    done = 0
    block = 0
    while done < n_paths:
        size = min(_RNG_BLOCK, n_paths - done)
        rng = _block_rng(seed, block)
        for i in range(size):
            pos = 0
            while pos < n_int:
                probs = tree.prob[first[pos] : first[pos + 1]]
                pos = first[pos] + rng.choice(len(probs), p=probs / probs.sum())
            errors[done + i] = errors_at[pos - n_int]
        done += size
        block += 1
    return _report_from_samples(errors, seed)


def mc_simulate(
    model,
    coeffs,
    values,
    claim,
    v,
    n_paths,
    seed,
    step=None,
    exhaustive=None,
    ctx=DEFAULT_CTX,
):
    """Simulate the feedback strategy and report the empirical hedging error.

    Deterministic given (seed, n_paths): normal draws come from counter-based
    Philox substreams keyed by (seed, block index) with a fixed block size.
    For trees the distribution is enumerated exactly whenever the number of
    terminal paths is at most ``ENUMERATION_THRESHOLD`` (or ``exhaustive`` is
    forced); IID models draw one-period simple returns directly from
    N(mu, sigma); piecewise-constant models use an Euler scheme on log returns
    with the user-supplied ``step``.
    """
    if int(n_paths) < 1:
        raise InvalidInputError(f"the path count must be at least 1, got {n_paths}")
    if isinstance(model, FiniteTreeModel):
        if not isinstance(coeffs, TreeSolution):
            raise TypeError("tree simulation needs the TreeSolution as coeffs")
        return _simulate_tree(model, coeffs, claim, v, n_paths, seed, exhaustive)
    if claim is not None and claim.constant != 1.0:
        raise InvalidInputError(
            "closed-form models support only the constant payoff 1"
        )
    if isinstance(model, IidDiscreteModel):
        return _simulate_iid(model, coeffs, values, v, int(n_paths), seed)
    if isinstance(model, PiiItoModel):
        return _simulate_pii(model, coeffs, v, int(n_paths), seed, step, ctx)
    raise TypeError(f"unsupported model type {type(model).__name__}")
