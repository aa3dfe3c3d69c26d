"""Independent ground truth for the hedging engine.

Contains an exact dynamic-programming solver for quadratic hedging on finite
event trees (value functions are quadratics in wealth, solved node by node
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
from .linalg import DEFAULT_CTX
from .models import (
    Claim,
    FiniteTreeModel,
    IidDiscreteModel,
    PiiItoModel,
    discount_tree,
)

__all__ = [
    "DpNodeValue",
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


@dataclass(frozen=True)
class DpNodeValue:
    """Quadratic value function at a node: min future error = ell (w - v)^2 + e."""

    ell: float
    v: float
    e: float


@dataclass(frozen=True)
class DpResult:
    """Exact DP solution: per-node quadratics, affine policies, realized holdings.

    ``policy[nid]`` is the pair (pi0, pi1) with optimal holdings
    pi0 + wealth * pi1; ``holdings`` and ``wealth`` are the realized values
    along the tree for the given initial wealth.
    """

    node_values: dict
    policy: dict
    holdings: dict
    wealth: dict
    objective: float


def _dp_node(probs, rets, child_vals, ctx, where):
    """Solve one backward-induction step; returns (DpNodeValue, pi0, pi1)."""
    ell = np.array([cv.ell for cv in child_vals])
    vv = np.array([cv.v for cv in child_vals])
    ee = np.array([cv.e for cv in child_vals])
    pl = probs * ell
    C = rets.T @ (rets * pl[:, None])
    C = 0.5 * (C + C.T)
    F0 = (pl * vv) @ rets
    F1 = -(pl @ rets)
    ones = np.ones((1, rets.shape[1]))
    try:
        pi0 = qp.solve(qp.QpProblem(C=C, F=F0, A=ones, b=[0.0], ctx=ctx)).x_hat
        pi1 = qp.solve(qp.QpProblem(C=C, F=F1, A=ones, b=[1.0], ctx=ctx)).x_hat
    except qp.UnboundedBelowError as err:
        raise LocalArbitrageError(
            "one-step hedging problem is unbounded below",
            where=where,
            certificate=err.direction,
        ) from err
    s_ll = float(pl.sum())
    s_lv = float(pl @ vv)
    s_const = float(pl @ vv**2 + probs @ ee)
    a2 = float(pi1 @ C @ pi1 - 2.0 * pi1 @ F1) + s_ll
    a1 = float(2.0 * pi0 @ C @ pi1 - 2.0 * pi0 @ F1 - 2.0 * pi1 @ F0) - 2.0 * s_lv
    a0 = float(pi0 @ C @ pi0 - 2.0 * pi0 @ F0) + s_const
    if a2 <= 1e-12:
        raise LocalArbitrageError(
            "value function degenerates: wealth has no quadratic cost, so a "
            "fully invested portfolio attains zero conditional second moment",
            where=where,
        )
    v_here = -a1 / (2.0 * a2)
    e_here = a0 - a1**2 / (4.0 * a2)
    return DpNodeValue(ell=a2, v=v_here, e=e_here), pi0, pi1


def dp_solve(tree, claim, v, ctx=DEFAULT_CTX):
    """Exact backward induction for min E[(wealth_T - H)^2] on a finite tree.

    At each node the continuation value is a quadratic in wealth whose
    coefficients follow from one closed-form constrained QP per unit of the
    wealth decomposition; the objective for initial wealth v is
    ell_root (v - v_root)^2 + e_root.  Holdings and wealth come from one
    wealth roll of the policy pi0 + wealth * pi1 over the tree.
    """
    values = {}
    policy = {}
    for slice_ids in tree.nodes_by_time():
        for nid in slice_ids:
            node = tree.nodes[nid]
            if not node.branches:
                values[nid] = DpNodeValue(ell=1.0, v=claim.value_at(nid), e=0.0)
                continue
            probs = np.array([p for p, _ in node.branches])
            kids = [ch for _, ch in node.branches]
            rets = np.array([tree.returns(nid, ch) for ch in kids])
            child_vals = [values[ch] for ch in kids]
            values[nid], pi0, pi1 = _dp_node(
                probs, rets, child_vals, ctx, where=f"node {nid!r}"
            )
            policy[nid] = (pi0, pi1)
    holdings, wealth = tree.roll_wealth(
        lambda nid, w: policy[nid][0] + w * policy[nid][1], v
    )
    root_val = values[tree.root]
    objective = root_val.ell * (float(v) - root_val.v) ** 2 + root_val.e
    return DpResult(
        node_values=values,
        policy=policy,
        holdings=holdings,
        wealth=wealth,
        objective=objective,
    )


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
    m2 = weights[tree.root]
    disc_claim = Claim(
        payoff={
            t: claim.value_at(t) / tree.nodes[t].prices[j]
            for t in tree.terminal_ids
        }
    )
    v_hat = float(v) / tree.nodes[tree.root].prices[j]
    disc = dp_solve(disc_tree, disc_claim, v_hat, ctx)
    objective_gap = abs(base.objective - m2 * disc.objective)
    max_gap = 0.0
    for nid, pi in base.holdings.items():
        shares = pi / tree.nodes[nid].prices
        shares_hat = disc.holdings[nid] / disc_tree.nodes[nid].prices
        gap = np.max(np.abs(shares - shares_hat) / (1.0 + np.abs(shares)))
        max_gap = max(max_gap, float(gap))
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
    node_prob = tree.node_probabilities()
    _, wealth = tree.roll_wealth(solution.feedback, v)
    probs = np.array([node_prob[t] for t in tree.terminal_ids])
    w = np.array([wealth[t] for t in tree.terminal_ids])
    h = np.array([solution.claim.value_at(t) for t in tree.terminal_ids])
    return probs, w, h


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
    while done < n_paths:
        size = min(_RNG_BLOCK, n_paths - done)
        rng = _block_rng(seed, block)
        z = rng.standard_normal((size, T, d))
        rets = model.mu + z @ factor.T
        wealth = np.full(size, float(v))
        for t in range(T):
            pi = coeffs.xi[t] + (values.V[t] - wealth)[:, None] * coeffs.a[t]
            wealth = wealth + np.einsum("ij,ij->i", pi, rets[:, t, :])
        errors[done : done + size] = wealth - 1.0
        done += size
        block += 1
    return _report_from_samples(errors, seed)


def _simulate_pii(model, coeffs, v, n_paths, seed, step, ctx):
    if step is None or not step > 0:
        raise ValueError(f"a positive Euler step is required, got {step}")
    table, int_L, int_LV = _pii_segment_table(model, ctx)

    # Global substep grid: each segment is cut into ceil(duration/step) pieces
    # so segment boundaries are always grid points (integrands stay exact).
    seg_grids = []
    for i, row in enumerate(table):
        n_sub = max(1, int(np.ceil((row["t1"] - row["t0"]) / step - 1e-12)))
        edges = np.linspace(row["t0"], row["t1"], n_sub + 1)
        seg_grids.append((i, edges))

    def tracking_at(i, t):
        tail_L = int_L[i + 1] + table[i]["rate_L"] * (table[i]["t1"] - t)
        tail_LV = int_LV[i + 1] + table[i]["rate_LV"] * (table[i]["t1"] - t)
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
            a_i = table[i]["a"]
            zeta_i = table[i]["zeta"]
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
    errors = np.empty(n_paths)
    done = 0
    block = 0
    while done < n_paths:
        size = min(_RNG_BLOCK, n_paths - done)
        rng = _block_rng(seed, block)
        for i in range(size):
            nid = tree.root
            while tree.nodes[nid].branches:
                branches = tree.nodes[nid].branches
                probs = np.array([p for p, _ in branches])
                pick = rng.choice(len(branches), p=probs / probs.sum())
                nid = branches[pick][1]
            errors[done + i] = wealth[nid] - claim.value_at(nid)
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
    if isinstance(model, FiniteTreeModel):
        if not isinstance(coeffs, TreeSolution):
            raise TypeError("tree simulation needs the TreeSolution as coeffs")
        return _simulate_tree(model, coeffs, claim, v, n_paths, seed, exhaustive)
    if claim is not None and claim.constant != 1.0:
        raise ValueError(
            "closed-form models support only the constant payoff 1"
        )
    if isinstance(model, IidDiscreteModel):
        return _simulate_iid(model, coeffs, values, v, int(n_paths), seed)
    if isinstance(model, PiiItoModel):
        return _simulate_pii(model, coeffs, v, int(n_paths), seed, step, ctx)
    raise TypeError(f"unsupported model type {type(model).__name__}")
