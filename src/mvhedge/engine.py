"""Optimal quadratic hedging coefficients and value processes.

Computes, for each supported market model, the adjustment portfolio ``a``
(fully invested at cost -1, correcting accrued hedging error), the pure hedge
``xi`` (costing the claim's tracking value), the opportunity process ``L``
(smallest conditional terminal second moment per unit of wealth), the tracking
process ``V`` and the residual hedging error ``eps2``.  Dollar amounts are the
internal parametrization throughout: portfolios are vectors of currency
holdings, constraints read ``pi . ones = cost``.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qp
from .linalg import DEFAULT_CTX, InvalidInputError, in_span, pinv
from .models import Claim, FiniteTreeModel, IidDiscreteModel, PiiItoModel

__all__ = [
    "LocalArbitrageError",
    "ExplicitAdjustment",
    "ValueProcesses",
    "HedgeCoefficients",
    "ClosedFormResult",
    "TreeSolution",
    "StrategyPath",
    "adjustment",
    "adjustment_explicit",
    "myopic_minvar",
    "closed_form_values",
    "tree_backward",
    "feedback_strategy",
    "hedging_error",
]

_POSITIVITY_TOL = 1e-12


class LocalArbitrageError(Exception):
    """The one-step mean-variance problem degenerates (arbitrage).

    Either the local no-arbitrage range condition ``b in Ran(c) + span(ones)``
    fails (then ``certificate`` is a costless direction with positive drift and
    zero second moment), or a fully invested portfolio attains a non-positive
    conditional second moment.  ``where`` names the offending node or time.
    """

    def __init__(self, message, where=None, certificate=None):
        self.where = where
        self.certificate = certificate
        if where is not None:
            message = f"{message} (at {where})"
        super().__init__(message)


def _solve_portfolio(c, target, cost, ctx, where=None):
    """Min-norm minimizer of pi c pi' - 2 pi target subject to pi . ones = cost.

    ``target`` is (d,) with a scalar cost, or (d, m) with m costs (columns).
    """
    target = np.asarray(target, dtype=float)
    ones = np.ones((1, target.shape[0]))
    cost = np.reshape(cost, (1,) + target.shape[1:])
    problem = qp.QpProblem(C=c, F=target, A=ones, b=cost, ctx=ctx)
    try:
        return qp.solve(problem)
    except qp.UnboundedBelowError as err:
        raise LocalArbitrageError(
            "local no-arbitrage condition fails: the mean return rate has a "
            "component outside Ran(c) + span(ones)",
            where=where,
            certificate=err.direction,
        ) from err


def adjustment(b, c, ctx=DEFAULT_CTX):
    """Adjustment portfolio: argmin of pi c pi' - 2 pi b over pi . ones = -1.

    Returns the minimum-norm minimizer together with an orthonormal basis of
    Null(c) & Null(ones'), the directions along which the minimizer set is
    flat (null strategies).
    """
    b = np.asarray(b, dtype=float).ravel()
    sol = _solve_portfolio(c, b, -1.0, ctx)
    return sol.x_hat, sol.null_basis


@dataclass(frozen=True)
class ExplicitAdjustment:
    """Adjustment portfolio in the rank-adapted explicit representation.

    ``branch`` is "spanned" when the fully invested direction lies in Ran(c)
    (no instantaneously risk-free portfolio exists), "riskfree" otherwise, in
    which case ``weight`` is the risk-free fully invested portfolio and
    ``riskfree_rate`` its rate of return.
    """

    a: np.ndarray
    branch: str
    weight: np.ndarray
    riskfree_rate: float | None
    c_pinv: np.ndarray = field(repr=False)

    def pure_hedge(self, cross, v_prev):
        """xi = cross c^+ + (v_prev - cross c^+ . ones) * weight."""
        base = np.asarray(cross, dtype=float).ravel() @ self.c_pinv
        return base + (v_prev - base.sum()) * self.weight


def adjustment_explicit(b, c, ctx=DEFAULT_CTX):
    """Adjustment portfolio via the two-branch explicit formulas.

    Agrees with :func:`adjustment` whenever the local no-arbitrage condition
    holds.  Branch "spanned" (ones in Ran(c)):
    ``a = b'c+ - (1 + b'c+ ones) ones'c+ / (ones'c+ ones)``;
    branch "riskfree" subtracts the risk-free rate r = alpha b first, with
    alpha built from the projector onto Null(c).
    """
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float)
    d = b.shape[0]
    ones = np.ones(d)
    ci = pinv(c, ctx)
    if in_span(ones, c, ctx):
        denom = ones @ ci @ ones
        weight = (ci @ ones) / denom
        a = b @ ci - (1.0 + b @ ci @ ones) * weight
        return ExplicitAdjustment(
            a=a, branch="spanned", weight=weight, riskfree_rate=None, c_pinv=ci
        )
    mbar = np.eye(d) - c @ ci
    denom = ones @ mbar @ ones
    alpha = (mbar @ ones) / denom
    r = float(alpha @ b)
    excess = b - r * ones
    a = excess @ ci - (1.0 + excess @ ci @ ones) * alpha
    return ExplicitAdjustment(
        a=a, branch="riskfree", weight=alpha, riskfree_rate=r, c_pinv=ci
    )


def myopic_minvar(b, c, ctx=DEFAULT_CTX):
    """Fully invested portfolio minimizing the instantaneous variance rate.

    zeta = (ones'/d)(I - c p) with p = (m c m)^+, m = I - ones ones'/d, is the
    minimizer of pi c pi' at cost 1.  It depends on c only (b is accepted for
    interface symmetry); zeta c zeta' = a c a' - b'p b.
    """
    return _solve_portfolio(c, np.zeros(np.shape(c)[0]), 1.0, ctx).x_hat


@dataclass(frozen=True)
class ValueProcesses:
    """Deterministic paths of the opportunity, tracking and error processes.

    ``times[j]`` labels the j-th grid point (integer periods for discrete
    models, segment boundaries for piecewise-constant ones); L, V, eps2 hold
    the corresponding values, with L[-1] = 1 and eps2[-1] = 0.
    """

    times: np.ndarray
    L: np.ndarray
    V: np.ndarray
    eps2: np.ndarray

    @property
    def L0(self):
        return float(self.L[0])

    @property
    def V0(self):
        return float(self.V[0])

    @property
    def eps2_0(self):
        return float(self.eps2[0])

    def triple(self):
        return self.L0, self.V0, self.eps2_0


@dataclass(frozen=True)
class HedgeCoefficients:
    """Per-step hedging coefficients in dollar amounts.

    Row t of each array applies over the step from times[t] to times[t+1]:
    ``a`` costs -1, ``xi`` costs V at the step start, ``zeta`` costs 1.
    ``riskfree_rate`` is per-step and NaN where no instantaneously risk-free
    portfolio exists (None when the model admits none at all).
    """

    a: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    riskfree_rate: np.ndarray | None = None


class ClosedFormResult(NamedTuple):
    values: ValueProcesses
    coeffs: HedgeCoefficients


def _iid_closed_form(model, ctx):
    b, c = model.log_characteristics(0)
    T = model.n_periods
    # Columns (b, -1), (0, 1) and (b, 0) give a, zeta and p b, p = (m c m)^+.
    targets = np.column_stack([b, np.zeros_like(b), b])
    x = _solve_portfolio(c, targets, [-1.0, 1.0, 0.0], ctx).x_hat
    a, zeta, pb = x[:, 0], x[:, 1], x[:, 2]
    ab = float(a @ b)
    aca = float(a @ c @ a)
    bpb = float(b @ pb)
    growth = 1.0 - 2.0 * ab + aca
    if growth <= _POSITIVITY_TOL:
        raise LocalArbitrageError(
            "opportunity process is not positive: a fully invested portfolio "
            "attains zero conditional second moment"
        )
    steps = np.arange(T, -1, -1, dtype=float)
    L = growth**steps
    V = ((1.0 - ab) / growth) ** steps
    kappa = 1.0 - bpb - (1.0 - ab) ** 2 / growth
    contrib = L[1:] * V[1:] ** 2 * kappa
    eps2 = np.concatenate([np.cumsum(contrib[::-1])[::-1], [0.0]])
    xi = np.array([(V[t + 1] - V[t]) * pb + V[t] * zeta for t in range(T)])
    coeffs = HedgeCoefficients(
        a=np.tile(a, (T, 1)),
        xi=xi,
        zeta=np.tile(zeta, (T, 1)),
        riskfree_rate=None,
    )
    values = ValueProcesses(times=np.arange(T + 1, dtype=float), L=L, V=V, eps2=eps2)
    return ClosedFormResult(values, coeffs)


def _pii_segment_table(model, ctx):
    """Per-segment coefficients and log rates for a piecewise-constant model.

    Returns ``(rows, int_L, int_LV)``.  ``rows`` is a list of dicts with keys
    t0, t1, a, zeta, rate_L (d log L / dt, integrated backward), rate_LV,
    rate_err (= a c a'), var_rate (zeta c zeta'), riskfree_rate.  ``int_L``
    and ``int_LV`` hold the backward integrals of rate_L and rate_LV from each
    segment boundary to the horizon, so L = exp(int_L) and
    V = exp(int_LV - int_L) at the boundaries.
    """
    rows = []
    t0 = 0.0
    for seg in model.segments:
        targets = np.column_stack([seg.b, np.zeros_like(seg.b)])
        x = _solve_portfolio(seg.c, targets, [-1.0, 1.0], ctx).x_hat
        a, zeta = x[:, 0], x[:, 1]
        explicit = adjustment_explicit(seg.b, seg.c, ctx)
        ab = float(a @ seg.b)
        aca = float(a @ seg.c @ a)
        rows.append(
            {
                "t0": t0,
                "t1": t0 + seg.duration,
                "a": a,
                "zeta": zeta,
                "rate_L": -2.0 * ab + aca,
                "rate_LV": -ab,
                "rate_err": aca,
                "var_rate": float(zeta @ seg.c @ zeta),
                "riskfree_rate": explicit.riskfree_rate,
            }
        )
        t0 += seg.duration
    m = len(rows)
    int_L = np.zeros(m + 1)
    int_LV = np.zeros(m + 1)
    for i in range(m - 1, -1, -1):
        dt = rows[i]["t1"] - rows[i]["t0"]
        int_L[i] = int_L[i + 1] + rows[i]["rate_L"] * dt
        int_LV[i] = int_LV[i + 1] + rows[i]["rate_LV"] * dt
    return rows, int_L, int_LV


def _pii_closed_form(model, ctx):
    rows, int_L, int_LV = _pii_segment_table(model, ctx)
    m = len(rows)
    # Backward error integral from each boundary to the horizon.
    int_err = np.zeros(m + 1)
    eps2 = np.zeros(m + 1)
    for i in range(m - 1, -1, -1):
        dt = rows[i]["t1"] - rows[i]["t0"]
        w = rows[i]["rate_err"]
        if abs(w * dt) < 1e-14:
            piece = dt
        else:
            piece = (1.0 - np.exp(-w * dt)) / w
        eps2[i] = eps2[i + 1] + rows[i]["var_rate"] * np.exp(-int_err[i + 1]) * piece
        int_err[i] = int_err[i + 1] + w * dt
    L = np.exp(int_L)
    V = np.exp(int_LV - int_L)
    times = np.array([rows[0]["t0"]] + [r["t1"] for r in rows])
    a = np.array([r["a"] for r in rows])
    zeta = np.array([r["zeta"] for r in rows])
    xi = np.array([V[i] * rows[i]["zeta"] for i in range(m)])
    rates = np.array(
        [np.nan if r["riskfree_rate"] is None else r["riskfree_rate"] for r in rows]
    )
    coeffs = HedgeCoefficients(
        a=a,
        xi=xi,
        zeta=zeta,
        riskfree_rate=None if np.all(np.isnan(rates)) else rates,
    )
    return ClosedFormResult(ValueProcesses(times, L, V, eps2), coeffs)


def closed_form_values(model, ctx=DEFAULT_CTX):
    """Opportunity/tracking/error processes for the constant payoff 1.

    Deterministic closed forms: for the IID model L and V decay geometrically
    per period; for the piecewise-constant model they are exact segment
    exponentials and the error is an exact segment integral.
    """
    if isinstance(model, IidDiscreteModel):
        return _iid_closed_form(model, ctx)
    if isinstance(model, PiiItoModel):
        return _pii_closed_form(model, ctx)
    raise TypeError(
        "closed-form values exist for the IID and piecewise-constant models "
        f"only, not {type(model).__name__}"
    )


@dataclass
class TreeSolution:
    """Per-node hedging solution on a finite event tree.

    L, V, eps2 are per-node scalars; a, xi are per non-terminal node dollar
    portfolios; null_basis spans the per-node flat directions of both
    minimizers (zero-wealth strategies).
    """

    tree: FiniteTreeModel
    claim: Claim
    L: dict
    V: dict
    eps2: dict
    a: dict
    xi: dict
    null_basis: dict

    @property
    def L0(self):
        return self.L[self.tree.root]

    @property
    def V0(self):
        return self.V[self.tree.root]

    @property
    def eps2_0(self):
        return self.eps2[self.tree.root]

    def triple(self):
        return self.L0, self.V0, self.eps2_0

    def feedback(self, nid, wealth):
        """Feedback rule at a non-terminal node: pi = xi + (V - wealth) a."""
        return self.xi[nid] + (self.V[nid] - wealth) * self.a[nid]


def tree_backward(
    tree,
    claim,
    ctx=DEFAULT_CTX,
    adjustment_override=None,
):
    """Backward induction of (L, V, eps2, a, xi) over a finite event tree.

    At each non-terminal node the next-step characteristics are weighted by
    the children's opportunity values: with weights q_i ~ p_i L_i,

    - b* = sum q_i R_i,  c* = sum q_i R_i R_i'  (R_i = simple returns),
    - a minimizes pi c* pi' - 2 pi b* at cost -1, and
      L = E[L+] (1 - 2 a b* + a c* a'),
    - L V = E[(1 - a R) L+ V+],
    - xi minimizes pi c* pi' - 2 pi cSV at cost V, where cSV = g - V b* is
      the weighted return/value-increment cross moment (g = sum q_i V+_i R_i),
      and eps2 = E[eps2+] + E[L+] (cV - 2 xi cSV + xi c* xi').

    The minimizer is linear in (target, cost), so one problem on c* solves
    (b*, -1) and (g, 0) and xi is the second column minus V times the first.

    ``adjustment_override`` is a hook ``f(node_id, a, null_basis) -> a``
    applied after each adjustment solve; results must stay within the
    minimizer set for the outputs to be unchanged.
    """
    Lmap, Vmap, emap = {}, {}, {}
    amap, ximap, nullmap = {}, {}, {}
    for slice_ids in tree.nodes_by_time():
        for nid in slice_ids:
            node = tree.nodes[nid]
            if not node.branches:
                Lmap[nid] = 1.0
                Vmap[nid] = claim.value_at(nid)
                emap[nid] = 0.0
                continue
            probs = np.array([p for p, _ in node.branches])
            kids = [ch for _, ch in node.branches]
            rets = np.array([tree.returns(nid, ch) for ch in kids])
            L_next = np.array([Lmap[ch] for ch in kids])
            V_next = np.array([Vmap[ch] for ch in kids])
            e_next = np.array([emap[ch] for ch in kids])
            mean_L = float(probs @ L_next)
            q = probs * L_next / mean_L
            b_star = q @ rets
            c_star = rets.T @ (rets * q[:, None])
            c_star = 0.5 * (c_star + c_star.T)
            targets = np.column_stack([b_star, q @ (rets * V_next[:, None])])
            sol = _solve_portfolio(c_star, targets, [-1.0, 0.0], ctx, f"node {nid!r}")
            a = sol.x_hat[:, 0]
            if adjustment_override is not None:
                a = np.asarray(
                    adjustment_override(nid, a, sol.null_basis), dtype=float
                )
            growth = 1.0 - 2.0 * float(a @ b_star) + float(a @ c_star @ a)
            if growth <= _POSITIVITY_TOL:
                raise LocalArbitrageError(
                    "opportunity process is not positive: a fully invested "
                    "portfolio attains zero conditional second moment",
                    where=f"node {nid!r}",
                )
            L_here = mean_L * growth
            LV_here = float(probs @ ((1.0 - rets @ a) * L_next * V_next))
            V_here = LV_here / L_here
            cross = targets[:, 1] - V_here * b_star
            xi = sol.x_hat[:, 1] - V_here * sol.x_hat[:, 0]
            mean_V = float(q @ V_next)
            c_v = float(q @ V_next**2) - 2.0 * V_here * mean_V + V_here**2
            residual = c_v - 2.0 * float(xi @ cross) + float(xi @ c_star @ xi)
            Lmap[nid] = L_here
            Vmap[nid] = V_here
            emap[nid] = float(probs @ e_next) + mean_L * residual
            amap[nid] = a
            ximap[nid] = xi
            nullmap[nid] = sol.null_basis
    return TreeSolution(
        tree=tree,
        claim=claim,
        L=Lmap,
        V=Vmap,
        eps2=emap,
        a=amap,
        xi=ximap,
        null_basis=nullmap,
    )


@dataclass(frozen=True)
class StrategyPath:
    """Realized holdings (dollar amounts) and wealth along one scenario.

    ``wealth`` has one more entry than ``holdings``; the path is
    self-financing: wealth[t+1] = wealth[t] + holdings[t] . returns[t], and
    holdings[t] . ones = wealth[t].
    """

    holdings: np.ndarray
    wealth: np.ndarray


def _step_feedback(coeffs, values, v, returns):
    rets = np.atleast_2d(np.asarray(returns, dtype=float))
    steps = coeffs.a.shape[0]
    if rets.shape != (steps, coeffs.a.shape[1]):
        raise InvalidInputError(
            f"returns must have shape {(steps, coeffs.a.shape[1])}, got {rets.shape}"
        )
    wealth = np.empty(steps + 1)
    wealth[0] = float(v)
    holdings = np.empty_like(coeffs.a)
    for t in range(steps):
        pi = coeffs.xi[t] + (values.V[t] - wealth[t]) * coeffs.a[t]
        holdings[t] = pi
        wealth[t + 1] = wealth[t] + pi @ rets[t]
    return StrategyPath(holdings=holdings, wealth=wealth)


def _tree_feedback(solution, v, node_path):
    tree = solution.tree
    path = [str(n) for n in node_path]
    wealth = [float(v)]
    holdings = []
    for here, there in zip(path[:-1], path[1:]):
        if there not in [ch for _, ch in tree.nodes[here].branches]:
            raise InvalidInputError(f"{there!r} is not a child of {here!r}")
        pi = solution.feedback(here, wealth[-1])
        holdings.append(pi)
        wealth.append(wealth[-1] + float(pi @ tree.returns(here, there)))
    return StrategyPath(holdings=np.array(holdings), wealth=np.array(wealth))


def feedback_strategy(coeffs, values, v, path):
    """Roll the feedback rule pi = xi + (V_prev - wealth_prev) a along a path.

    For tree solutions ``coeffs`` is the :class:`TreeSolution` and ``path`` a
    root-to-terminal node id sequence; for closed-form models ``coeffs`` and
    ``values`` are the step arrays and ``path`` the per-step simple returns.
    """
    if isinstance(coeffs, TreeSolution):
        return _tree_feedback(coeffs, v, path)
    return _step_feedback(coeffs, values, v, path)


def hedging_error(values, v):
    """Total expected squared hedging error L0 (v - V0)^2 + eps2_0."""
    return values.L0 * (float(v) - values.V0) ** 2 + values.eps2_0
