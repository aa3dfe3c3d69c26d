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
from .models import _quad, _rowdot

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


def _solve_portfolio(c, target, cost, ctx, where=None, ones=None):
    """Min-norm minimizers of pi c_i pi' - 2 pi target_i subject to pi . ones = cost.

    ``c`` and ``target`` are a :class:`qp.QpProblem`'s C and F, with a scalar
    cost or one per target column; ``ones`` may be ones' as a factored
    :class:`qp.Constraint`.  ``where(i)`` names an unbounded matrix i.
    """
    target = np.asarray(target, dtype=float)
    cost = np.reshape(cost, (1,) + target.shape[np.ndim(c) - 1 :])
    if ones is None:
        ones = np.ones((1, np.shape(c)[-1]))
    problem = qp.QpProblem(c, target, ones, cost, ctx)
    try:
        return qp.solve(problem)
    except qp.UnboundedBelowError as err:
        raise LocalArbitrageError(
            "local no-arbitrage condition fails: the mean return rate has a "
            "component outside Ran(c) + span(ones)",
            where=None if where is None else where(err.index),
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


def _tail_sums(x):
    """Sums of x from each index to the end, then 0 (backward integrals)."""
    return np.append(np.cumsum(x[::-1])[::-1], 0.0)


def _pii_segment_table(model, ctx):
    """Per-segment coefficients and log rates of a piecewise-constant model.

    One stacked QP solves all m segments.  Returns a dict of arrays: ``t``
    (the m + 1 boundaries), a and zeta (m, d), and per segment rate_L
    (d log L / dt, integrated backward), rate_LV, rate_err (= a c a'),
    var_rate (zeta c zeta') and riskfree_rate (NaN where none exists);
    ``int_L`` and ``int_LV`` integrate rate_L and rate_LV from each boundary to
    the horizon, so L = exp(int_L) and V = exp(int_LV - int_L) there.
    """
    segs = model.segments
    b, c = np.array([seg.b for seg in segs]), np.array([seg.c for seg in segs])
    targets = np.stack([b, np.zeros_like(b)], axis=-1)
    x = _solve_portfolio(c, targets, [-1.0, 1.0], ctx, lambda i: f"segment {i}").x_hat
    a, zeta = x[..., 0], x[..., 1]
    ab, aca = _rowdot(a, b), _quad(a, c, a)
    rate_L, rate_LV = -2.0 * ab + aca, -ab
    t = np.concatenate([[0.0], np.cumsum([seg.duration for seg in segs])])
    int_L, int_LV = _tail_sums(rate_L * np.diff(t)), _tail_sums(rate_LV * np.diff(t))
    if not np.all(np.maximum(int_L, int_LV - int_L) <= np.log(np.finfo(float).max)):
        raise InvalidInputError(
            f"the value processes overflow over the horizon {model.horizon:g}: "
            "exp(log L) or exp(log V) exceeds the float range"
        )
    riskfree = [adjustment_explicit(seg.b, seg.c, ctx).riskfree_rate for seg in segs]
    return dict(
        t=t, a=a, zeta=zeta, rate_L=rate_L, rate_LV=rate_LV, rate_err=aca,
        var_rate=_quad(zeta, c, zeta), int_L=int_L, int_LV=int_LV,
        riskfree_rate=np.array([np.nan if r is None else r for r in riskfree]),
    )


def _pii_closed_form(model, ctx):
    seg = _pii_segment_table(model, ctx)
    dt, w = np.diff(seg["t"]), seg["rate_err"]
    int_err = _tail_sums(w * dt)  # error integral from each boundary to the horizon
    piece = np.divide(
        1.0 - np.exp(-w * dt), w, out=dt.copy(), where=np.abs(w * dt) >= 1e-14
    )
    eps2 = _tail_sums(seg["var_rate"] * np.exp(-int_err[1:]) * piece)
    L, V = np.exp(seg["int_L"]), np.exp(seg["int_LV"] - seg["int_L"])
    rates = None if np.all(np.isnan(seg["riskfree_rate"])) else seg["riskfree_rate"]
    coeffs = HedgeCoefficients(seg["a"], V[:-1, None] * seg["zeta"], seg["zeta"], rates)
    return ClosedFormResult(ValueProcesses(seg["t"], L, V, eps2), coeffs)


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
    """Per-node hedging solution on a finite event tree, in the tree's node order.

    L, V, eps2 are (n,) arrays over all nodes; a, xi are (internal, d) dollar
    portfolios of the non-terminal nodes, which come first in node order;
    ``levels`` holds the stacked QP solution of each non-terminal level, root
    first.  ``tree.index[nid]`` is the position of node ``nid``.
    """

    tree: FiniteTreeModel
    claim: Claim
    L: np.ndarray
    V: np.ndarray
    eps2: np.ndarray
    a: np.ndarray
    xi: np.ndarray
    levels: list = field(repr=False)

    @property
    def null_basis(self):
        """Per non-terminal node, a basis of both minimizers' flat directions."""
        return [basis for sol in self.levels for basis in sol.null_basis]

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

    def feedback(self, nodes, wealth):
        """Feedback rule pi = xi + (V - wealth) a at non-terminal positions."""
        return self.xi[nodes] + (self.V[nodes] - wealth)[..., None] * self.a[nodes]


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
    Each level is one array step (sums over each node's children by
    ``np.add.reduceat``) around one QP on the level's stack of c*, and the
    constraint ones' is factored once for the whole tree.

    ``adjustment_override`` is a hook ``f(node_id, a, null_basis) -> a``
    applied to each node after its level's solve; results must stay within
    the minimizer set for the outputs to be unchanged.
    """
    n, n_int, d = len(tree.ids), tree.n_internal, tree.d
    L, V, eps2 = np.ones(n), np.empty(n), np.zeros(n)
    V[n_int:] = [claim.value_at(t) for t in tree.terminal_ids]
    a, xi = np.empty((n_int, d)), np.empty((n_int, d))
    ones, solutions = qp.Constraint(np.ones((1, d)), ctx), []
    for here, kids, sums, owner in reversed(tree.levels):
        p, R, L_next, V_next = tree.prob[kids], tree.rets[kids], L[kids], V[kids]
        pL = p * L_next
        mean_L = sums(pL)
        q = pL / mean_L[owner]
        b_star = sums(q[:, None] * R)
        c_star = sums(R[:, :, None] * (R * q[:, None])[:, None, :])
        c_star = 0.5 * (c_star + c_star.transpose(0, 2, 1))
        g = sums(q[:, None] * (R * V_next[:, None]))
        targets, ids = np.stack([b_star, g], axis=-1), tree.ids[here]
        sol = _solve_portfolio(
            c_star, targets, [-1.0, 0.0], ctx, lambda k: f"node {ids[k]!r}", ones
        )
        x = sol.x_hat
        a[here] = x[:, :, 0]
        if adjustment_override is not None:
            for k, i in enumerate(range(here.start, here.stop)):
                a[i] = adjustment_override(ids[k], a[i], sol.problem.flat(k))
        a_here = a[here]
        solutions.append(sol)
        growth = 1.0 - 2.0 * _rowdot(a_here, b_star) + _quad(a_here, c_star, a_here)
        if np.any(growth <= _POSITIVITY_TOL):
            bad = here.start + np.argmax(growth <= _POSITIVITY_TOL)
            raise LocalArbitrageError(
                "opportunity process is not positive: a fully invested "
                "portfolio attains zero conditional second moment",
                where=f"node {tree.ids[bad]!r}",
            )
        L[here] = mean_L * growth
        LV = sums(p * ((1.0 - _rowdot(R, a_here[owner])) * L_next * V_next))
        V_here = V[here] = LV / L[here]
        cross = g - V_here[:, None] * b_star
        xi_here = xi[here] = x[:, :, 1] - V_here[:, None] * x[:, :, 0]
        c_v = sums(q * V_next**2) - 2.0 * V_here * sums(q * V_next) + V_here**2
        residual = c_v - 2.0 * _rowdot(xi_here, cross) + _quad(xi_here, c_star, xi_here)
        eps2[here] = sums(p * eps2[kids]) + mean_L * residual
    return TreeSolution(tree, claim, L, V, eps2, a, xi, solutions[::-1])


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
        i, j = tree.index.get(here), tree.index.get(there)
        if j is None or tree.parent[j] != i:
            raise InvalidInputError(f"{there!r} is not a child of {here!r}")
        pi = solution.feedback(i, wealth[-1])
        holdings.append(pi)
        wealth.append(wealth[-1] + float(pi @ tree.rets[j]))
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
