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
from .linalg import InvalidInputError
from .models import Claim, IidDiscreteModel, PiiItoModel
from .models import _by_node, _quad, _rowdot, _terminal_values

__all__ = [
    "LocalArbitrageError",
    "ExplicitAdjustment",
    "ValueProcesses",
    "HedgeCoefficients",
    "ClosedFormResult",
    "TreeSolution",
    "adjustment",
    "adjustment_explicit",
    "myopic_minvar",
    "closed_form_values",
    "tree_backward",
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


def _solve_portfolio(c, target, cost, where=None, solve=qp.solve):
    """Min-norm minimizers of pi c_i pi' - 2 pi target_i subject to pi . ones = cost.

    ``c`` and ``target`` are a :class:`qp.QpProblem`'s C and F, with a scalar
    cost or one per target column, for ``solve``.  ``where(i)`` names an
    unbounded matrix i.
    """
    target = np.asarray(target, dtype=float)
    cost = np.reshape(cost, (1,) + target.shape[np.ndim(c) - 1 :])
    problem = qp.QpProblem(c, target, qp._ones(np.shape(c)[-1]), cost)
    try:
        return solve(problem)
    except qp.UnboundedBelowError as err:
        raise LocalArbitrageError(
            "local no-arbitrage condition fails: the mean return rate has a "
            "component outside Ran(c) + span(ones)",
            where=None if where is None else where(err.index),
            certificate=err.direction,
        ) from err


def adjustment(b, c):
    """Adjustment portfolio: argmin of pi c pi' - 2 pi b over pi . ones = -1.

    Returns the minimum-norm minimizer together with an orthonormal basis of
    Null(c) & Null(ones'), the directions along which the minimizer set is
    flat (null strategies).
    """
    b = np.asarray(b, dtype=float).ravel()
    sol = _solve_portfolio(c, b, -1.0)
    return sol.x_hat, sol.null_basis


@dataclass(frozen=True)
class ExplicitAdjustment:
    """Adjustment portfolio in the oblique-projector representation.

    ``weight`` = P ones/d is the fully invested portfolio that the projector P
    spans: c^+ ones / (ones'c^+ ones) when the fully invested direction lies
    in Ran(c), else the instantaneously risk-free portfolio, whose rate
    ``weight . b`` is ``riskfree_rate`` (None when no such portfolio exists).
    """

    a: np.ndarray
    weight: np.ndarray
    riskfree_rate: float | None


def adjustment_explicit(b, c):
    """Adjustment portfolio via Theorem T:explicit's oblique projector.

    :func:`qp.solve_alt` on the problem of :func:`adjustment`:
    ``a = (I - P) c^+ (I - P') b - P ones/d``, where P projects along
    Null(ones') onto a direction adapted to Ran(c); its "complement" branch
    carries the risk-free rate.  Raises what :func:`adjustment` raises:
    :class:`LocalArbitrageError` with a certificate, or
    :class:`qp.InvalidProblemError` for a c that is not symmetric positive
    semidefinite.
    """
    b = np.asarray(b, dtype=float).ravel()
    sol, P = _solve_portfolio(c, b, -1.0, solve=qp._solve_alt)
    weight = P @ qp._ones(len(b)).A_pinv[:, 0]
    rate = float(weight @ b) if sol.branch == "complement" else None
    return ExplicitAdjustment(sol.x_hat, weight, rate)


def myopic_minvar(b, c):
    """Fully invested portfolio minimizing the instantaneous variance rate.

    zeta = (ones'/d)(I - c p) with p = (m c m)^+, m = I - ones ones'/d, is the
    minimizer of pi c pi' at cost 1.  It depends on c only (b is accepted for
    interface symmetry); zeta c zeta' = a c a' - b'p b.
    """
    return _solve_portfolio(c, np.zeros(np.shape(c)[0]), 1.0).x_hat


class _RootValues:
    """L0, V0, eps2_0 and log L0: the root entries of the arrays L, V and eps2."""

    L0 = property(lambda self: float(self.L[0]))
    log_L0 = property(lambda self: float(np.log(self.L[0])))
    V0 = property(lambda self: float(self.V[0]))
    eps2_0 = property(lambda self: float(self.eps2[0]))


@dataclass(frozen=True)
class ValueProcesses(_RootValues):
    """Deterministic paths of the opportunity, tracking and error processes.

    ``times[j]`` labels the j-th grid point (integer periods for discrete
    models, segment boundaries for piecewise-constant ones); L, V, eps2 hold
    the corresponding values, with L[-1] = 1 and eps2[-1] = 0.  ``log_L`` is
    log L, finite where L overflows (IID models over a long horizon).
    """

    times: np.ndarray
    L: np.ndarray
    V: np.ndarray
    eps2: np.ndarray
    log_L: np.ndarray

    log_L0 = property(lambda self: float(self.log_L[0]))


@dataclass(frozen=True)
class HedgeCoefficients:
    """Per-step hedging coefficients in dollar amounts.

    Row t of each array applies over the step from times[t] to times[t+1]:
    ``a`` costs -1, ``xi`` costs V at the step start, ``zeta`` costs 1.
    """

    a: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray


class ClosedFormResult(NamedTuple):
    values: ValueProcesses
    coeffs: HedgeCoefficients


def _iid_closed_form(model):
    b, c = model.log_characteristics(0)
    T = model.n_periods
    # Columns (b, -1), (0, 1) and (b, 0) give a, zeta and p b, p = (m c m)^+.
    targets = np.column_stack([b, np.zeros_like(b), b])
    x = _solve_portfolio(c, targets, [-1.0, 1.0, 0.0]).x_hat
    a, zeta, pb = x[:, 0], x[:, 1], x[:, 2]
    ab = float(a @ b)
    aca = float(a @ c @ a)
    growth = 1.0 - 2.0 * ab + aca
    if growth <= _POSITIVITY_TOL:
        raise LocalArbitrageError(
            "opportunity process is not positive: a fully invested portfolio "
            "attains zero conditional second moment"
        )
    steps = np.arange(T, -1, -1, dtype=float)
    # L and V may leave the float range over a long horizon (FrontierTriple
    # rejects an infinite L0), but L V^2 = ratio^steps with ratio =
    # E[1 - aR]^2 / E[(1 - aR)^2] <= 1, so eps2 is formed without them.
    with np.errstate(over="ignore", under="ignore"):
        L = growth**steps
        V = ((1.0 - ab) / growth) ** steps
    ratio = (1.0 - ab) ** 2 / growth
    xi = (V[1:] - V[:-1])[:, None] * pb + V[:-1, None] * zeta
    # The last period's error E[(1 - V[-2] - xi[-1] R)^2] as squared mean plus
    # variance, so that no cancellation makes it negative.
    kappa = (1.0 - V[-2] - xi[-1] @ b) ** 2 + xi[-1] @ model.sigma @ xi[-1]
    contrib = ratio ** steps[1:] * kappa
    eps2 = np.concatenate([np.cumsum(contrib[::-1])[::-1], [0.0]])
    # Every period shares a and zeta, so both are read-only views of one row.
    coeffs = HedgeCoefficients(
        a=np.broadcast_to(a, (T, a.shape[0])),
        xi=xi,
        zeta=np.broadcast_to(zeta, (T, zeta.shape[0])),
    )
    values = ValueProcesses(np.arange(T + 1.0), L, V, eps2, steps * np.log(growth))
    return ClosedFormResult(values, coeffs)


def _tail_sums(x):
    """Sums of x from each index to the end, then 0 (backward integrals)."""
    return np.append(np.cumsum(x[::-1])[::-1], 0.0)


def _log_values(a, b, c, dt):
    """For Ito segments (a, b, c) of lengths dt: a c a' and the slope a c a' - a.b
    of log V per segment, and at every boundary log L and log V, the sums of
    (a c a' - 2 a.b) dt and of -slope dt back to the horizon."""
    ab, w = _rowdot(a, b), _quad(a, c, a)
    slope = w - ab
    return w, slope, _tail_sums((-2.0 * ab + w) * dt), -_tail_sums(slope * dt)


def _pii_closed_form(model):
    """Closed form of a piecewise-constant Ito model: one stacked QP solves a
    and zeta for every segment, and L, V and eps2 are exact segment sums."""
    segs = model.segments
    b, c = np.array([seg.b for seg in segs]), np.array([seg.c for seg in segs])
    targets = np.stack([b, np.zeros_like(b)], axis=-1)
    sol = _solve_portfolio(c, targets, [-1.0, 1.0], lambda i: f"segment {i}")
    a, zeta = sol.x_hat[..., 0], sol.x_hat[..., 1]
    t = np.concatenate([[0.0], np.cumsum([seg.duration for seg in segs])])
    dt = np.diff(t)
    # A drift near the float range overflows log L or log V to inf or nan,
    # which the range check below rejects in one error.
    with np.errstate(over="ignore", invalid="ignore"):
        w, _, log_L, log_V = _log_values(a, b, c, dt)
    if not np.all(np.maximum(log_L, log_V) <= np.log(np.finfo(float).max)):
        raise InvalidInputError(
            f"the value processes overflow over the horizon {model.horizon:g}: "
            "exp(log L) or exp(log V) exceeds the float range"
        )
    int_err = _tail_sums(w * dt)  # error integral from each boundary to the horizon
    piece = np.divide(
        1.0 - np.exp(-w * dt), w, out=dt.copy(), where=np.abs(w * dt) >= 1e-14
    )
    eps2 = _tail_sums(_quad(zeta, c, zeta) * np.exp(-int_err[1:]) * piece)
    L, V = np.exp(log_L), np.exp(log_V)
    coeffs = HedgeCoefficients(a, V[:-1, None] * zeta, zeta)
    return ClosedFormResult(ValueProcesses(t, L, V, eps2, log_L), coeffs)


def closed_form_values(model):
    """Opportunity/tracking/error processes for the constant payoff 1.

    Deterministic closed forms: for the IID model L and V decay geometrically
    per period; for the piecewise-constant model they are exact segment
    exponentials and the error is an exact segment integral.
    """
    if isinstance(model, IidDiscreteModel):
        return _iid_closed_form(model)
    if isinstance(model, PiiItoModel):
        return _pii_closed_form(model)
    raise TypeError(
        "closed-form values exist for the IID and piecewise-constant models "
        f"only, not {type(model).__name__}"
    )


@dataclass
class TreeSolution(_RootValues):
    """Per-node hedging solution on a finite event tree, in the tree's node order.

    L, V, eps2 are (n,) arrays over all nodes (each node's one-step error is
    a squared residual norm, so eps2 is never negative); a, xi are
    (internal, d) dollar portfolios of the non-terminal nodes, which come
    first in node order; ``levels`` holds, per non-terminal level root first,
    the stacked least-squares kernel's N V and ``keep``, from which
    :attr:`null_basis` reads each node's flat directions.  Callers keep the
    solved tree: its ``tree.index[nid]`` is the position of node ``nid``.
    """

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
        return [b[:, ~k] for bases, keep in self.levels for b, k in zip(bases, keep)]

    def feedback(self, nodes, wealth):
        """Feedback rule pi = xi + (V - wealth) a at non-terminal positions."""
        return self.xi[nodes] + (self.V[nodes] - wealth)[..., None] * self.a[nodes]


def tree_backward(tree, claim, adjustment_override=None):
    """Backward induction of (L, V, eps2, a, xi) over a finite event tree.

    At each non-terminal node the children are weighted by their opportunity
    values, q_i ~ p_i L_i, and every one-step problem is a residual norm over
    the rows sqrt(q_i) R_i (R_i = simple returns), solved in square-root form:

    - a minimizes E_q[(1 - pi R)^2] at cost -1, and L = E[L+] E_q[(1 - a R)^2],
    - L V = E[(1 - a R) L+ V+],
    - xi minimizes E_q[(V+ - V - pi R)^2] at cost V, and
      eps2 = E[eps2+] + E[L+] E_q[(V+ - V - xi R)^2].

    The minimizer is linear in (target, cost), so one problem on the rows
    solves targets sqrt(q) at cost -1 and sqrt(q) V+ at cost 0, and xi is the
    second column minus V times the first.  Each level is one array step
    (sums over each node's children by ``np.add.reduceat``) around one call of
    the least-squares kernel ``qp._lsq`` on the level's stack of rows, padded
    with zero rows to its largest branch count; the constraint ones' is
    factored once per asset count and shared with the DP oracle.

    ``adjustment_override`` is a hook ``f(node_id, a, null_basis) -> a``
    applied to each node after its level's solve; results must stay within
    the minimizer set for the outputs to be unchanged.
    """
    n, n_int, d = len(tree.ids), tree.n_internal, tree.d
    L, V, eps2 = np.ones(n), np.empty(n), np.zeros(n)
    V[n_int:] = _terminal_values(tree, claim)
    a, xi = np.empty((n_int, d)), np.empty((n_int, d))
    ones, flats = qp._ones(d), []
    for (here, kids, sums, owner), slots in zip(tree.levels[::-1], tree.slots[::-1]):
        p, R, L_next, V_next = tree.prob[kids], tree.rets[kids], L[kids], V[kids]
        pL = p * L_next
        mean_L = sums(pL)
        q = pL / mean_L[owner]
        sq = np.sqrt(q)[:, None]
        rows = _by_node(owner, slots, np.hstack([sq * R, sq, sq * V_next[:, None]]))
        x, _, vecs, keep = qp._lsq(rows[..., :d], rows[..., d:], ones, [[-1.0, 0.0]])
        bases = ones.N @ vecs
        a[here] = x[:, :, 0]
        if adjustment_override is not None:
            for k, i in enumerate(range(here.start, here.stop)):
                a[i] = adjustment_override(tree.ids[i], a[i], bases[k][:, ~keep[k]])
        flats.append((bases, keep))
        a_here = a[here]
        gain = 1.0 - _rowdot(R, a_here[owner])
        growth = sums(q * gain**2)
        if (growth <= _POSITIVITY_TOL).any():
            bad = here.start + np.argmax(growth <= _POSITIVITY_TOL)
            raise LocalArbitrageError(
                "opportunity process is not positive: a fully invested "
                "portfolio attains zero conditional second moment",
                where=f"node {tree.ids[bad]!r}",
            )
        L[here] = mean_L * growth
        V_here = V[here] = sums(p * (gain * L_next * V_next)) / L[here]
        xi_here = xi[here] = x[:, :, 1] - V_here[:, None] * x[:, :, 0]
        miss = V_next - V_here[owner] - _rowdot(R, xi_here[owner])
        eps2[here] = sums(p * eps2[kids]) + mean_L * sums(q * miss**2)
    return TreeSolution(claim, L, V, eps2, a, xi, flats[::-1])


def hedging_error(values, v):
    """Total expected squared hedging error L0 (v - V0)^2 + eps2_0.

    The first term is 0 at v = V0, also where L0 overflowed to inf; elsewhere
    an infinite L0 forms it as exp(log L0 + 2 log|v - V0|), which is inf only
    where the term itself leaves the float range.
    """
    gap = float(v) - values.V0
    if values.L0 < np.inf or not gap:
        return (values.L0 * gap**2 if gap else 0.0) + values.eps2_0
    with np.errstate(over="ignore"):
        return float(np.exp(values.log_L0 + 2.0 * np.log(abs(gap)))) + values.eps2_0
