"""Independent ground truth for the hedging engine.

Contains an exact dynamic-programming solver for quadratic hedging on finite
event trees (value functions are quadratics in wealth, solved level by level
with the closed-form constrained QP), a checker for the numeraire-change
equivalence, and a simulator of feedback strategies: seeded Monte Carlo for
the closed-form models, exact enumeration of the terminal wealth on trees.

The DP makes no use of the engine's weighted-moment recursions: it works
directly on the children's value-function coefficients, so agreement between
the two is a genuine cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import qp
from .engine import LocalArbitrageError, TreeSolution, _log_values
from .linalg import InvalidInputError
from .models import (
    MAX_STEPS,
    FiniteTreeModel,
    IidDiscreteModel,
    PiiItoModel,
    _amount,
    _by_node,
    _discount,
    _numeraires,
    _terminal_values,
)

__all__ = [
    "DpResult",
    "SimReport",
    "NumeraireCheckReport",
    "dp_solve",
    "numeraire_change_check",
    "mc_simulate",
    "enumerate_terminal_wealth",
]

_RNG_BLOCK = 1 << 14
_LAW_STEPS = 1 << 12
_FOLD_RANGE = 2.0**450


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


def dp_solve(tree, claim, v):
    """Exact backward induction for min E[(wealth_T - H)^2] on a finite tree.

    The value at a node is ell (w - v)^2 + e in its wealth w: with
    D = diag(sqrt(p ell)) and G the gross returns of its children, it is
    min ||D (G x - v)||^2 + E[e] over holdings with x . ones = w, solved in
    square-root form for target D v at cost 0 and 0 at cost 1.  With r0, r1
    their residuals: ell = ||r1||^2, v = -r0 . r1 / ell and
    e = ||r0 + v r1||^2 + E[e].  The objective for initial wealth v is
    ell_root (v - v_root)^2 + e_root.  Each level is one array step around
    one call of ``qp._lsq`` (ones' is factored once per asset count and
    shared with the engine).  Holdings and wealth come from one wealth roll
    of the policy pi0 + wealth * pi1.  This is the batch of one of the pass
    that :func:`numeraire_change_check` runs on a tree and its discounted
    trees together.
    """
    terminal = _terminal_values(tree, claim)[:, None]
    return _dp_pass(tree, tree.prob[:, None], tree.rets[:, None], terminal, [v])[0]


def _dp_pass(tree, prob, rets, terminal, v):
    """:func:`dp_solve` on K trees of ``tree``'s layout in one backward pass.

    Member k of the batch has the branch probabilities ``prob[:, k]``, edge
    returns ``rets[:, k]``, terminal claim values ``terminal[:, k]`` and
    initial wealth ``v[k]``; the value arrays are node-major with the batch
    as a trailing axis, so each level solves one least-squares stack for
    every member.  When several members degenerate on one level, the error
    names the first failing member's node, the base tree's first.
    Returns one :class:`DpResult` per member.
    """
    n, K = prob.shape
    n_int, d = tree.n_internal, tree.d
    v = np.asarray(v, dtype=float)
    ell, vals, errs = np.ones((n, K)), np.empty((n, K)), np.zeros((n, K))
    vals[n_int:] = terminal
    policy = np.empty((n_int, K, 2, d))
    ones = qp._ones(d)
    for (here, kids, sums, owner), slots in zip(tree.levels[::-1], tree.slots[::-1]):
        root_pl = np.sqrt(prob[kids] * ell[kids])[..., None]
        cols = [root_pl * (1.0 + rets[kids]), root_pl * vals[kids][..., None]]
        cols = np.concatenate(cols + [np.zeros_like(root_pl)], axis=-1)
        # each node's rows and targets, member after member: (K m, width, d + 2)
        stack = _by_node(owner, slots, cols).transpose(2, 0, 1, 3)
        stack = stack.reshape(-1, *stack.shape[2:])
        x, res, _, _ = qp._lsq(stack[..., :d], stack[..., d:], ones, [[0.0, 1.0]])
        policy[here] = x.reshape(K, -1, d, 2).transpose(1, 0, 3, 2)
        r0, r1 = res.reshape(K, -1, *res.shape[1:]).transpose(3, 2, 1, 0)
        slope = (r1**2).sum(axis=0)
        if (slope <= 1e-12).any():
            _, i = np.argwhere(slope.T <= 1e-12)[0]
            raise LocalArbitrageError(
                "value function degenerates: wealth has no quadratic cost, so a "
                "fully invested portfolio attains zero conditional second moment",
                where=f"node {tree.ids[here.start + i]!r}",
            )
        ell[here], vals[here] = slope, -(r0 * r1).sum(axis=0) / slope
        miss = ((r0 + vals[here] * r1) ** 2).sum(axis=0)
        errs[here] = miss + sums(prob[kids] * errs[kids])
    holdings, wealth = tree._roll(
        rets,
        lambda nodes, w: policy[nodes, :, 0] + w[..., None] * policy[nodes, :, 1],
        v,
    )
    return [
        DpResult(
            ell[:, k], vals[:, k], errs[:, k], policy[:, k], holdings[:, k],
            wealth[:, k],
            float(ell[0, k] * (float(v[k]) - vals[0, k]) ** 2 + errs[0, k]),
        )
        for k in range(K)
    ]


@dataclass(frozen=True)
class NumeraireCheckReport:
    """Outcome of the hedging-equivalence check under a numeraire change.

    The undiscounted objective must equal ``terminal_second_moment`` (the
    numeraire's E[X_T^2]) times the discounted objective, and the share
    holdings must coincide node by node.  A report is the same whether its
    asset is checked alone or with others: each discounted tree is a
    separate member of one stacked DP pass.
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


def numeraire_change_check(tree, claim, numeraire_index, v):
    """Solve the problem with and without discounting by one asset and compare.

    Discounting divides prices pathwise by the chosen strictly positive asset,
    reweights probabilities by its conditional terminal second moment, divides
    the claim by X_T and the initial wealth by X_0.  The optimal share
    holdings are invariant and the objectives differ by the factor E[X_T^2].
    This is :func:`_numeraire_reports` for one asset: the undiscounted and
    the discounted tree are solved together, in one stacked DP pass.
    """
    return _numeraire_reports(tree, claim, [numeraire_index], v)[1][0]


def _numeraire_reports(tree, claim, assets, v):
    """The undiscounted :class:`DpResult` and one :class:`NumeraireCheckReport`
    per numeraire in ``assets``, from one DP pass.

    The DP's node-major inputs hold the undiscounted tree as member 0 and
    asset ``assets[k]``'s discounted tree as member k + 1, which
    :func:`models._discount` writes in place for every asset at once, with
    one value check over the stack: the first failing asset raises what
    :func:`discount_tree` raises for it.  No discounted tree is built.  The
    assets are checked as numeraires first, and the discounted claim values
    last, bounded by ``MAX_AMOUNT`` like those of a ``Claim``; a failure
    names the first failing asset.
    """
    n, n_int, d = len(tree.ids), tree.n_internal, tree.d
    assets = _numeraires(tree, assets)
    K = 1 + len(assets)
    prob, rets = np.empty((n, K)), np.empty((n, K, d))
    terminal = np.empty((n - n_int, K))
    prob[:, 0], rets[:, 0] = tree.prob, tree.rets
    prices, moments = _discount(
        tree, assets, prob[:, 1:].T, rets[:, 1:].transpose(1, 0, 2)
    )
    terminal[:, 0] = _terminal_values(tree, claim)
    np.divide(terminal[:, :1], tree.prices[n_int:, assets], out=terminal[:, 1:])
    _amount(terminal[:, 1:].T, "a claim value")
    wealth = np.append(float(v), float(v) / tree.prices[0, assets])
    base, *solved = _dp_pass(tree, prob, rets, terminal, wealth)
    shares = base.holdings / tree.prices[:n_int]
    scale, reports = 1.0 + np.abs(shares), []
    for j, disc_prices, m2, disc in zip(assets, prices, moments[:, 0], solved):
        shares_hat = disc.holdings / disc_prices[:n_int]
        gaps = np.abs(shares - shares_hat) / scale
        reports.append(NumeraireCheckReport(
            numeraire_index=j,
            objective=base.objective,
            objective_discounted=disc.objective,
            terminal_second_moment=float(m2),
            objective_gap=float(abs(base.objective - m2 * disc.objective)),
            max_holdings_gap=float(gaps.max(initial=0.0)),
        ))
    return base, reports


def enumerate_terminal_wealth(tree, solution: TreeSolution, v):
    """Exact terminal wealth distribution of the feedback strategy.

    Returns (probs, wealth, payoff) arrays over terminal nodes: one wealth
    roll over the tree with the solution's feedback rule, weighted by the
    tree's branch probabilities.  The payoff is a copy of the solution's
    terminal values ``V``, which are the claim's.
    """
    _, wealth = tree.roll_wealth(solution.feedback, v)
    n_int = tree.n_internal
    payoff = solution.V[n_int:].copy()
    return tree.node_probabilities()[n_int:], wealth[n_int:], payoff


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
    """SFC64 stream of path block ``block``: SeedSequence(seed, spawn_key=(block,)).

    The non-negative ``seed`` enters unreduced as the entropy and the block
    index as the spawn key, so results depend only on (seed, path index) and
    no two (seed, block) pairs share a stream.
    """
    entropy = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(entropy))


def _pair_law(P, m, S):
    """Step table of the pairs P r, r ~ N(m, S): five (K,) rows (m0, m1, p, q, r^2).

    ``P`` stacks K pairs of rows [g; h] as (K, 2, d), with one (m, S) or K; the
    pair (g.r, h.r) is exactly normal with means m0 = g.m, m1 = h.m and
    covariance C = P S P', whose lower Cholesky triangle is [[p, 0], [q, r]]:
    p = sqrt(C00), q = C10 / p (0 where p = 0) and r^2 = C11 - q^2.  C00 and
    r^2 are clipped at 0: a PSD ``S`` may have rounding-level negative eigenvalues.
    """
    C = P @ S @ P.transpose(0, 2, 1)
    p = np.sqrt(np.maximum(C[:, 0, 0], 0.0))
    q = np.divide(C[:, 1, 0], p, out=np.zeros_like(p), where=p > 0)
    r2 = np.maximum(C[:, 1, 1] - q * q, 0.0)
    return np.vstack([(P @ m[..., None])[..., 0].T, p, q, r2])


def _simulate_steps(n_steps, law, v, n_paths, seed):
    """Report of the hedging errors wealth_T - 1 of :func:`_roll_affine`.

    Each block's errors are folded, in place on the roll's buffer, into the
    running count, sum of the errors, mean of the squared errors and their M2 by
    the pairwise update of Chan, Golub and LeVeque (1983), so no array of length
    n_paths is formed.  Squared errors are folded in an exact power-of-two
    ``unit``, 1 until one passes ``_FOLD_RANGE`` units, then the power of two
    at or below it, with the running mean and M2 rescaled each time it grows,
    so M2 never overflows.  With unit 1, one block's statistics are those of
    ``np.mean`` and ``np.std(ddof=1)`` bit for bit.  As the roll squares
    ``p w + q``, paths range to about 1.3e154: a block whose largest squared
    error is not below inf raises InvalidInputError, not a float warning.
    """
    count, total, mean_sq, m2, unit = 0, 0.0, 0.0, 0.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for errors in _roll_affine(n_steps, law, v, n_paths, seed):
            size = len(errors)
            errors -= 1.0
            total += float(errors.sum())
            errors *= errors
            top = float(errors.max())
            if not top < math.inf:
                raise InvalidInputError(
                    "a simulated path leaves the float range, about 1.3e154"
                )
            if unit * _FOLD_RANGE < top:
                old, unit = unit, math.ldexp(1.0, math.frexp(top)[1] - 1)
                mean_sq, m2 = mean_sq * (old / unit), m2 * (old / unit) ** 2
            if unit > 1.0:
                errors /= unit
            block_mean = float(errors.mean())
            errors -= block_mean
            errors *= errors
            delta, count = block_mean - mean_sq, count + size
            mean_sq += delta * (size / count)
            m2 += float(errors.sum()) + (count - size) * size / count * delta * delta
    se = 0.0 if n_paths < 2 else math.sqrt(m2 / (n_paths - 1)) / math.sqrt(n_paths)
    return SimReport(
        n_paths=n_paths,
        seed=seed,
        error_mean=total / n_paths,
        error_second_moment=mean_sq * unit,
        std_error=se * unit,
        exact=False,
    )


def _roll_affine(n_steps, law, v, n_paths, seed):
    """Terminal wealth of n_paths paths over n_steps random affine maps.

    Step k maps wealth w to alpha w + beta, a normal pair independent of w;
    ``law(k0, k1)`` gives its :func:`_pair_law` rows (m0, m1, p, q, r^2) for
    steps k0..k1 - 1, per ``_LAW_STEPS`` steps.  Given w the new wealth is
    exactly N(m0 w + m1, (p w + q)^2 + r^2), so one normal z per path and step
    gives it as m0 w + m1 + sqrt((p w + q)^2 + r^2) z.  Each block of
    ``_RNG_BLOCK`` paths draws from its own :func:`_block_rng` stream and
    rolls to the horizon, a block of ``size`` paths drawing (chunk, size)
    normals per chunk of ``max(1, _RNG_BLOCK // size)`` steps; a generator
    fills consecutive draws in order, so chunking moves no draw.  A one-chunk
    horizon builds its step table once; a longer one rebuilds each chunk's
    table per block.  Yields each block's terminal wealth in one reused
    buffer, valid until the next block, so memory is bounded whatever the
    horizon and the path count.
    """
    def tables():
        for k0 in range(0, n_steps, _LAW_STEPS):
            yield list(zip(*law(k0, min(n_steps, k0 + _LAW_STEPS)).tolist()))

    built = list(tables()) if n_steps <= _LAW_STEPS else None
    normals = np.empty(_RNG_BLOCK)
    wealth, scratch = np.empty((2, min(n_paths, _RNG_BLOCK)))
    for block, lo in enumerate(range(0, n_paths, _RNG_BLOCK)):
        paths, rng = wealth[: n_paths - lo], _block_rng(seed, block)
        size, chunk = len(paths), max(1, _RNG_BLOCK // len(paths))
        t = scratch[:size]
        paths.fill(v)
        for steps in built or tables():
            for j in range(0, len(steps), chunk):
                part = steps[j : j + chunk]
                z = normals[: len(part) * size].reshape(-1, size)
                rng.standard_normal(out=z)
                for (m0, m1, pk, qk, r2k), zk in zip(part, z):
                    # t = sqrt((p w + q)^2 + r^2) z, then w = m0 w + m1 + t
                    np.multiply(paths, pk, out=t)
                    t += qk
                    t *= t
                    t += r2k
                    np.sqrt(t, out=t)
                    t *= zk
                    paths *= m0
                    paths += m1
                    paths += t
        yield paths


def _iid_law(model, coeffs, values):
    """Step count and per-chunk law of (alpha, beta) per period, r ~ N(mu, sigma).

    ``law(k0, k1)`` gives periods k0..k1 - 1: the :func:`_pair_law` table of
    the rows [-a[t]; xi[t] + V[t] a[t]], with 1 added to alpha's mean m0.
    """
    def law(k0, k1):
        a = coeffs.a[k0:k1]
        P = np.stack([-a, coeffs.xi[k0:k1] + values.V[k0:k1, None] * a], axis=1)
        table = _pair_law(P, model.mu, model.sigma)
        table[0] += 1.0
        return table

    return len(values.V) - 1, law


def _euler_steps(bounds, counts, starts, k0, k1):
    """Segment ``i``, start ``t0`` and length ``dt`` of Euler steps k0..k1 - 1.

    Segment i holds steps starts[i]..starts[i + 1] - 1; its step j runs
    between points j and j + 1 of ``np.linspace(bounds[i], bounds[i + 1],
    counts[i] + 1)``, computed only there, so a chunk may span segments.
    """
    k = np.arange(k0, k1)
    i = np.searchsorted(starts, k, side="right") - 1
    j, n, lo, hi = k - starts[i], counts[i], bounds[i], bounds[i + 1]
    t0 = j * ((hi - lo) / n) + lo
    return i, t0, np.where(j + 1 == n, hi, (j + 1) * ((hi - lo) / n) + lo) - t0


def _pii_law(model, coeffs, values, step):
    """Step count and per-chunk law of (alpha, beta) on the Euler grid.

    Each segment is cut into ceil(duration / step) substeps, so segment
    boundaries are grid points; dlog ~ N(b_i dt, c_i dt).  The
    :func:`_pair_law` table (m0, m1, p, q, r^2) of the rows [-a_i; zeta_i +
    a_i] under N(b_i, c_i) is built once for all segments.  A substep of
    length dt from V has means 1 + dt m0 and dt V m1 and the triangle
    (sqrt(dt) p, sqrt(dt) V q, dt V^2 r^2), exactly, as the triangle of D C D
    is D times that of C for D = diag(sqrt(dt), sqrt(dt) V).  log V has
    slope a_i c_i a_i' - a_i b_i on segment i, and its boundary values come
    from the closed form's :func:`mvhedge.engine._log_values`, finite where
    V underflows; a chunk of steps is one lookup in the :func:`_euler_steps`
    table.  The step count is checked against ``MAX_STEPS`` first.
    """
    if step is None or not step > 0:
        raise InvalidInputError(f"a positive Euler step is required, got {step}")
    bounds = values.times
    with np.errstate(over="ignore"):  # an infinite count fails the check below
        n_subs = np.ceil(np.diff(bounds) / step - 1e-12)
    if n_subs.sum() > MAX_STEPS:
        raise InvalidInputError(
            f"an Euler step of {step:g} needs {n_subs.sum():.3g} steps; "
            f"at most {MAX_STEPS} are allowed"
        )
    counts = np.maximum(1, n_subs).astype(int)
    starts = np.concatenate([[0], np.cumsum(counts)])
    b, c = (np.array([getattr(seg, k) for seg in model.segments]) for k in "bc")
    a = coeffs.a
    _, slopes, _, log_v = _log_values(a, b, c, np.diff(bounds))
    m0, m1, p, q, r2 = _pair_law(np.stack([-a, coeffs.zeta + a], axis=1), b, c)

    def law(k0, k1):
        i, t0, dt = _euler_steps(bounds, counts, starts, k0, k1)
        track = np.exp(log_v[i + 1] - slopes[i] * (bounds[i + 1] - t0))
        root = np.sqrt(dt)
        dv = root * track  # D = diag(root, dv)
        mean = (1.0 + m0[i] * dt, track * m1[i] * dt)
        return np.stack([*mean, root * p[i], dv * q[i], dv * dv * r2[i]])

    return int(starts[-1]), law


def _simulate_tree(tree, solution, claim, v, seed):
    if claim is not None and claim != solution.claim:
        raise InvalidInputError(
            "the claim must be the one the tree solution hedges, or None"
        )
    probs, wealth, payoff = enumerate_terminal_wealth(tree, solution, v)
    err = wealth - payoff
    return SimReport(
        n_paths=len(err),
        seed=seed,
        error_mean=float(probs @ err),
        error_second_moment=float(probs @ err**2),
        std_error=0.0,
        exact=True,
    )


def mc_simulate(model, coeffs, values, claim, v, n_paths, seed, step=None):
    """Simulate the feedback strategy and report the empirical hedging error.

    Deterministic given (seed, n_paths): each block of ``_RNG_BLOCK`` paths
    draws its normals from the SFC64 stream :func:`_block_rng` of (seed,
    block index).  A closed-form ``seed`` is a non-negative int, used as it
    is; a ``seed`` of None draws fresh entropy from ``np.random.SeedSequence``,
    which the report gives as its seed, so a rerun with that seed repeats it.
    For trees ``claim`` is None or the :class:`TreeSolution`'s own claim, and
    the terminal distribution is enumerated exactly: the report has one path
    per terminal node, ``exact`` true and no standard error, whatever
    ``n_paths`` and ``seed`` are.  IID models step once per period with
    simple returns r ~ N(mu, sigma); piecewise-constant models use an Euler
    scheme on log returns with the user-supplied ``step``.  Under the feedback
    rule pi = xi + (V - wealth) a one step maps wealth to alpha wealth + beta,
    alpha = 1 - a.r and beta = (xi + V a).r, an exactly bivariate normal pair
    independent of wealth, so the new wealth is exactly normal given the old:
    one normal per path and step.  :func:`_simulate_steps` rolls one block of
    paths at a time to the horizon and folds it into running statistics, so
    memory is bounded whatever ``n_paths`` and the horizon; a path past
    about 1.3e154 in magnitude raises InvalidInputError.
    """
    if isinstance(model, FiniteTreeModel):
        if not isinstance(coeffs, TreeSolution):
            raise TypeError("tree simulation needs the TreeSolution as coeffs")
        return _simulate_tree(model, coeffs, claim, v, seed)
    if int(n_paths) < 1:
        raise InvalidInputError(f"the path count must be at least 1, got {n_paths}")
    if seed is not None and seed < 0:
        raise InvalidInputError(f"the seed must be non-negative, got {seed}")
    if claim is not None and claim.constant != 1.0:
        raise InvalidInputError(
            "closed-form models support only the constant payoff 1"
        )
    if isinstance(model, IidDiscreteModel):
        law = _iid_law(model, coeffs, values)
    elif isinstance(model, PiiItoModel):
        law = _pii_law(model, coeffs, values, step)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if seed is None:
        seed = np.random.SeedSequence().entropy
    return _simulate_steps(*law, v, int(n_paths), seed)
