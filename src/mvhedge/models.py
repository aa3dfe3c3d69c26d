"""Market model classes: discrete IID, piecewise-constant Ito, finite event tree.

All models expose local characteristics (b, c) of per-asset simple returns in
the dollar-amount parametrization: b is the conditional mean return rate and c
the conditional second-moment rate.  Models are immutable after construction
and validated eagerly.
"""

import json
import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import qp
from .linalg import DEFAULT_CTX, InvalidInputError, symmetric_psd

__all__ = [
    "InvalidModelError",
    "InvalidNumeraireError",
    "IidDiscreteModel",
    "PiiSegment",
    "PiiItoModel",
    "TreeNode",
    "FiniteTreeModel",
    "Claim",
    "check_local_na",
    "discount_tree",
    "model_from_dict",
    "model_to_dict",
    "load_config",
]

# Branch-probability sums: float-rounding gaps pass silently, gaps up to the
# contract bound are renormalized with a warning, anything larger is invalid.
_PROB_SUM_EXACT = 1e-13
_PROB_SUM_TOL = 1e-12

# Time steps of a model or of a simulation grid; arrays grow with their count.
MAX_STEPS = 10**6
# Money amounts (wealth, claims, payoffs) are squared in every second moment;
# up to this magnitude the squares and their sums stay finite.
MAX_AMOUNT = 1e150


class InvalidModelError(ValueError):
    """Raised when model data violates its structural requirements."""


class InvalidNumeraireError(ValueError):
    """Raised when the requested numeraire asset is not strictly positive."""


class IidDiscreteModel:
    """Discrete-time market with IID one-period simple returns.

    Parameters
    ----------
    mu : (d,) per-period mean rate of return
    sigma : (d, d) per-period return covariance, symmetric PSD
    n_periods : number of trading periods (T)
    """

    def __init__(self, mu, sigma, n_periods, ctx=DEFAULT_CTX):
        self.mu = np.asarray(mu, dtype=float).ravel()
        if not np.all(np.isfinite(self.mu)):
            raise InvalidModelError("mu contains non-finite entries")
        self.sigma, _ = symmetric_psd(sigma, "sigma", InvalidModelError, ctx)
        if self.sigma.shape[0] != self.mu.shape[0]:
            raise InvalidModelError("mu and sigma dimensions differ")
        self.n_periods = int(n_periods)
        if self.n_periods < 1:
            raise InvalidModelError("n_periods must be at least 1")
        if self.n_periods > MAX_STEPS:
            raise InvalidModelError(
                f"n_periods must be at most {MAX_STEPS}, got {self.n_periods:.3g}"
            )

    @property
    def d(self):
        return self.mu.shape[0]

    def log_characteristics(self, period=0):
        """(b, c) of one-period simple returns: b = mu, c = sigma + mu mu'."""
        if not 0 <= int(period) < self.n_periods:
            raise InvalidModelError(
                f"period {period} out of range [0, {self.n_periods})"
            )
        return self.mu.copy(), self.sigma + np.outer(self.mu, self.mu)


@dataclass(frozen=True)
class PiiSegment:
    """One piecewise-constant segment: duration, drift rate b, second-moment rate c."""

    duration: float
    b: np.ndarray
    c: np.ndarray


class PiiItoModel:
    """Continuous-time market with piecewise-constant return characteristics.

    ``segments`` is an ordered list of (duration, b, c) with durations summing
    to the horizon; b is the drift rate and c the (symmetric PSD)
    second-characteristic rate of log returns.  All time integrals are exact
    segment sums.
    """

    def __init__(self, segments, ctx=DEFAULT_CTX):
        if not segments:
            raise InvalidModelError("at least one segment is required")
        cleaned = []
        d = None
        for i, seg in enumerate(segments):
            if isinstance(seg, PiiSegment):
                duration, b, c = seg.duration, seg.b, seg.c
            else:
                duration, b, c = seg
            duration = float(duration)
            if not duration > 0:
                raise InvalidModelError(f"segment {i} has non-positive duration")
            b = np.asarray(b, dtype=float).ravel()
            if not np.all(np.isfinite(b)):
                raise InvalidModelError(f"segment {i} drift has non-finite entries")
            c, _ = symmetric_psd(
                c, f"segment {i} second characteristic", InvalidModelError, ctx
            )
            if d is None:
                d = b.shape[0]
            if b.shape[0] != d or c.shape[0] != d:
                raise InvalidModelError("segments have inconsistent dimensions")
            cleaned.append(PiiSegment(duration, b, c))
        self.segments = tuple(cleaned)

    @property
    def d(self):
        return self.segments[0].b.shape[0]

    @property
    def horizon(self):
        return float(sum(s.duration for s in self.segments))

    def segment_index(self, t):
        """Index of the segment containing time t (right-closed at the horizon)."""
        t = float(t)
        if t < 0 or t > self.horizon * (1 + 1e-12):
            raise InvalidModelError(f"time {t} outside [0, {self.horizon}]")
        acc = 0.0
        for i, seg in enumerate(self.segments):
            acc += seg.duration
            if t < acc or i == len(self.segments) - 1:
                return i

    def log_characteristics(self, t):
        seg = self.segments[self.segment_index(t)]
        return seg.b.copy(), seg.c.copy()


class TreeNode(NamedTuple):
    """Event-tree node: integer time, price vector, branch list (prob, child id)."""

    id: str
    time: int
    prices: np.ndarray
    branches: tuple


def _rowdot(x, y):
    """Row-wise x_i . y_i by stacked matmul, rounding exactly like ``x_i @ y_i``."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _quad(x, M, y):
    """Row-wise x_i M_i y_i, rounding exactly like ``x_i @ M_i @ y_i``."""
    return (x[:, None, :] @ M @ y[:, :, None])[:, 0, 0]


class FiniteTreeModel:
    """Finite-state event tree with per-node prices and branch probabilities.

    Nodes form an explicit DAG-free tree (each node has a unique parent path),
    child times increase by one, branch probabilities at a node are positive
    and sum to one (sums within 1e-12 are renormalized with a warning), all
    terminal nodes share the same time, and at least one asset is strictly
    positive on every node so that a numeraire candidate exists.

    The tree is laid out once, in time-major node order: internal nodes come
    first, the root is position 0 and each node's children sit next to each
    other in branch order.  ``ids[i]`` is the id at position ``i`` and
    ``index`` maps ids back to positions, and the first ``n_internal``
    positions are the non-terminal nodes; ``parent``, ``prob`` (the branch
    probability into the node), ``time``, ``prices`` and ``rets`` (the simple
    returns over the edge from the parent; zero at the root) are arrays in
    node order.  ``levels`` holds one ``(nodes, children, sums, owner)``
    tuple per non-terminal time, root first: the position slices of the level
    and of its children, ``sums(x)`` adding per-child rows ``x`` over each
    node's children (``np.add.reduceat``), and each child's parent relative
    to ``nodes.start``.  Every tree pass runs level by level over these.
    """

    def __init__(self, nodes, root, payoff=None, ctx=DEFAULT_CTX):
        cleaned = {}
        for nid, time, prices, branches in nodes:
            nid = str(nid)
            if nid in cleaned:
                raise InvalidModelError(f"duplicate node id {nid!r}")
            prices = np.asarray(prices, dtype=float).ravel()
            if not np.all(np.isfinite(prices)):
                raise InvalidModelError(f"node {nid!r} has non-finite prices")
            if np.any(prices == 0.0):
                raise InvalidModelError(
                    f"node {nid!r} has a zero price; returns are undefined"
                )
            branches = tuple((float(p), str(ch)) for p, ch in branches)
            cleaned[nid] = TreeNode(nid, int(time), prices, branches)
        if str(root) not in cleaned:
            raise InvalidModelError(f"root node {root!r} not present")
        self.nodes = cleaned
        self.root = str(root)
        self._validate(ctx)
        self.payoff = None if payoff is None else {
            str(k): float(v) for k, v in payoff.items()
        }
        if self.payoff is not None:
            missing = [t for t in self.terminal_ids if t not in self.payoff]
            if missing:
                raise InvalidModelError(
                    f"payoff missing for terminal nodes {missing[:5]}"
                )

    def _validate(self, ctx):
        """Check the tree breadth first and lay it out in the same pass."""
        d = self.nodes[self.root].prices.shape[0]
        order, parent, prob = [self.root], [-1], [1.0]
        index = {self.root: 0}
        pos = 0
        while pos < len(order):
            nid = order[pos]
            node = self.nodes[nid]
            if node.prices.shape[0] != d:
                raise InvalidModelError("inconsistent asset count across nodes")
            if node.branches:
                probs = np.array([p for p, _ in node.branches])
                if np.any(probs <= 0):
                    raise InvalidModelError(
                        f"node {nid!r} has a non-positive branch probability"
                    )
                gap = abs(probs.sum() - 1.0)
                if gap > _PROB_SUM_TOL:
                    raise InvalidModelError(
                        f"branch probabilities at node {nid!r} sum to {probs.sum()}"
                    )
                if gap > _PROB_SUM_EXACT:
                    warnings.warn(
                        f"renormalizing branch probabilities at node {nid!r} "
                        f"(sum off by {gap:.2e})"
                    )
                    probs = probs / probs.sum()
                    kids = [ch for _, ch in node.branches]
                    node = self.nodes[nid] = node._replace(
                        branches=tuple(zip(probs.tolist(), kids))
                    )
                for p, child in node.branches:
                    if child not in self.nodes:
                        raise InvalidModelError(f"unknown child node {child!r}")
                    if child in index:
                        raise InvalidModelError(
                            f"node {child!r} reached twice; not a tree"
                        )
                    if self.nodes[child].time != node.time + 1:
                        raise InvalidModelError(
                            f"child {child!r} time must be {node.time + 1}"
                        )
                    index[child] = len(order)
                    order.append(child)
                    parent.append(pos)
                    prob.append(p)
            pos += 1
        unreachable = set(self.nodes) - set(index)
        if unreachable:
            raise InvalidModelError(f"unreachable nodes: {sorted(unreachable)[:5]}")
        terminals = [nid for nid in order if not self.nodes[nid].branches]
        times = {self.nodes[t].time for t in terminals}
        if len(times) != 1:
            raise InvalidModelError("terminal nodes must share a common time")
        self.horizon = times.pop()
        self.terminal_ids = tuple(terminals)
        self.n_internal = len(order) - len(terminals)
        self.ids, self.index = tuple(order), index
        self.parent = np.array(parent)
        self.prob = np.array(prob)
        self.time = np.array([self.nodes[nid].time for nid in order])
        self.prices = np.array([self.nodes[nid].prices for nid in order])
        self.rets = np.zeros_like(self.prices)
        self.rets[1:] = self.prices[1:] / self.prices[self.parent[1:]] - 1.0
        _amount(float(np.max(np.abs(self.rets))), "every edge return")
        lb = np.searchsorted(self.time, np.arange(self.time[0], self.horizon + 2))
        first = np.searchsorted(self.parent, np.arange(len(order)))
        self.levels = tuple(
            (slice(a, b), slice(b, c), partial(np.add.reduceat, indices=first[a:b] - b),
             self.parent[b:c] - a)
            for a, b, c in zip(lb, lb[1:], lb[2:])
        )
        if not self.positive_assets():
            raise InvalidModelError(
                "no strictly positive asset exists; the tree admits no "
                "self-financing numeraire candidate"
            )

    @property
    def d(self):
        return self.prices.shape[1]

    def node_probabilities(self):
        """Unconditional probability of reaching each node, in node order."""
        reach = np.ones(len(self.ids))
        for here, kids, _, owner in self.levels:
            reach[kids] = reach[here][owner] * self.prob[kids]
        return reach

    def roll_wealth(self, holdings, v):
        """Roll self-financing wealth from ``v`` at the root over every node.

        ``holdings(nodes, wealth)`` gives the dollar portfolios held at the
        slice ``nodes`` of one non-terminal level from their wealth.  Returns
        the holdings of every non-terminal node and the wealth of every node,
        in node order.
        """
        wealth = np.empty(len(self.ids))
        wealth[0] = v
        pis = np.empty((self.n_internal, self.d))
        for here, kids, _, owner in self.levels:
            pi = pis[here] = holdings(here, wealth[here])
            wealth[kids] = wealth[here][owner] + _rowdot(pi[owner], self.rets[kids])
        return pis, wealth

    def positive_assets(self):
        """Indices of assets with strictly positive prices on every node."""
        return [int(i) for i in np.flatnonzero(np.all(self.prices > 0, axis=0))]

    def log_characteristics(self, nid):
        """Conditional (b, c) of simple returns at a non-terminal node."""
        lo, hi = np.searchsorted(self.parent, self.index[str(nid)] + np.arange(2))
        if lo == hi:
            raise InvalidModelError(f"node {nid!r} is terminal")
        rets, probs = self.rets[lo:hi], self.prob[lo:hi]
        b = probs @ rets
        c = rets.T @ (rets * probs[:, None])
        return b, 0.5 * (c + c.T)


@dataclass(frozen=True)
class Claim:
    """Terminal payoff: either a constant or a map terminal-node-id -> value."""

    constant: float | None = None
    payoff: dict | None = None

    def __post_init__(self):
        if (self.constant is None) == (self.payoff is None):
            raise InvalidModelError(
                "claim must specify exactly one of a constant or a payoff map"
            )
        for x in [self.constant] if self.payoff is None else self.payoff.values():
            _amount(float(x), "a claim value")

    def value_at(self, terminal_id):
        if self.constant is not None:
            return float(self.constant)
        try:
            return float(self.payoff[str(terminal_id)])
        except KeyError:
            raise InvalidModelError(
                f"claim payoff undefined at terminal node {terminal_id!r}"
            ) from None

    @staticmethod
    def constant_one():
        return Claim(constant=1.0)


def check_local_na(b, c, mode="discrete", ctx=DEFAULT_CTX):
    """Local no-arbitrage test: the drift must lie in Ran(c) + Ran(ones).

    The same range condition applies in discrete and continuous time
    (``mode`` is informational only).  Failure means the one-step mean-variance
    problem is unbounded: some costless exposure has positive drift and no
    second moment.  This is :func:`qp.check_bounded` with ``A = ones'``.
    """
    if mode not in ("discrete", "continuous"):
        raise InvalidModelError(f"unknown mode {mode!r}")
    b = np.asarray(b, dtype=float).ravel()
    try:
        return qp.check_bounded(c, b, np.ones((1, b.shape[0])), ctx)
    except qp.InvalidProblemError as err:
        raise InvalidModelError(str(err)) from None


def discount_tree(tree, numeraire_index, ctx=DEFAULT_CTX):
    """Re-express a tree in units of one of its assets, reweighting probabilities.

    Prices are divided pathwise by the numeraire asset's price, so that asset
    becomes identically 1.  Branch probabilities are reweighted by the ratio of
    conditional terminal second moments of the numeraire,
    ``p_hat = p * E[X_T^2 | child] / E[X_T^2 | node]``, which realizes the
    change of measure with density X_T^2 / E[X_T^2].

    Returns the discounted tree and E[X_T^2 | node] for every node, in node
    order.
    """
    j = int(numeraire_index)
    if not 0 <= j < tree.d:
        raise InvalidNumeraireError(f"numeraire index {j} out of range")
    if j not in tree.positive_assets():
        raise InvalidNumeraireError(
            f"numeraire asset {j} is not strictly positive on every node"
        )
    weights = tree.prices[:, j] ** 2
    for here, kids, sums, _ in reversed(tree.levels):
        weights[here] = sums(tree.prob[kids] * weights[kids])
    prob = tree.prob * weights / weights[tree.parent]
    prices = tree.prices / tree.prices[:, j : j + 1]
    new_nodes = []
    for i, nid in enumerate(tree.ids):
        node = tree.nodes[nid]
        branches = tuple((float(prob[tree.index[ch]]), ch) for _, ch in node.branches)
        new_nodes.append(TreeNode(nid, node.time, prices[i], branches))
    payoff = None
    if tree.payoff is not None:
        terminal_prices = tree.prices[tree.n_internal :, j]
        payoff = {
            t: tree.payoff[t] / x for t, x in zip(tree.terminal_ids, terminal_prices)
        }
    return FiniteTreeModel(new_nodes, tree.root, payoff=payoff, ctx=ctx), weights


def _typed(value, kind, what):
    """``value`` when it has the JSON type ``kind`` (dict or list)."""
    if not isinstance(value, kind):
        name = "a mapping" if kind is dict else "a list"
        raise InvalidModelError(f"{what} must be {name}")
    return value


def _number(convert, value, what):
    """``convert(value)`` for ``convert`` int or float; failure is InvalidModelError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidModelError(f"{what} must be a number, got {value!r}") from None


def _array(value, what):
    """Float array of ``value``; failure is InvalidModelError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidModelError(
            f"{what} must be a rectangular array of numbers, got {value!r}"
        ) from None


def _tree_node(n):
    n = _typed(n, dict, "each tree node")
    branches = _typed(n.get("branches", []), list, f"branches of node {n['id']!r}")
    return (
        n["id"],
        _number(int, n["time"], f"time of node {n['id']!r}"),
        _array(n["prices"], f"prices of node {n['id']!r}"),
        [
            (_number(float, br["prob"], "branch prob"), br["child"])
            for br in (_typed(br, dict, "each branch") for br in branches)
        ],
    )


def model_from_dict(data, ctx=DEFAULT_CTX):
    """Build a model from a config mapping; malformed data is an InvalidModelError.

    A missing key, a section of the wrong JSON type and a value that does not
    convert to numbers all raise :class:`InvalidModelError`.
    """
    data = _typed(data, dict, "the 'model' section")
    kind = data.get("kind")
    try:
        if kind == "iid":
            return IidDiscreteModel(
                _array(data["mu"], "mu"),
                _array(data["sigma"], "sigma"),
                _number(int, data["T"], "T"),
                ctx=ctx,
            )
        if kind == "pii":
            segments = [
                (
                    _number(float, s["duration"], "segment duration"),
                    _array(s["b"], "segment b"),
                    _array(s["c"], "segment c"),
                )
                for s in (
                    _typed(s, dict, "each segment")
                    for s in _typed(data["segments"], list, "'segments'")
                )
            ]
            return PiiItoModel(segments, ctx=ctx)
        if kind == "tree":
            nodes = [
                _tree_node(n) for n in _typed(data["nodes"], list, "'nodes'")
            ]
            payoff = data.get("payoff")
            if payoff is not None:
                payoff = {
                    k: _number(float, v, f"payoff at {k!r}")
                    for k, v in _typed(payoff, dict, "'payoff'").items()
                }
            return FiniteTreeModel(nodes, data["root"], payoff=payoff, ctx=ctx)
    except KeyError as err:
        raise InvalidModelError(f"{kind} model config lacks the key {err}") from None
    raise InvalidModelError(f"unknown model kind {kind!r}")


def model_to_dict(model):
    """Inverse of :func:`model_from_dict` (round-trips all three kinds)."""
    if isinstance(model, IidDiscreteModel):
        return {
            "kind": "iid",
            "mu": model.mu.tolist(),
            "sigma": model.sigma.tolist(),
            "T": model.n_periods,
        }
    if isinstance(model, PiiItoModel):
        return {
            "kind": "pii",
            "segments": [
                {"duration": s.duration, "b": s.b.tolist(), "c": s.c.tolist()}
                for s in model.segments
            ],
        }
    if isinstance(model, FiniteTreeModel):
        out = {
            "kind": "tree",
            "root": model.root,
            "nodes": [
                {
                    "id": n.id,
                    "time": n.time,
                    "prices": n.prices.tolist(),
                    "branches": [
                        {"prob": p, "child": ch} for p, ch in n.branches
                    ],
                }
                for n in (model.nodes[nid] for nid in model.ids)
            ],
        }
        if model.payoff is not None:
            out["payoff"] = dict(model.payoff)
        return out
    raise InvalidModelError(f"unsupported model type {type(model).__name__}")


def _amount(x, what):
    """``x`` when its magnitude is at most ``MAX_AMOUNT``; else InvalidInputError."""
    if not abs(x) <= MAX_AMOUNT:
        raise InvalidInputError(
            f"{what} must be at most {MAX_AMOUNT:g} in magnitude, got {x!r}"
        )
    return x


def _config_number(data, key):
    """Finite float under ``key``, or None when the key is absent or null."""
    raw = data.get(key)
    x = None if raw is None else _number(float, raw, key)
    if x is not None and not np.isfinite(x):
        raise InvalidInputError(f"{key} must be finite")
    return x


def load_config(path, ctx=DEFAULT_CTX):
    """Load a config file: {"model": {...}, "claim": ..., "wealth": ..., "step": ...}.

    Returns (model, claim_or_None, wealth_or_None, step_or_None).  ``claim``
    may be a number (constant payoff) or omitted when the tree model carries
    its own payoff; ``step`` is the Euler step of the piecewise-constant
    simulator and must be positive.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "model" not in data:
        raise InvalidModelError("config file lacks a 'model' section")
    model = model_from_dict(data["model"], ctx=ctx)
    claim = None
    raw = data.get("claim")
    if raw is not None:
        try:
            if isinstance(raw, dict):
                payoff = {str(k): float(v) for k, v in raw.items()}
            else:
                constant = float(raw)
        except (TypeError, ValueError):
            raise InvalidModelError(
                f"claim must be a number or a mapping of numbers, got {raw!r}"
            ) from None
        claim = Claim(payoff=payoff) if isinstance(raw, dict) else Claim(constant)
    elif isinstance(model, FiniteTreeModel) and model.payoff is not None:
        claim = Claim(payoff=dict(model.payoff))
    wealth = _config_number(data, "wealth")
    if wealth is not None:
        _amount(wealth, "wealth")
    step = _config_number(data, "step")
    if step is not None and not step > 0:
        raise InvalidInputError(f"step must be positive, got {step}")
    return model, claim, wealth, step
