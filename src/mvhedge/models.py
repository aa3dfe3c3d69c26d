"""Market model classes: discrete IID, piecewise-constant Ito, finite event tree.

The IID and piecewise-constant models expose local characteristics (b, c) of
per-asset simple returns in the dollar-amount parametrization: b is the
conditional mean return rate and c the conditional second-moment rate.  Trees
expose no (b, c); they hold each edge's simple returns and branch probability,
from which the tree passes form every node's one-step problem in square-root
form.  Models are immutable after construction and validated eagerly.
"""

import copy
import json
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .linalg import InvalidInputError, symmetric_psd

__all__ = [
    "InvalidModelError",
    "InvalidNumeraireError",
    "IidDiscreteModel",
    "PiiSegment",
    "PiiItoModel",
    "FiniteTreeModel",
    "Claim",
    "discount_tree",
    "model_from_dict",
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

    def __init__(self, mu, sigma, n_periods):
        self.mu = np.asarray(mu, dtype=float).ravel()
        if not np.all(np.isfinite(self.mu)):
            raise InvalidModelError("mu contains non-finite entries")
        self.sigma, _ = symmetric_psd(sigma, "sigma", InvalidModelError)
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

    def __init__(self, segments):
        if not segments:
            raise InvalidModelError("at least one segment is required")
        cleaned = []
        d = None
        for i, (duration, b, c) in enumerate(segments):
            duration = float(duration)
            if not duration > 0:
                raise InvalidModelError(f"segment {i} has non-positive duration")
            b = np.asarray(b, dtype=float).ravel()
            if not np.all(np.isfinite(b)):
                raise InvalidModelError(f"segment {i} drift has non-finite entries")
            c, _ = symmetric_psd(
                c, f"segment {i} second characteristic", InvalidModelError
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


def _rowdot(x, y):
    """Row-wise x_i . y_i by stacked matmul, rounding exactly like ``x_i @ y_i``.

    Rows run over every leading axis: x and y are (..., d).
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _quad(x, M, y):
    """Row-wise x_i M_i y_i, rounding exactly like ``x_i @ M_i @ y_i``.

    Rows run over every leading axis: x and y are (..., d), M is (..., d, d).
    """
    return (x[..., None, :] @ M @ y[..., :, None])[..., 0, 0]


def _by_node(owner, slots, rows):
    """Per-child ``rows`` (c, ...) of a level as (m, width, ...): node k's
    children in branch order, then zero rows up to the widest node.
    ``slots`` is the level's (branch positions, width) from the layout."""
    pos, width = slots
    out = np.zeros((owner[-1] + 1, width) + rows.shape[1:])
    out[owner, pos] = rows
    return out


def _terminal_values(tree, claim):
    """The :class:`Claim`'s value at every terminal node of ``tree``, in node
    order, resolved in one pass; a payoff map must cover every terminal node."""
    n = len(tree.terminal_ids)
    if claim.payoff is None:
        return np.full(n, float(claim.constant))
    try:
        return np.fromiter(map(claim.payoff.__getitem__, tree.terminal_ids), float, n)
    except KeyError as err:
        raise InvalidModelError(
            f"claim payoff undefined at terminal node {err.args[0]!r}"
        ) from None


def _first_member(count, *masks):
    """The first k < ``count`` for which some mask of ``masks``, each with
    ``count`` rows, has a true entry in row k; else ``count``."""
    hits = [mask.reshape(count, -1).any(axis=1) for mask in masks if mask.any()]
    return int(np.argmax(np.logical_or.reduce(hits))) if hits else count


def _check_values(tree, prob, prices, rets):
    """The value step on K members of ``tree``'s layout at once.

    Checks (K, n) branch probabilities ``prob`` and (K, n, d) ``prices``,
    renormalizes ``prob`` in place and writes the edge returns into ``rets``
    (K, n, d); each may be a strided view.  Member k passes exactly when it
    would pass alone.  Otherwise the first failing member raises the error it
    would raise alone, naming its first offending node, after the
    renormalization warnings of the members before it and, when its failure
    comes after them, its own; branch sums are each level's ``sums``.  A
    probability sum or edge return that overflows raises its check's error,
    not a floating-point warning.
    """
    ids, parent = tree.ids, tree.parent
    prob[:, 0] = 1.0  # the root has no incoming branch
    bad_prices = ~(np.isfinite(prices) & (prices != 0.0))
    bad_prob = ~(prob > 0.0)
    # returns of checked prices only; an overflow fails the sum or MAX_AMOUNT check
    with np.errstate(over="ignore"):
        sums = np.empty((len(prob), tree.n_internal))
        for here, kids, add, _ in tree.levels:
            sums[:, here] = add(prob[:, kids], axis=-1)
        gap = np.abs(sums - 1.0)
        bad_sums = ~(gap <= _PROB_SUM_TOL)
        ok = _first_member(len(prob), bad_prices, bad_prob, bad_sums)
        np.divide(prices[:ok, 1:], prices[:ok, parent[1:]], out=rets[:ok, 1:])
    rets[:ok, 1:] -= 1.0
    rets[:ok, 0] = 0.0
    bad_rets = ~(np.abs(rets[:ok]) <= MAX_AMOUNT)
    no_positive = ~(prices[:ok] > 0.0).all(axis=1).any(axis=1)
    fail = _first_member(ok, bad_rets, no_positive)
    off = gap > _PROB_SUM_EXACT
    warned = off[: fail + (fail < ok)]  # the members that reach renormalization
    if warned.any():
        for k, i in np.argwhere(warned):
            warnings.warn(
                f"renormalizing branch probabilities at node {ids[i]!r} "
                f"(sum off by {gap[k, i]:.2e})"
            )
        prob[:, 1:] = prob[:, 1:] / np.where(off, sums, 1.0)[:, parent[1:]]
    if fail < ok:
        if bad_rets[fail].any():
            i = int(np.argmax(bad_rets[fail].any(axis=1)))
            raise InvalidInputError(
                f"every edge return must be at most {MAX_AMOUNT:g} in magnitude, "
                f"got {float(np.abs(rets[fail, i]).max())!r} on the edge into "
                f"node {ids[i]!r}"
            )
        raise InvalidModelError(
            "no strictly positive asset exists; the tree admits no "
            "self-financing numeraire candidate"
        )
    if fail < len(prob):
        if bad_prices[fail].any():
            i = int(np.argmax(bad_prices[fail].any(axis=1)))
            if not np.isfinite(prices[fail, i]).all():
                raise InvalidModelError(f"node {ids[i]!r} has non-finite prices")
            raise InvalidModelError(
                f"node {ids[i]!r} has a zero price; returns are undefined"
            )
        if bad_prob[fail].any():
            nid = ids[parent[int(np.argmax(bad_prob[fail]))]]
            raise InvalidModelError(
                f"node {nid!r} has a non-positive branch probability"
            )
        i = int(np.argmax(bad_sums[fail]))
        raise InvalidModelError(
            f"branch probabilities at node {ids[i]!r} sum to {sums[fail, i]}"
        )


class FiniteTreeModel:
    """Finite-state event tree with per-node prices and branch probabilities.

    The tree is a set of arrays in breadth-first node order: the root is
    position 0, each level follows the one above it, each node's children
    sit next to each other in branch order, and the first ``n_internal``
    positions are the non-terminal nodes.  ``ids[i]`` is the id at position
    ``i`` and ``nodes``, a read-only mapping, takes ids back to positions;
    ``parent``, ``prob`` (the branch probability into the node; 1 at the
    root), ``time`` (the level, root 0, unless a config gives other times),
    ``prices`` and ``rets`` (the simple returns over the edge from the
    parent; zero at the root) are arrays in node order.  ``levels`` holds
    one ``(here, kids, sums, owner)`` tuple per non-terminal level, root
    first: the position slices of the level and of its children, ``sums(x)``
    adding per-child rows ``x`` over each node's children
    (``np.add.reduceat``), and each child's parent relative to
    ``here.start``; ``slots`` holds per level each child's branch position
    and the largest branch count.  Every tree pass, the value step's branch
    sums included, runs level by level over these.

    The constructor takes the arrays ``parent`` (n,) of integers, ``prob``
    (n,) and ``prices`` (n, d), and ``ids``, by default "n0", "n1", ...  It
    checks the layout with array operations: one entry per node, the root's
    parent is -1, every other parent comes before its child and no parent
    comes before the one of the node before (breadth first), ids are unique
    and every terminal node is on the last level.  Then the value step
    checks that prices are finite and non-zero, branch probabilities at a
    node are positive and sum to one (sums within 1e-12 are renormalized
    with a warning), no edge return exceeds ``MAX_AMOUNT`` in magnitude and
    at least one asset is strictly positive on every node (a numeraire
    candidate); a failure names the first offending node.  A config's node
    mappings are laid out into these arrays by :func:`model_from_dict`.  The
    tree holds no claim.  :func:`discount_tree` copies the tree and runs
    only the value step.
    """

    def __init__(self, parent, prob, prices, ids=None):
        parent = np.array(parent)
        if parent.ndim != 1 or not np.issubdtype(parent.dtype, np.integer):
            raise InvalidModelError("parent must be a one-dimensional integer array")
        n = len(parent)
        ids = tuple(map("n{}".format, range(n))) if ids is None else tuple(ids)
        prob, prices = np.array(prob, dtype=float), np.array(prices, dtype=float)
        if prob.shape != (n,) or prices.ndim != 2 or len(prices) != n or len(ids) != n:
            raise InvalidModelError(
                f"parent, prob, prices and ids need one entry per node, got {n}, "
                f"{len(prob)}, {len(prices)} and {len(ids)}"
            )
        if not n or parent[0] != -1:
            raise InvalidModelError("position 0 must be the root, with parent -1")
        bad = (parent[1:] < 0) | (parent[1:] >= np.arange(1, n)) | (np.diff(parent) < 0)
        if bad.any():
            i = int(np.argmax(bad)) + 1
            raise InvalidModelError(
                f"parent is not a breadth-first layout: node {ids[i]!r} at position "
                f"{i} has parent {parent[i]}"
            )
        first = np.searchsorted(parent, np.arange(n + 1))  # of each node's children
        lb = [0]  # where each level starts; the next starts at its first child
        while lb[-1] < n:
            lb.append(int(first[lb[-1]]))
        self.n_internal = lb[-2]
        if (first[1 : self.n_internal + 1] == first[: self.n_internal]).any():
            raise InvalidModelError("terminal nodes must share a common time")
        self.nodes = MappingProxyType(_positions(ids))
        self.root, self.ids, self.terminal_ids = ids[0], ids, ids[self.n_internal :]
        self.parent = parent
        self.time = np.repeat(np.arange(len(lb) - 1), np.diff(lb))
        self.levels = tuple(
            (slice(a, b), slice(b, c), partial(np.add.reduceat, indices=first[a:b] - b),
             parent[b:c] - a)
            for a, b, c in zip(lb, lb[1:], lb[2:])
        )
        pos = np.arange(n) - first[parent]  # the root's is unused
        self.slots = tuple((pos[k], pos[k].max() + 1) for _, k, _, _ in self.levels)
        rets = np.empty_like(prices)  # the value step, on a stack of one
        _check_values(self, prob[None], prices[None], rets[None])
        self.prob, self.prices, self.rets = prob, prices, rets

    @property
    def horizon(self):
        return int(self.time[-1])

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

        ``holdings(here, wealth)`` gives the dollar portfolios held at the
        slice ``here`` of one non-terminal level from their wealth.  Returns
        the holdings of every non-terminal node and the wealth of every node,
        in node order.
        """
        return self._roll(self.rets, holdings, v)

    def _roll(self, rets, holdings, v):
        """:meth:`roll_wealth` over the edge returns ``rets`` on this layout.

        ``rets`` is (n, ..., d), node-major with any trailing batch axes, and
        ``v`` has the batch shape: every batch member rolls its own wealth
        from its own root value, with holdings (internal, ..., d) and wealth
        (n, ...).
        """
        v = np.asarray(v, dtype=float)
        wealth = np.empty((len(self.ids),) + v.shape)
        wealth[0] = v
        pis = np.empty((self.n_internal,) + rets.shape[1:])
        for here, kids, _, owner in self.levels:
            pi = pis[here] = holdings(here, wealth[here])
            wealth[kids] = wealth[here][owner] + _rowdot(pi[owner], rets[kids])
        return pis, wealth

    def positive_assets(self):
        """Indices of assets with strictly positive prices on every node."""
        return np.flatnonzero((self.prices > 0).all(axis=0)).tolist()


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
        values = [self.constant] if self.payoff is None else self.payoff.values()
        _amount(np.fromiter(values, float, len(values)), "a claim value")

    @staticmethod
    def constant_one():
        return Claim(constant=1.0)


def discount_tree(tree, numeraire_index):
    """Re-express a tree in units of one of its assets, reweighting probabilities.

    Prices are divided pathwise by the numeraire asset's price, so that asset
    becomes identically 1.  Branch probabilities are reweighted by the ratio of
    conditional terminal second moments of the numeraire,
    ``p_hat = p * E[X_T^2 | child] / E[X_T^2 | node]``, which realizes the
    change of measure with density X_T^2 / E[X_T^2].  A claim is divided by
    X_T where it is read (:func:`mvhedge.oracle.numeraire_change_check`).

    This is the one-asset case of :func:`_discount`, which the numeraire
    check runs on every asset at once.  The discounted tree is ``tree``
    copied, sharing its layout, with new ``prob``, ``prices`` and ``rets``:
    only the value step of :class:`FiniteTreeModel` runs on them, so every
    value check still applies (a discounted edge return can exceed
    ``MAX_AMOUNT`` where no undiscounted one does).

    Returns the discounted tree and E[X_T^2 | node] for every node, in node
    order.
    """
    (j,) = _numeraires(tree, [numeraire_index])
    prob, rets = np.empty((1, len(tree.ids))), np.empty((1,) + tree.prices.shape)
    (prices,), (weights,) = _discount(tree, [j], prob, rets)
    disc = copy.copy(tree)
    disc.prob, disc.prices, disc.rets = prob[0], prices, rets[0]
    return disc, weights


def _numeraires(tree, assets):
    """``assets`` as ints, each an asset index of ``tree`` with strictly
    positive prices on every node; else InvalidNumeraireError for the first
    that is not."""
    assets, positive = [int(j) for j in assets], tree.positive_assets()
    for j in assets:
        if not 0 <= j < tree.d:
            raise InvalidNumeraireError(f"numeraire index {j} out of range")
        if j not in positive:
            raise InvalidNumeraireError(
                f"numeraire asset {j} is not strictly positive on every node"
            )
    return assets


def _discount(tree, assets, prob, rets):
    """Discount ``tree`` by every numeraire of ``assets`` at once.

    Member k divides prices by asset ``assets[k]`` and reweights the branch
    probabilities as :func:`discount_tree` does; E[X_T^2 | node] comes from
    one backward recursion over a (K, n) array.  Member k's probabilities
    and edge returns are written into ``prob[k]`` (K, n) and ``rets[k]``
    (K, n, d), which may be views of the caller's arrays, after one
    :func:`_check_values` over the stack.  No value warns as it is formed:
    each is checked, and a moment out of the positive float range or a
    reweighted branch probability that underflows to 0 raises
    InvalidNumeraireError for the first failing asset and its node.  Returns
    the discounted prices (K, n, d), a view of a node-major array, and the
    moments (K, n).
    """
    numeraire = tree.prices[:, assets].T
    with np.errstate(all="ignore"):
        weights = numeraire**2
        for here, kids, sums, _ in reversed(tree.levels):
            weights[:, here] = sums(tree.prob[kids] * weights[:, kids], axis=-1)
        np.divide(tree.prob * weights, weights[:, tree.parent], out=prob)
        # node-major, like the DP's inputs, so the returns are formed row by row
        prices = (tree.prices[:, None] / numeraire.T[..., None]).transpose(1, 0, 2)
    bad = ~(np.isfinite(weights) & (weights > 0.0))
    lost = ~(prob[:, 1:] > 0.0)  # p E[X_T^2 | child] / E[X_T^2 | node] underflowed
    k = _first_member(len(prob), bad, lost)
    if k < len(prob):
        if bad[k].any():
            i = int(np.argmax(bad[k]))
            raise InvalidNumeraireError(
                f"numeraire asset {assets[k]} has E[X_T^2 | node {tree.ids[i]!r}] "
                f"= {float(weights[k, i])!r}, outside the positive float range"
            )
        i = 1 + int(np.argmax(lost[k]))
        raise InvalidNumeraireError(
            f"numeraire asset {assets[k]} reweights the branch probability of node "
            f"{tree.ids[i]!r} to {float(prob[k, i])!r}, outside the positive float "
            "range"
        )
    _check_values(tree, prob, prices, rets)
    return prices, weights


def _typed(value, kind, what):
    """``value`` when it has the JSON type ``kind`` (dict or list)."""
    if not isinstance(value, kind):
        name = "a mapping" if kind is dict else "a list"
        raise InvalidModelError(f"{what} must be {name}")
    return value


def _all_typed(values, kind, what):
    """``values`` when each has the JSON type ``kind``; else :func:`_typed`'s error."""
    if not all(map(isinstance, values, repeat(kind))):
        for value in values:
            _typed(value, kind, what)
    return values


def _number(value, what):
    """``float(value)``, but not of true or false; else InvalidModelError."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidModelError(f"{what} must be a number, got {value!r}") from None


def _numbers(mapping, what):
    """``mapping`` with float values, converted in one pass; else
    :func:`_number`'s error for the first entry, as ``what at 'key'``."""
    try:
        if bool not in set(map(type, mapping.values())):
            return dict(zip(mapping, map(float, mapping.values())))
    except (TypeError, ValueError, OverflowError):
        pass
    for k, v in mapping.items():
        _number(v, f"{what} at {k!r}")


def _integer(value, what):
    """``int(value)`` when it equals ``value``: an integer or an integral float
    such as 4.0 or 1e300, not 4.7, "4" or true; else InvalidModelError."""
    try:
        if int(value) == value and not isinstance(value, bool):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidModelError(f"{what} must be an integer, got {value!r}")


def _array(value, what):
    """Float array of ``value``; failure is InvalidModelError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidModelError(
            f"{what} must be a rectangular array of numbers, got {value!r}"
        ) from None


def _positions(ids):
    """The mapping id -> position of ``ids``; InvalidModelError naming the
    first id met a second time when they are not unique."""
    n = len(ids)
    positions = dict(zip(ids, range(n)))
    if len(positions) < n:
        first = dict(zip(reversed(ids), range(n - 1, -1, -1)))
        nid = next(nid for i, nid in enumerate(ids) if first[nid] < i)
        raise InvalidModelError(f"duplicate node id {nid!r}")
    return positions


def _lay_out(ids, time, prices, counts, children, prob, root):
    """The structure step of a config tree: check its node columns and lay
    them out breadth first, one level at a time.

    ``ids``, ``time``, the price rows (each is raveled) and ``counts``,
    each node's branch count, run over the nodes in input order;
    ``children`` and ``prob`` run over all branches, grouped by node in
    input order and by branch within a node.  Each rule is one array check:
    ids are unique, every child exists and is reached once, every node is
    reachable from the root and has the root's asset count, and child times
    increase by one.  Returns :class:`FiniteTreeModel`'s ``parent``,
    ``prob``, ``prices`` and ``ids``, and the root's time.
    """
    ids = [str(nid) for nid in ids]
    root, n = str(root), len(ids)
    try:
        ints = [int(t) for t in time]
        if ints != time or bool in set(map(type, time)):  # 2.9, "2" or true
            raise ValueError
        time = np.array(ints, dtype=np.int64)
        if bool in set(map(type, prob)):
            raise ValueError
        prob = np.array([float(p) for p in prob])
    except (TypeError, ValueError, OverflowError):  # name the first bad value
        for nid, t in zip(ids, time):
            _integer(t, f"time of node {nid!r}")
        for p in prob:
            _number(p, "branch prob")
        raise InvalidModelError("node times must fit in 64-bit integers") from None
    index = _positions(ids)
    if root not in index:
        raise InvalidModelError(f"root node {root!r} not present")
    try:
        rows = np.array(prices, dtype=float).reshape(n, -1)
    except (TypeError, ValueError):  # ragged or nested rows: ravel one by one
        rows = [
            _array(p, f"prices of node {nid!r}").ravel()
            for nid, p in zip(ids, prices)
        ]
        d = len(rows[index[root]])
        for nid, row in zip(ids, rows):
            if len(row) != d:
                raise InvalidModelError(
                    f"inconsistent asset count across nodes: node {nid!r} has "
                    f"{len(row)}, the root {d}"
                )
        rows = np.array(rows)
    children = [str(ch) for ch in children]
    try:
        kid = np.fromiter(map(index.__getitem__, children), int, len(children))
    except KeyError as err:
        raise InvalidModelError(f"unknown child node {err.args[0]!r}") from None
    incoming = np.bincount(kid, minlength=n)
    incoming[index[root]] += 1  # nothing may lead back to the root
    bad = incoming[kid] > 1
    if bad.any():
        child = children[int(np.argmax(bad))]
        raise InvalidModelError(f"node {child!r} reached twice; not a tree")
    # A level is the branches of the level above, in layout and branch
    # order; no node is reached twice, so each is laid out at most once.
    counts = np.array(counts, dtype=np.int64)
    offset = np.cumsum(counts) - counts  # of each node's first branch
    level = np.array([index[root]])
    order, edges = [level], [np.zeros(0, dtype=np.int64)]
    while (c := counts[level]).any():
        ends = np.cumsum(c)
        edges.append(np.repeat(offset[level] - ends + c, c) + np.arange(ends[-1]))
        level = kid[edges[-1]]
        order.append(level)
    order = np.concatenate(order)
    time = time[order]
    parent = np.concatenate(([-1], np.repeat(np.arange(len(order)), counts[order])))
    laid_out = tuple(map(ids.__getitem__, order.tolist()))
    bad = time[1:] != time[parent[1:]] + 1
    if bad.any():
        i = int(np.argmax(bad)) + 1
        raise InvalidModelError(
            f"child {laid_out[i]!r} time must be {time[parent[i]] + 1}"
        )
    if len(order) < n:
        unreachable = sorted(set(ids) - set(laid_out))
        raise InvalidModelError(f"unreachable nodes: {unreachable[:5]}")
    prob = np.concatenate(([1.0], prob[np.concatenate(edges)]))
    return parent, prob, rows[order], laid_out, int(time[0])


def model_from_dict(data):
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
                _integer(data["T"], "T"),
            )
        if kind == "pii":
            segments = [
                (
                    _number(s["duration"], "segment duration"),
                    _array(s["b"], "segment b"),
                    _array(s["c"], "segment c"),
                )
                for s in (
                    _typed(s, dict, "each segment")
                    for s in _typed(data["segments"], list, "'segments'")
                )
            ]
            return PiiItoModel(segments)
        if kind == "tree":
            # Columns straight from the node mappings: no per-node records.
            nodes = _all_typed(
                _typed(data["nodes"], list, "'nodes'"), dict, "each tree node"
            )
            ids = [n["id"] for n in nodes]
            branches = [n.get("branches", []) for n in nodes]
            if not all(map(isinstance, branches, repeat(list))):
                for nid, b in zip(ids, branches):
                    _typed(b, list, f"branches of node {nid!r}")
            flat = _all_typed([br for b in branches for br in b], dict, "each branch")
            *arrays, start = _lay_out(
                ids,
                [n["time"] for n in nodes],
                [n["prices"] for n in nodes],
                [len(b) for b in branches],
                [br["child"] for br in flat],
                [br["prob"] for br in flat],
                data["root"],
            )
            tree = FiniteTreeModel(*arrays)
            tree.time += start  # the config's times, kept for hedge --out
            return tree
    except KeyError as err:
        raise InvalidModelError(f"{kind} model config lacks the key {err}") from None
    raise InvalidModelError(f"unknown model kind {kind!r}")


def _amount(x, what):
    """``x``, a number or an array, when every magnitude is at most
    ``MAX_AMOUNT``; else InvalidInputError naming the first that is not."""
    bad = ~(np.abs(x) <= MAX_AMOUNT)
    if np.any(bad):
        raise InvalidInputError(
            f"{what} must be at most {MAX_AMOUNT:g} in magnitude, "
            f"got {float(np.ravel(x)[np.argmax(bad)])!r}"
        )
    return x


def _config_number(data, key):
    """Finite float under ``key``, or None when the key is absent or null."""
    raw = data.get(key)
    x = None if raw is None else _number(raw, key)
    if x is not None and not np.isfinite(x):
        raise InvalidInputError(f"{key} must be finite")
    return x


def load_config(path):
    """Load a config file: {"model": {...}, "claim": ..., "wealth": ..., "step": ...}.

    Returns (model, claim_or_None, wealth_or_None, step_or_None).  ``claim``
    may be a number (constant payoff) or a map; a tree model's own ``payoff``
    map, always parsed, is the claim when ``claim`` is omitted.  A map's
    terminal nodes are checked where a command reads it (:func:`_terminal_values`).
    ``step`` is the Euler step of the simulator and must be positive.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "model" not in data:
        raise InvalidModelError("config file lacks a 'model' section")
    model = model_from_dict(data["model"])
    payoff = data["model"].get("payoff") if isinstance(model, FiniteTreeModel) else None
    if payoff is not None:
        payoff = _numbers(_typed(payoff, dict, "'payoff'"), "payoff")
    constant, raw = None, data.get("claim")
    if isinstance(raw, dict):  # the top-level claim takes precedence
        payoff = _numbers(raw, "claim")
    elif raw is not None:
        try:
            if isinstance(raw, bool):
                raise TypeError
            constant, payoff = float(raw), None
        except (TypeError, ValueError, OverflowError):
            raise InvalidModelError(
                f"claim must be a number or a mapping of numbers, got {raw!r}"
            ) from None
    claim = None if constant is None and payoff is None else Claim(constant, payoff)
    wealth = _config_number(data, "wealth")
    if wealth is not None:
        _amount(wealth, "wealth")
    step = _config_number(data, "step")
    if step is not None and not step > 0:
        raise InvalidInputError(f"step must be positive, got {step}")
    return model, claim, wealth, step
