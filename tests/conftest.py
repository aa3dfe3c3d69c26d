import numpy as np
import pytest

from mvhedge import models


@pytest.fixture(scope="session")
def discrete_benchmark():
    """Three risky assets, four periods; the discrete-time reference inputs."""
    mu = np.array([0.162, 0.246, 0.228])
    sigma = np.array(
        [[146.0, 187.0, 145.0], [187.0, 854.0, 104.0], [145.0, 104.0, 289.0]]
    ) * 1e-4
    return models.IidDiscreteModel(mu, sigma, 4)


def ito_inputs():
    """Four assets, horizon five; drift and squared-volatility reference inputs."""
    b = np.array([0.2042, 0.5047, 0.1059, 0.0359])
    vech = [1.8385, 0.3389, -0.5712, 0.0, 5.8728, 0.8157, 0.1766, 1.0503, -0.1164, 0.4604]
    sig = np.zeros((4, 4))
    idx = 0
    for j in range(4):
        for i in range(j, 4):
            sig[i, j] = vech[idx]
            sig[j, i] = vech[idx]
            idx += 1
    return b, sig @ sig


@pytest.fixture(scope="session")
def ito_benchmark():
    b, c = ito_inputs()
    return models.PiiItoModel([(5.0, b, c)])


def _grown(start, periods, branch):
    """Event tree grown from the root prices ``start``, one level at a time.

    ``branch(t, m)`` gives the m nodes of level t their children at once:
    the branch counts (m,), then the branch probabilities and the gross
    returns (one row per child), children in node and branch order.
    """
    parent, prob, prices = [np.array([-1])], [np.ones(1)], [np.array([start], float)]
    first = 0  # the position of the level's first node
    for t in range(periods):
        m = len(prices[-1])
        counts, p, gross = branch(t, m)
        owner = np.repeat(np.arange(m), counts)
        parent.append(first + owner)
        prob.append(p)
        prices.append(prices[-1][owner] * gross)
        first += m
    return models.FiniteTreeModel(*map(np.concatenate, (parent, prob, prices)))


def _dirichlet(rng, counts):
    """One Dirichlet(2) draw per node with ``counts[i]`` entries, concatenated."""
    g = rng.standard_gamma(2.0, size=counts.sum())
    return g / np.repeat(np.add.reduceat(g, np.cumsum(counts) - counts), counts)


def make_tree(rng, n_assets=2, periods=3, max_branch=4, constant_asset=False):
    """Random strictly positive event tree, arbitrage-free almost surely.

    Every non-terminal node gets at least n_assets + 1 children (capped at
    max_branch) so no deterministic portfolio can hit zero wealth exactly.
    Branch probabilities are Dirichlet(2), gross returns uniform on
    [0.7, 1.4], and every level is drawn at once.
    """
    lo = min(n_assets + 1, max_branch)

    def branch(t, m):
        counts = rng.integers(lo, max_branch + 1, size=m)
        p = _dirichlet(rng, counts)
        gross = rng.uniform(0.7, 1.4, size=(counts.sum(), n_assets))
        if constant_asset:
            gross[:, 0] = 1.0
        return counts, p, gross

    start = rng.uniform(0.5, 2.0, size=n_assets)
    if constant_asset:
        start[0] = 1.0
    return _grown(start, periods, branch)


def node_records(tree):
    """The (id, time, prices, [(prob, child)]) records of ``tree``'s nodes."""
    branches = [[] for _ in tree.ids]
    for i in range(1, len(tree.ids)):
        branches[tree.parent[i]].append((float(tree.prob[i]), tree.ids[i]))
    return list(zip(tree.ids, tree.time.tolist(), tree.prices.tolist(), branches))


def tree_dict(records, root, payoff=None):
    """The config ``model`` mapping of tree records, as ``load_config`` reads it."""
    nodes = [
        {
            "id": nid,
            "time": time,
            "prices": np.asarray(prices).tolist(),
            "branches": [{"prob": p, "child": ch} for p, ch in branches],
        }
        for nid, time, prices, branches in records
    ]
    return {"kind": "tree", "root": root, "nodes": nodes, "payoff": payoff}


def with_duplicated_asset(tree):
    """``tree`` with its last asset repeated, so every node has a flat direction."""
    prices = np.column_stack([tree.prices, tree.prices[:, -1]])
    return models.FiniteTreeModel(tree.parent, tree.prob, prices, tree.ids)


def first_branches_off(tree, eps):
    """``tree`` with every node's first branch ``eps`` too likely; the
    constructor renormalizes each node's probabilities, with a warning."""
    prob = tree.prob.copy()
    prob[np.searchsorted(tree.parent, np.arange(tree.n_internal))] += eps
    return models.FiniteTreeModel(tree.parent, prob, tree.prices, tree.ids)


def random_claim(rng, tree):
    return models.Claim(
        payoff={t: float(rng.normal(0.5, 1.0)) for t in tree.terminal_ids}
    )


def moment_matched_tree(mu, sigma, periods):
    """IID event tree whose one-period returns match (mu, sigma) exactly.

    Uses the symmetric 2d-point construction mu +/- sqrt(d) * (Cholesky
    column), each branch with probability 1/(2d).
    """
    mu = np.asarray(mu, dtype=float)
    d = mu.shape[0]
    G = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    points = np.empty((2 * d, d))
    points[0::2], points[1::2] = mu + np.sqrt(d) * G.T, mu - np.sqrt(d) * G.T

    def branch(t, m):
        counts = np.full(m, 2 * d)
        return counts, np.full(2 * d * m, 1.0 / (2 * d)), np.tile(1.0 + points, (m, 1))

    return _grown(np.ones(d), periods, branch)


def complete_binomial_tree(up=1.25, down=0.8, prob_up=0.6, periods=2, spot=1.0):
    """Cash plus one stock, two branches per node, up first: a complete market."""

    def branch(t, m):
        gross = np.tile([[1.0, up], [1.0, down]], (m, 1))
        return np.full(m, 2), np.tile([prob_up, 1 - prob_up], m), gross

    return _grown([1.0, spot], periods, branch)


def mixed_tree(rng, n_assets=3, periods=3, counts=(2, 3, 4)):
    """Random arbitrage-free tree whose levels mix 2, 3 and 4 branches.

    The i-th node of level t has ``counts[(i + t) % len(counts)]`` branches,
    so the stacked tree passes pad short nodes.  Gross returns are divided by
    their mean under a second Dirichlet(2) measure, which makes it a
    martingale measure, so each node is free of arbitrage; a node with b
    branches then has returns of rank b - 1.
    """

    def branch(t, m):
        k = np.take(counts, np.arange(t, t + m), mode="wrap")
        p = _dirichlet(rng, k)
        gross = rng.uniform(0.7, 1.4, size=(k.sum(), n_assets))
        mean = np.add.reduceat(_dirichlet(rng, k)[:, None] * gross, np.cumsum(k) - k)
        return k, p, gross / np.repeat(mean, k, axis=0)

    return _grown(rng.uniform(0.5, 2.0, size=n_assets), periods, branch)
