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


def make_tree(rng, n_assets=2, periods=3, max_branch=4, constant_asset=False):
    """Random strictly positive event tree, arbitrage-free almost surely.

    Every non-terminal node gets at least n_assets + 1 children (capped at
    max_branch) so no deterministic portfolio can hit zero wealth exactly.
    """
    lo = min(n_assets + 1, max_branch)
    nodes = []
    counter = [0]

    def build(prices, t):
        nid = f"n{counter[0]}"
        counter[0] += 1
        if t == periods:
            nodes.append((nid, t, prices, []))
            return nid
        k = int(rng.integers(lo, max_branch + 1))
        probs = rng.dirichlet(np.full(k, 2.0))
        branches = []
        for i in range(k):
            gross = rng.uniform(0.7, 1.4, size=n_assets)
            if constant_asset:
                gross[0] = 1.0
            ch = build(prices * gross, t + 1)
            branches.append((float(probs[i]), ch))
        nodes.append((nid, t, prices, branches))
        return nid

    start = rng.uniform(0.5, 2.0, size=n_assets)
    if constant_asset:
        start[0] = 1.0
    root = build(start, 0)
    return models.FiniteTreeModel(nodes, root)


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
    points = []
    for j in range(d):
        points.append(mu + np.sqrt(d) * G[:, j])
        points.append(mu - np.sqrt(d) * G[:, j])
    nodes = []
    counter = [0]

    def build(prices, t):
        nid = f"m{counter[0]}"
        counter[0] += 1
        if t == periods:
            nodes.append((nid, t, prices, []))
            return nid
        branches = []
        for ret in points:
            ch = build(prices * (1.0 + ret), t + 1)
            branches.append((1.0 / (2 * d), ch))
        nodes.append((nid, t, prices, branches))
        return nid

    root = build(np.ones(d), 0)
    return models.FiniteTreeModel(nodes, root)


def complete_binomial_tree(up=1.25, down=0.8, prob_up=0.6, periods=2, spot=1.0):
    """Cash plus one stock, two branches per node: a complete market."""
    nodes = []
    counter = [0]

    def build(stock, t):
        nid = f"b{counter[0]}"
        counter[0] += 1
        if t == periods:
            nodes.append((nid, t, np.array([1.0, stock]), []))
            return nid
        hi = build(stock * up, t + 1)
        lo = build(stock * down, t + 1)
        nodes.append(
            (nid, t, np.array([1.0, stock]), [(prob_up, hi), (1 - prob_up, lo)])
        )
        return nid

    root = build(spot, 0)
    return models.FiniteTreeModel(nodes, root)


def mixed_tree(rng, n_assets=3, periods=3, counts=(2, 3, 4)):
    """Random arbitrage-free tree whose levels mix 2, 3 and 4 branches.

    The i-th node of level t has ``counts[(i + t) % len(counts)]`` branches,
    so the stacked tree passes pad short nodes.  Gross returns are divided by
    their mean under a second Dirichlet(2) measure, which makes it a
    martingale measure, so each node is free of arbitrage; a node with b
    branches then has returns of rank b - 1.
    """
    nodes = []
    seen = [0] * (periods + 1)

    def build(prices, t):
        nid = f"x{t}_{seen[t]}"
        k = counts[(seen[t] + t) % len(counts)]
        seen[t] += 1
        if t == periods:
            nodes.append((nid, t, prices, []))
            return nid
        probs = rng.dirichlet(np.full(k, 2.0))
        gross = rng.uniform(0.7, 1.4, size=(k, n_assets))
        gross /= rng.dirichlet(np.full(k, 2.0)) @ gross
        branches = [(float(p), build(prices * g, t + 1)) for p, g in zip(probs, gross)]
        nodes.append((nid, t, prices, branches))
        return nid

    root = build(rng.uniform(0.5, 2.0, size=n_assets), 0)
    return models.FiniteTreeModel(nodes, root)
