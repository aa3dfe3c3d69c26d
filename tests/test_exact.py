"""Forward error of the float tree solvers against exact rational arithmetic.

The corpus is the six seed-12345 trees of ``tests/data`` (on which the
Gram-matrix solvers failed the oracle's own 1e-9 numeraire check), seeded
two-period trees of the generic, riskless and duplicated shapes, and one
three-period two-asset tree whose levels mix 2, 3 and 4 branches.  Errors are
relative to max(|exact|, 1); holdings are compared where the exact minimizer
is unique.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import mixed_tree, random_claim, tree_dict
from exact import exact_dp
from mvhedge import models, oracle
from mvhedge.engine import hedging_error, tree_backward
from perfbench.workloads import random_tree

DATA = Path(__file__).parent / "data"

# The worst errors measured on this corpus are below a fifth of each bound.
HOLDINGS_TOL = 1e-10
VALUE_TOL = 1e-11


def _corpus():
    cases = [
        (path.stem, *models.load_config(path)[:3])
        for path in sorted(DATA.glob("seed12345_tree*.json"))
    ]
    rng = np.random.default_rng(20261018)
    for shape in ("generic", "riskless", "duplicated") * 2:
        nodes, root, _ = random_tree(rng, 2, int(rng.integers(3, 5)), shape)
        tree = models.model_from_dict(tree_dict(nodes, root))
        cases.append((shape, tree, random_claim(rng, tree), float(rng.uniform(-1, 1))))
    # two assets: with fewer branches than assets the float martingale step
    # leaves the exact data with an arbitrage, which no float solver sees
    tree = mixed_tree(rng, n_assets=2)
    cases.append(("mixed", tree, random_claim(rng, tree), 0.4))
    return cases


@pytest.fixture(scope="module")
def solved():
    return [
        (name, tree, claim, w, exact_dp(tree, claim, w))
        for name, tree, claim, w in _corpus()
    ]


def _rel(x, exact):
    return float(np.max(np.abs(x - exact) / np.maximum(np.abs(exact), 1.0), initial=0.0))


def _unique_holdings(ex, d):
    rows = [i for i, h in enumerate(ex.holdings) if h is not None]
    exact = [[float(x) for x in ex.holdings[i]] for i in rows]
    return rows, np.array(exact).reshape(len(rows), d)


def test_corpus_covers_unique_and_flat_minimizers(solved):
    shapes = {name: any(h is None for h in ex.holdings) for name, *_, ex in solved}
    assert not shapes["seed12345_tree256_riskless"]
    assert shapes["duplicated"] and not shapes["generic"] and not shapes["mixed"]


def test_dp_solve_forward_error(solved):
    for name, tree, claim, w, ex in solved:
        dp = oracle.dp_solve(tree, claim, w)
        for got, ref in ((dp.ell, "ell"), (dp.v, "v"), (dp.e, "e")):
            assert _rel(got, ex.floats(ref)) <= VALUE_TOL, (name, ref)
        assert _rel(dp.objective, float(ex.objective)) <= VALUE_TOL, name
        assert _rel(dp.wealth, ex.floats("wealth")) <= HOLDINGS_TOL, name
        rows, exact = _unique_holdings(ex, tree.d)
        assert _rel(dp.holdings[rows], exact) <= HOLDINGS_TOL, name


def test_tree_backward_forward_error(solved):
    for name, tree, claim, w, ex in solved:
        sol = tree_backward(tree, claim)
        for got, ref in ((sol.L, "ell"), (sol.V, "v"), (sol.eps2, "e")):
            assert _rel(got, ex.floats(ref)) <= VALUE_TOL, (name, ref)
        assert _rel(hedging_error(sol, w), float(ex.objective)) <= VALUE_TOL, name
        holdings, wealth = tree.roll_wealth(sol.feedback, w)
        assert _rel(wealth, ex.floats("wealth")) <= HOLDINGS_TOL, name
        rows, exact = _unique_holdings(ex, tree.d)
        assert _rel(holdings[rows], exact) <= HOLDINGS_TOL, name


def test_mixed_branch_counts_pad_each_level(solved):
    tree = next(t for name, t, *_ in solved if name == "mixed")
    counts = np.diff(np.searchsorted(tree.parent, np.arange(tree.n_internal + 1)))
    for here, _, _, _ in tree.levels[1:]:
        assert len(set(counts[here].tolist())) > 1
