import json

import numpy as np
import pytest

from conftest import complete_binomial_tree, make_tree
from mvhedge.models import (
    Claim,
    FiniteTreeModel,
    IidDiscreteModel,
    InvalidModelError,
    InvalidNumeraireError,
    PiiItoModel,
    check_local_na,
    discount_tree,
    load_config,
    model_from_dict,
    model_to_dict,
)


class TestIidModel:
    def test_benchmark_characteristics(self, discrete_benchmark):
        b, c = discrete_benchmark.log_characteristics(0)
        assert np.allclose(b, [0.162, 0.246, 0.228])
        expected = np.array(
            [
                [4.0844, 5.8552, 5.1436],
                [5.8552, 14.5916, 6.6488],
                [5.1436, 6.6488, 8.0884],
            ]
        ) * 1e-2
        assert np.abs(c - expected).max() < 1e-15

    def test_characteristics_constant_over_periods(self, discrete_benchmark):
        b0, c0 = discrete_benchmark.log_characteristics(0)
        b3, c3 = discrete_benchmark.log_characteristics(3)
        assert np.array_equal(b0, b3)
        assert np.array_equal(c0, c3)

    def test_period_out_of_range(self, discrete_benchmark):
        with pytest.raises(InvalidModelError):
            discrete_benchmark.log_characteristics(4)

    def test_non_psd_sigma_rejected(self):
        with pytest.raises(InvalidModelError):
            IidDiscreteModel([0.1], [[-1.0]], 2)


class TestPiiModel:
    def test_benchmark_characteristics(self, ito_benchmark):
        b0, c0 = ito_benchmark.log_characteristics(0.0)
        b5, c5 = ito_benchmark.log_characteristics(5.0)
        assert np.array_equal(b0, b5)
        assert np.array_equal(c0, c5)
        assert np.allclose(b0, [0.2042, 0.5047, 0.1059, 0.0359])

    def test_segment_lookup(self):
        model = PiiItoModel(
            [
                (1.0, [0.1], [[0.2]]),
                (2.0, [0.3], [[0.4]]),
            ]
        )
        assert model.horizon == 3.0
        assert model.segment_index(0.5) == 0
        assert model.segment_index(1.5) == 1
        assert model.segment_index(3.0) == 1
        b, c = model.log_characteristics(2.0)
        assert b[0] == 0.3 and c[0, 0] == 0.4

    def test_bad_duration_rejected(self):
        with pytest.raises(InvalidModelError):
            PiiItoModel([(0.0, [0.1], [[0.1]])])


class TestTreeModel:
    def test_two_point_single_asset(self):
        u = 0.3
        tree = FiniteTreeModel(
            [
                ("r", 0, [1.0], [(0.5, "up"), (0.5, "dn")]),
                ("up", 1, [1.0 + u], []),
                ("dn", 1, [1.0 - u], []),
            ],
            "r",
        )
        b, c = tree.log_characteristics("r")
        assert abs(b[0]) < 1e-15
        assert abs(c[0, 0] - u**2) < 1e-15

    def test_conditional_covariance_psd(self):
        rng = np.random.default_rng(11)
        tree = make_tree(rng, n_assets=3, periods=2)
        for nid, node in tree.nodes.items():
            if not node.branches:
                continue
            b, c = tree.log_characteristics(nid)
            assert np.linalg.eigvalsh(c - np.outer(b, b)).min() > -1e-12

    def test_probabilities_renormalized_with_warning(self):
        eps = 5e-13
        with pytest.warns(UserWarning, match="renormalizing"):
            tree = FiniteTreeModel(
                [
                    ("r", 0, [1.0], [(0.5 + eps, "a"), (0.5, "b")]),
                    ("a", 1, [1.2], []),
                    ("b", 1, [0.9], []),
                ],
                "r",
            )
        probs = [p for p, _ in tree.nodes["r"].branches]
        assert abs(sum(probs) - 1.0) < 1e-15

    def test_bad_probability_sum_rejected(self):
        with pytest.raises(InvalidModelError):
            FiniteTreeModel(
                [
                    ("r", 0, [1.0], [(0.3, "a"), (0.3, "b")]),
                    ("a", 1, [1.2], []),
                    ("b", 1, [0.9], []),
                ],
                "r",
            )

    def test_no_positive_asset_rejected(self):
        with pytest.raises(InvalidModelError):
            FiniteTreeModel(
                [
                    ("r", 0, [-1.0], [(1.0, "a")]),
                    ("a", 1, [1.0], []),
                ],
                "r",
            )

    def test_mismatched_terminal_times_rejected(self):
        with pytest.raises(InvalidModelError):
            FiniteTreeModel(
                [
                    ("r", 0, [1.0], [(0.5, "a"), (0.5, "b")]),
                    ("a", 1, [1.2], [(1.0, "c")]),
                    ("b", 1, [0.9], []),
                    ("c", 2, [1.3], []),
                ],
                "r",
            )

    def test_claim_requires_all_terminals(self):
        tree = complete_binomial_tree(periods=1)
        claim = Claim(payoff={tree.terminal_ids[0]: 1.0})
        with pytest.raises(InvalidModelError):
            claim.value_at(tree.terminal_ids[1])

    def test_claim_spec_exclusivity(self):
        with pytest.raises(InvalidModelError):
            Claim(constant=1.0, payoff={"a": 1.0})
        with pytest.raises(InvalidModelError):
            Claim()


class TestLocalNoArbitrage:
    def test_full_rank_always_passes(self):
        assert check_local_na(np.array([5.0, -3.0]), np.eye(2))

    def test_riskless_drift_absorbed(self):
        d = 3
        assert check_local_na(0.07 * np.ones(d), np.zeros((d, d)))

    def test_unspanned_drift_fails(self):
        assert not check_local_na(np.array([0.1, 0.2]), np.zeros((2, 2)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidModelError):
            check_local_na(np.zeros(2), np.eye(2), mode="weekly")


class TestDiscountTree:
    def test_constant_numeraire_is_identity(self):
        tree = complete_binomial_tree(periods=2)
        disc, weights = discount_tree(tree, 0)
        for nid, node in tree.nodes.items():
            assert np.allclose(disc.nodes[nid].prices, node.prices)
            assert weights[nid] == 1.0
            for (p, ch), (pd, chd) in zip(node.branches, disc.nodes[nid].branches):
                assert ch == chd and abs(p - pd) < 1e-15

    def test_numeraire_column_becomes_one(self):
        rng = np.random.default_rng(4)
        tree = make_tree(rng, n_assets=2, periods=2)
        disc, _ = discount_tree(tree, 1)
        for node in disc.nodes.values():
            assert abs(node.prices[1] - 1.0) < 1e-14

    def test_reweighted_probabilities_normalized(self):
        rng = np.random.default_rng(5)
        tree = make_tree(rng, n_assets=2, periods=3)
        disc, _ = discount_tree(tree, 0)
        total = sum(disc.node_probabilities()[t] for t in disc.terminal_ids)
        assert abs(total - 1.0) < 1e-12

    def test_second_moment_identity_for_claims(self):
        # E[H^2] = E[X_T^2] * E_disc[(H/X_T)^2] by direct enumeration.
        rng = np.random.default_rng(6)
        tree = make_tree(rng, n_assets=2, periods=2)
        payoff = {t: float(rng.normal()) for t in tree.terminal_ids}
        disc, weights = discount_tree(tree, 0)
        probs = tree.node_probabilities()
        disc_probs = disc.node_probabilities()
        lhs = sum(probs[t] * payoff[t] ** 2 for t in tree.terminal_ids)
        rhs = weights[tree.root] * sum(
            disc_probs[t] * (payoff[t] / tree.nodes[t].prices[0]) ** 2
            for t in tree.terminal_ids
        )
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_double_discounting_is_stable(self):
        rng = np.random.default_rng(7)
        tree = make_tree(rng, n_assets=2, periods=2)
        once, _ = discount_tree(tree, 0)
        twice, _ = discount_tree(once, 0)
        for nid in tree.nodes:
            assert np.allclose(once.nodes[nid].prices, twice.nodes[nid].prices)
            p1 = [p for p, _ in once.nodes[nid].branches]
            p2 = [p for p, _ in twice.nodes[nid].branches]
            assert np.allclose(p1, p2, atol=1e-13)

    def test_payoff_discounted_with_prices(self):
        rng = np.random.default_rng(9)
        tree = make_tree(rng, n_assets=2, periods=2)
        payoff = {t: float(rng.normal()) for t in tree.terminal_ids}
        withpay = FiniteTreeModel(
            [tree.nodes[nid] for nid in tree._order], tree.root, payoff=payoff
        )
        disc, _ = discount_tree(withpay, 1)
        for t in tree.terminal_ids:
            expected = payoff[t] / tree.nodes[t].prices[1]
            assert abs(disc.payoff[t] - expected) < 1e-14

    def test_nonpositive_numeraire_rejected(self):
        tree = FiniteTreeModel(
            [
                ("r", 0, [1.0, -2.0], [(0.5, "a"), (0.5, "b")]),
                ("a", 1, [1.2, -2.5], []),
                ("b", 1, [0.9, -1.5], []),
            ],
            "r",
        )
        with pytest.raises(InvalidNumeraireError):
            discount_tree(tree, 1)
        assert tree.positive_assets() == [0]


class TestConfigIO:
    def test_round_trip_all_kinds(self, discrete_benchmark, ito_benchmark, tmp_path):
        rng = np.random.default_rng(8)
        tree = make_tree(rng, n_assets=2, periods=2)
        for model in (discrete_benchmark, ito_benchmark, tree):
            data = model_to_dict(model)
            rebuilt = model_from_dict(json.loads(json.dumps(data)))
            assert model_to_dict(rebuilt) == data

    def test_load_config_file(self, tmp_path):
        cfg = {
            "model": {
                "kind": "iid",
                "mu": [0.1, 0.2],
                "sigma": [[0.04, 0.0], [0.0, 0.09]],
                "T": 3,
            },
            "claim": 1.0,
            "wealth": 0.25,
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        model, claim, wealth, step = load_config(path)
        assert isinstance(model, IidDiscreteModel)
        assert claim.constant == 1.0
        assert wealth == 0.25
        assert step is None

    def test_tree_config_with_payoff(self, tmp_path):
        cfg = {
            "model": {
                "kind": "tree",
                "root": "r",
                "nodes": [
                    {
                        "id": "r",
                        "time": 0,
                        "prices": [1.0, 2.0],
                        "branches": [
                            {"prob": 0.4, "child": "u"},
                            {"prob": 0.6, "child": "d"},
                        ],
                    },
                    {"id": "u", "time": 1, "prices": [1.0, 2.6], "branches": []},
                    {"id": "d", "time": 1, "prices": [1.0, 1.7], "branches": []},
                ],
                "payoff": {"u": 0.6, "d": 0.0},
            }
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(cfg))
        model, claim, wealth, step = load_config(path)
        assert isinstance(model, FiniteTreeModel)
        assert claim.value_at("u") == 0.6
        assert wealth is None
        assert step is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidModelError):
            model_from_dict({"kind": "garch"})
