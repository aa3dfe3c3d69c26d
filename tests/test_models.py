import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import complete_binomial_tree, make_tree, moment_matched_tree, tree_dict
from mvhedge import models, oracle, qp
from mvhedge.cli import main
from mvhedge.engine import LocalArbitrageError, adjustment
from mvhedge.linalg import InvalidInputError
from mvhedge.models import (
    Claim,
    FiniteTreeModel,
    IidDiscreteModel,
    InvalidModelError,
    InvalidNumeraireError,
    PiiItoModel,
    discount_tree,
    load_config,
    model_from_dict,
)

DATA = Path(__file__).parent / "data"


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
    def test_layout_matches_node_records(self):
        rng = np.random.default_rng(14)
        trees = []
        for i in range(6):
            base = make_tree(rng, n_assets=1 + i % 3, periods=1 + i % 4)
            trees.append(base)
            nodes = [  # a duplicated asset, as in the acceptance corpus
                (nid, n.time, np.append(n.prices, n.prices[-1]), n.branches)
                for nid, n in base.nodes.items()
            ]
            trees.append(FiniteTreeModel(nodes, base.root))
        for tree in trees:
            assert tree.ids[0] == tree.root and tree.parent[0] == -1
            for nid, node in tree.nodes.items():
                i = tree.index[nid]
                assert tree.ids[i] == nid and tree.time[i] == node.time
                assert (i < tree.n_internal) == bool(node.branches)
                kids = [tree.index[ch] for _, ch in node.branches]
                assert np.all(np.diff(kids) == 1)
                for (p, ch), j in zip(node.branches, kids):
                    assert tree.parent[j] == i and tree.prob[j] == p
                    expected = tree.nodes[ch].prices / node.prices - 1.0
                    assert np.array_equal(tree.rets[j], expected)
            assert np.all(np.diff(tree.time) >= 0)
            assert np.all(np.diff(tree.parent) >= 0)  # breadth first
            assert len(tree.levels) == tree.horizon
            for t, (here, kids, sums, owner) in enumerate(tree.levels):
                assert set(tree.time[here]) == {t} and set(tree.time[kids]) == {t + 1}
                assert here.stop == kids.start
                assert np.array_equal(here.start + owner, tree.parent[kids])
                counts = [len(tree.nodes[nid].branches) for nid in tree.ids[here]]
                assert sums(np.ones(kids.stop - kids.start)).tolist() == counts
            terminal = tree.node_probabilities()[tree.n_internal :]
            assert abs(terminal.sum() - 1.0) < 1e-12

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

    def test_claim_requires_all_terminals(self, capsys):
        # A claim map, top-level or the model's payoff, is checked where the
        # tree commands read it: each exits 2 with one line naming the
        # terminal node it lacks.  frontier reads no claim and passes.
        for config in ("tree_claim_missing_terminal", "tree_payoff_missing_terminal"):
            path = str(DATA / f"{config}.json")
            for command in ("hedge", "oracle", "simulate"):
                assert main([command, "--model", path]) == 2
                err = capsys.readouterr().err.splitlines()
                assert err == ["claim payoff undefined at terminal node 'd'"]
            assert main(["frontier", "--model", path]) == 0

    def test_claim_spec_exclusivity(self):
        with pytest.raises(InvalidModelError):
            Claim(constant=1.0, payoff={"a": 1.0})
        with pytest.raises(InvalidModelError):
            Claim()


# Two periods, two assets; each case below breaks one rule of the structure
# or value step of FiniteTreeModel.
VALID_TREE = [
    ("r", 0, [1.0, 2.0], [(0.5, "a"), (0.5, "b")]),
    ("a", 1, [1.2, 2.2], [(0.4, "aa"), (0.6, "ab")]),
    ("b", 1, [0.9, 1.8], [(0.5, "ba"), (0.5, "bb")]),
    ("aa", 2, [1.3, 2.0], []),
    ("ab", 2, [1.1, 2.5], []),
    ("ba", 2, [0.8, 1.9], []),
    ("bb", 2, [1.0, 1.7], []),
]
TERMINAL_PAYOFF = {"aa": 1.0, "ab": 0.0, "ba": 0.5, "bb": 0.2}


def _edit(nid, **fields):
    """Replace fields of node ``nid`` in a record list."""
    def apply(records):
        i = [r[0] for r in records].index(nid)
        old = dict(zip(("id", "time", "prices", "branches"), records[i]))
        records[i] = tuple({**old, **fields}.values())
    return apply


MALFORMED_TREES = [
    ("duplicate id", lambda r: r.append(r[2]),
     InvalidModelError, "duplicate node id 'b'"),
    ("unknown child", _edit("b", branches=[(0.5, "ba"), (0.5, "bx")]),
     InvalidModelError, "unknown child node 'bx'"),
    ("node reached twice", _edit("b", branches=[(0.5, "ba"), (0.5, "ab")]),
     InvalidModelError, "node 'ab' reached twice; not a tree"),
    ("unreachable node", lambda r: r.append(("z", 2, [1.0, 1.0], [])),
     InvalidModelError, r"unreachable nodes: \['z'\]"),
    ("wrong child time", _edit("ba", time=3),
     InvalidModelError, "child 'ba' time must be 2"),
    ("fractional time", _edit("ba", time=2.9),
     InvalidModelError, "time of node 'ba' must be an integer, got 2.9"),
    ("boolean time", _edit("a", time=True),
     InvalidModelError, "time of node 'a' must be an integer, got True"),
    ("string time", _edit("a", time="1"),
     InvalidModelError, "time of node 'a' must be an integer, got '1'"),
    ("inconsistent asset count", _edit("ab", prices=[1.1]),
     InvalidModelError, "node 'ab' has 1, the root 2"),
    ("non-finite price", _edit("ba", prices=[0.8, np.inf]),
     InvalidModelError, "node 'ba' has non-finite prices"),
    ("zero price", _edit("ab", prices=[0.0, 2.5]),
     InvalidModelError, "node 'ab' has a zero price"),
    ("non-positive branch probability", _edit("b", branches=[(1.0, "ba"), (0.0, "bb")]),
     InvalidModelError, "node 'b' has a non-positive branch probability"),
    ("bad probability sum", _edit("a", branches=[(0.4, "aa"), (0.5, "ab")]),
     InvalidModelError, "branch probabilities at node 'a' sum to 0.9"),
    ("overflowing probability sum", _edit("a", branches=[(1e308, "aa"), (1e308, "ab")]),
     InvalidModelError, "branch probabilities at node 'a' sum to inf"),
    # The CLI's exit-2 contract pins this message too (test_cli.py).
    ("edge return above MAX_AMOUNT", _edit("bb", prices=[1.0, 1e151]),
     InvalidInputError, r"every edge return must be at most 1e\+150 in magnitude, "
     r"got 5\.555555555555556e\+150 on the edge into node 'bb'"),
]


class TestTreeValidation:
    def test_valid_tree_passes(self):
        tree = FiniteTreeModel(VALID_TREE, "r")
        assert tree.ids == ("r", "a", "b", "aa", "ab", "ba", "bb")

    @pytest.mark.parametrize(
        "edit, error, message",
        [case[1:] for case in MALFORMED_TREES],
        ids=[case[0] for case in MALFORMED_TREES],
    )
    def test_malformed_tree_names_the_offending_node(self, edit, error, message):
        records = list(VALID_TREE)
        edit(records)
        with pytest.raises(error, match=message):
            FiniteTreeModel(records, "r")

    @pytest.mark.parametrize(
        "edit, error, message",
        [case[1:] for case in MALFORMED_TREES],
        ids=[case[0] for case in MALFORMED_TREES],
    )
    def test_config_loader_reports_the_same_fault(self, edit, error, message):
        records = list(VALID_TREE)
        edit(records)
        with pytest.raises(error, match=message) as from_records:
            FiniteTreeModel(records, "r")
        with pytest.raises(error, match=message) as from_config:
            model_from_dict(tree_dict(records, "r"))
        assert type(from_config.value) is type(from_records.value)
        assert str(from_config.value) == str(from_records.value)

    def test_nested_prices_are_raveled(self):
        # One nested row makes the price rows ragged; nesting every row keeps
        # them rectangular.  Both lay out like the flat rows.
        flat = _layout(FiniteTreeModel(VALID_TREE, "r"))
        one = list(VALID_TREE)
        _edit("a", prices=[[1.2, 2.2]])(one)
        every = [(nid, t, [prices], br) for nid, t, prices, br in VALID_TREE]
        for records in (one, every):
            assert _layout(FiniteTreeModel(records, "r")) == flat
            assert _layout(model_from_dict(tree_dict(records, "r"))) == flat

    def test_integral_floats_read_as_integers(self):
        # JSON has one number type, so 2.0 is the integer 2; 2.9, "2" and true
        # are not (MALFORMED_TREES and test_cli.py's malformed configs).
        records = [(nid, float(t), prices, br) for nid, t, prices, br in VALID_TREE]
        flat = _layout(FiniteTreeModel(VALID_TREE, "r"))
        assert _layout(FiniteTreeModel(records, "r")) == flat
        assert _layout(model_from_dict(tree_dict(records, "r"))) == flat
        iid = {"kind": "iid", "mu": [0.1], "sigma": [[0.04]], "T": 4.0}
        assert model_from_dict(iid).n_periods == 4


class TestLocalNoArbitrage:
    # Local no-arbitrage is the boundedness of the adjustment problem:
    # engine.adjustment raises LocalArbitrageError exactly when the drift
    # leaves Ran(c) + span(ones).
    def test_full_rank_always_passes(self):
        adjustment(np.array([5.0, -3.0]), np.eye(2))

    def test_riskless_drift_absorbed(self):
        d = 3
        adjustment(0.07 * np.ones(d), np.zeros((d, d)))

    def test_unspanned_drift_fails(self):
        with pytest.raises(LocalArbitrageError):
            adjustment(np.array([0.1, 0.2]), np.zeros((2, 2)))

    def test_malformed_second_characteristic_rejected(self):
        for c in (np.ones((2, 3)), [[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]):
            with pytest.raises(qp.InvalidProblemError):
                adjustment(np.zeros(2), c)

    def test_agrees_with_range_membership(self):
        # b in Ran(c) + span(ones), tested directly by projection residual;
        # a zero row (riskless asset) or a repeated row (duplicated asset)
        # makes c singular.
        from subspaces import in_span, subspace_sum

        rng = np.random.default_rng(12)
        verdicts = set()
        for trial in range(400):
            d = int(rng.integers(2, 5))
            G = rng.normal(size=(d, int(rng.integers(0, d + 1))))
            if trial % 3 == 1:
                G[0] = 0.0
            elif trial % 3 == 2:
                G[1] = G[0]
            c = G @ G.T
            b = rng.normal(size=d) if trial % 2 else c @ rng.normal(size=d) + 0.03
            expected = in_span(b, subspace_sum(c, np.ones((d, 1))))
            try:
                adjustment(b, c)
            except LocalArbitrageError:
                assert not expected
            else:
                assert expected
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestDiscountTree:
    def test_constant_numeraire_is_identity(self):
        tree = complete_binomial_tree(periods=2)
        disc, weights = discount_tree(tree, 0)
        for nid, node in tree.nodes.items():
            assert np.allclose(disc.nodes[nid].prices, node.prices)
            assert weights[tree.index[nid]] == 1.0
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
        total = sum(disc.node_probabilities()[disc.index[t]] for t in disc.terminal_ids)
        assert abs(total - 1.0) < 1e-12

    def test_second_moment_identity_for_claims(self):
        # E[H^2] = E[X_T^2] * E_disc[(H/X_T)^2] by direct enumeration.
        rng = np.random.default_rng(6)
        tree = make_tree(rng, n_assets=2, periods=2)
        payoff = {t: float(rng.normal()) for t in tree.terminal_ids}
        disc, weights = discount_tree(tree, 0)
        probs = tree.node_probabilities()
        disc_probs = disc.node_probabilities()
        lhs = sum(probs[tree.index[t]] * payoff[t] ** 2 for t in tree.terminal_ids)
        rhs = weights[tree.index[tree.root]] * sum(
            disc_probs[disc.index[t]] * (payoff[t] / tree.nodes[t].prices[0]) ** 2
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


def _layout(tree):
    """Every array and field of the layout, for bit-for-bit comparison."""
    arrays = [tree.prob, tree.prices, tree.rets, tree.parent, tree.time]
    for here, kids, sums, owner in tree.levels:
        arrays.append(owner)
        arrays.append(sums(np.arange(kids.stop - kids.start, dtype=float)))
    fields = (tree.root, tree.ids, tree.index, tree.n_internal, tree.terminal_ids,
              tree.horizon,
              [(here, kids) for here, kids, _, _ in tree.levels])
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], fields


def _layout_trees():
    rng = np.random.default_rng(21)
    for i in range(3):
        yield make_tree(rng, n_assets=2 + i, periods=2 + i)
        yield make_tree(rng, n_assets=3, periods=3, constant_asset=True)
        base = make_tree(rng, n_assets=2, periods=3)
        yield FiniteTreeModel(  # a duplicated asset
            [(n.id, n.time, np.append(n.prices, n.prices[-1]), n.branches)
             for n in base.nodes.values()],
            base.root,
        )
        base = make_tree(rng, n_assets=3, periods=2)
        with pytest.warns(UserWarning, match="renormalizing"):
            renormalized = FiniteTreeModel(  # every first branch 5e-13 too likely
                [(n.id, n.time, n.prices,
                  [(p + 5e-13 * (k == 0), ch) for k, (p, ch) in enumerate(n.branches)])
                 for n in base.nodes.values()],
                base.root,
            )
        yield renormalized


class TestTreeLayout:
    def test_slots_are_each_levels_branch_positions(self):
        for tree in _layout_trees():
            assert len(tree.slots) == len(tree.levels)
            for (_, _, _, owner), (pos, width) in zip(tree.levels, tree.slots):
                expected = np.arange(len(owner)) - np.searchsorted(owner, owner)
                assert np.array_equal(pos, expected)
                assert width == expected.max() + 1
            for j in tree.positive_assets():
                assert discount_tree(tree, j)[0].slots is tree.slots

    def test_records_round_trip_to_the_same_layout(self):
        count = 0
        for tree in _layout_trees():
            discounted = [discount_tree(tree, j)[0] for j in tree.positive_assets()]
            for t in [tree, *discounted]:
                again = FiniteTreeModel(t.nodes.values(), t.root)
                assert _layout(again) == _layout(t)
                count += 1
        assert count >= 40

    def test_config_loader_lays_out_the_records_layout(self):
        from perfbench.workloads import random_tree

        trees = list(_layout_trees())
        trees.append(moment_matched_tree([0.05, 0.08], [[0.04, 0.01], [0.01, 0.09]], 2))
        trees.append(complete_binomial_tree(periods=3))
        rng = np.random.default_rng(23)
        for k in range(12):
            nodes, root, _ = random_tree(
                rng, 1 + k % 4, int(rng.integers(2, 5)),
                ("generic", "riskless", "duplicated")[k % 3],
            )
            trees.append(FiniteTreeModel(nodes, root))
        for tree in trees:
            data = tree_dict(tree.nodes.values(), tree.root)
            data = json.loads(json.dumps(data))
            assert _layout(model_from_dict(data)) == _layout(tree)
            data["nodes"].reverse()  # the input order of the nodes does not matter
            assert _layout(model_from_dict(data)) == _layout(tree)

    def test_nodes_is_a_read_only_view(self):
        tree = make_tree(np.random.default_rng(22), n_assets=2, periods=2)
        node = tree.nodes[tree.root]
        assert not node.prices.flags.writeable
        with pytest.raises(TypeError):
            tree.nodes["x"] = node
        assert tree.nodes is tree.nodes

    def test_discounting_shares_the_structure_and_builds_no_records(self, monkeypatch):
        calls = []
        init = FiniteTreeModel.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        trees = list(_layout_trees())
        monkeypatch.setattr(FiniteTreeModel, "__init__", counting)
        for tree in trees:
            for j in tree.positive_assets():
                disc, _ = discount_tree(tree, j)
                assert disc.ids is tree.ids and disc.levels is tree.levels
                assert disc.parent is tree.parent and disc.index is tree.index
                assert "nodes" not in vars(disc) and "nodes" not in vars(tree)
        assert calls == []

    def test_discounted_copy_drops_the_cached_records(self):
        # The source's records are built before it is discounted; the copy's
        # records must be built from the discounted arrays, not be the
        # source's cached view.
        for tree in _layout_trees():
            source = tree.nodes
            for j in tree.positive_assets():
                disc, _ = discount_tree(tree, j)
                for i, nid in enumerate(tree.ids):
                    expected = tree.prices[i] / tree.prices[i, j]
                    assert np.array_equal(disc.nodes[nid].prices, expected)
                    assert disc.nodes[nid].branches == tuple(
                        (float(disc.prob[tree.index[ch]]), ch)
                        for _, ch in source[nid].branches
                    )
            assert tree.nodes is source

    def test_discounted_edge_return_is_still_bounded(self):
        # Asset 0 falls by 1e-160 along one edge: every undiscounted return is
        # at most 1, but in units of asset 0 asset 1 rises by 1e160.
        tree = FiniteTreeModel(
            [
                ("r", 0, [1.0, 1.0], [(0.5, "a"), (0.5, "b")]),
                ("a", 1, [1e-160, 1.0], []),
                ("b", 1, [1.0, 1.2], []),
            ],
            "r",
        )
        assert np.max(np.abs(tree.rets)) <= 1.0
        with pytest.raises(InvalidInputError, match="every edge return") as alone:
            discount_tree(tree, 0)
        # the stacked discount of the numeraire check names the same edge,
        # also after a member that passes
        for assets in ([0], [1, 0]):
            with pytest.raises(InvalidInputError) as stacked:
                oracle._numeraire_reports(tree, Claim(constant=1.0), assets, 0.0)
            assert str(stacked.value) == str(alone.value)

    def test_stacked_value_check_is_member_by_member(self):
        # One value check over K members warns and fails as K one-member
        # checks in turn do: the members before the first failing one warn,
        # then it raises its own error, after its own warnings when it fails
        # on its returns or its assets.
        rng = np.random.default_rng(22)
        tree = make_tree(rng, n_assets=3, periods=2)
        n, d = len(tree.ids), tree.d
        off = tree.prob * (1.0 + rng.uniform(4e-13, 6e-13, n))  # sums off by ~5e-13
        zero = off.copy()
        zero[5] = 0.0
        far = tree.prices.copy()
        far[-1, 1] *= 1e160  # an edge return above MAX_AMOUNT
        cases = [
            ([off, tree.prob, off], [tree.prices] * 3, None),
            ([off, zero, off], [tree.prices] * 3, "non-positive branch probability"),
            ([off, off, off], [tree.prices, far, tree.prices], "every edge return"),
            ([off, off], [tree.prices, -tree.prices], "no strictly positive asset"),
        ]

        def check(probs, prices, groups):
            prob, prices = np.array(probs), np.array(prices)
            rets = np.zeros_like(prices)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    for members in groups:
                        models._check_values(
                            tree, prob[members], prices[members], rets[members]
                        )
                except (InvalidModelError, InvalidInputError) as err:
                    return [str(w.message) for w in caught], str(err), None
            return [str(w.message) for w in caught], None, (prob, rets)

        for probs, prices, failure in cases:
            together = check(probs, prices, [slice(0, len(probs))])
            alone = check(probs, prices, [slice(k, k + 1) for k in range(len(probs))])
            warned, error, arrays = together
            assert warned and (warned, error) == alone[:2]
            if failure is None:
                assert error is None
                for got, want in zip(arrays, alone[2]):
                    assert np.array_equal(got, want)
            else:
                assert failure in error


class TestConfigIO:
    def test_config_reproduces_each_kinds_arrays(
        self, discrete_benchmark, ito_benchmark
    ):
        iid, pii = discrete_benchmark, ito_benchmark
        tree = make_tree(np.random.default_rng(8), n_assets=2, periods=2)
        configs = [
            {"kind": "iid", "mu": iid.mu.tolist(), "sigma": iid.sigma.tolist(),
             "T": iid.n_periods},
            {"kind": "pii", "segments": [
                {"duration": s.duration, "b": s.b.tolist(), "c": s.c.tolist()}
                for s in pii.segments
            ]},
            tree_dict(tree.nodes.values(), tree.root),
        ]
        iid2, pii2, tree2 = (
            model_from_dict(json.loads(json.dumps(c))) for c in configs
        )
        assert np.array_equal(iid2.mu, iid.mu) and np.array_equal(iid2.sigma, iid.sigma)
        assert iid2.n_periods == iid.n_periods
        assert len(pii2.segments) == len(pii.segments)
        for got, want in zip(pii2.segments, pii.segments):
            assert got.duration == want.duration
            assert np.array_equal(got.b, want.b) and np.array_equal(got.c, want.c)
        assert _layout(tree2) == _layout(tree)

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
        assert claim.constant is None and claim.payoff == {"u": 0.6, "d": 0.0}
        assert wealth is None
        assert step is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidModelError):
            model_from_dict({"kind": "garch"})
