import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    complete_binomial_tree,
    make_tree,
    moment_matched_tree,
    random_claim,
)
from mvhedge import engine, models, oracle
from mvhedge.cli import main
from mvhedge.engine import closed_form_values, tree_backward
from mvhedge.linalg import InvalidInputError
from mvhedge.models import Claim
from mvhedge.oracle import (
    _block_rng,
    dp_solve,
    enumerate_terminal_wealth,
    mc_simulate,
    numeraire_change_check,
)

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"


class TestDpSolve:
    def test_complete_market_objective_zero(self):
        tree = complete_binomial_tree(periods=1)
        payoff = {
            t: max(tree.nodes[t].prices[1] - 1.0, 0.0) for t in tree.terminal_ids
        }
        claim = Claim(payoff=payoff)
        sol = tree_backward(tree, claim)
        result = dp_solve(tree, claim, sol.V0)
        assert abs(result.objective) < 1e-14

    def test_moment_tree_objective(self, discrete_benchmark):
        tree = moment_matched_tree(discrete_benchmark.mu, discrete_benchmark.sigma, 4)
        values, _ = closed_form_values(discrete_benchmark)
        result = dp_solve(tree, Claim(constant=1.0), 0.0)
        expected = values.L0 * values.V0**2 + values.eps2_0
        assert abs(result.objective - expected) < 1e-10

    def test_matches_engine_nodewise(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            tree = make_tree(rng, n_assets=d, periods=int(rng.integers(1, 4)))
            claim = random_claim(rng, tree)
            sol = tree_backward(tree, claim)
            v = float(rng.normal())
            result = dp_solve(tree, claim, v)
            for nid in tree.nodes:
                i = tree.index[nid]
                assert abs(sol.L[i] - result.ell[i]) < 1e-10
                assert abs(sol.V[i] - result.v[i]) < 1e-10
                assert abs(sol.eps2[i] - result.e[i]) < 1e-10
            assert abs(engine.hedging_error(sol, v) - result.objective) < 1e-10

    def test_value_function_quadratic_shape(self):
        rng = np.random.default_rng(1)
        tree = make_tree(rng, n_assets=2, periods=2)
        claim = random_claim(rng, tree)
        objs = {v: dp_solve(tree, claim, v).objective for v in (-1.0, 0.0, 1.0)}
        ell = (objs[1.0] + objs[-1.0] - 2.0 * objs[0.0]) / 2.0
        v_fit = (objs[-1.0] - objs[1.0]) / (4.0 * ell)
        e_fit = objs[0.0] - ell * v_fit**2
        root = dp_solve(tree, claim, 0.0)
        i = tree.index[tree.root]
        assert abs(ell - root.ell[i]) < 1e-10
        assert abs(v_fit - root.v[i]) < 1e-10
        assert abs(e_fit - root.e[i]) < 1e-10

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(2)
        tree = make_tree(rng, n_assets=2, periods=2)
        claim = random_claim(rng, tree)
        base = dp_solve(tree, claim, 0.3)
        # permute assets everywhere
        perm = [1, 0]
        nodes = [
            (nid, tree.nodes[nid].time, tree.nodes[nid].prices[perm],
             list(tree.nodes[nid].branches))
            for nid in tree.ids
        ]
        permuted = models.FiniteTreeModel(nodes, tree.root)
        swapped = dp_solve(permuted, claim, 0.3)
        assert abs(base.objective - swapped.objective) < 1e-12
        for nid in tree.ids[: len(base.holdings)]:
            pi, i = base.holdings[tree.index[nid]], permuted.index[nid]
            assert np.abs(pi[perm] - swapped.holdings[i]).max() < 1e-10
        # relabel branches (reverse order at every node)
        nodes = [
            (nid, tree.nodes[nid].time, tree.nodes[nid].prices,
             list(reversed(tree.nodes[nid].branches)))
            for nid in tree.ids
        ]
        reordered = models.FiniteTreeModel(nodes, tree.root)
        rev = dp_solve(reordered, claim, 0.3)
        assert abs(base.objective - rev.objective) < 1e-12

    def test_policy_affine_in_wealth(self):
        rng = np.random.default_rng(3)
        tree = make_tree(rng, n_assets=2, periods=2)
        claim = random_claim(rng, tree)
        r1 = dp_solve(tree, claim, 0.0)
        r2 = dp_solve(tree, claim, 1.0)
        root = tree.index[tree.root]
        pi0, pi1 = r1.policy[root]
        assert np.abs(r1.holdings[root] - pi0).max() < 1e-12
        assert np.abs(r2.holdings[root] - (pi0 + pi1)).max() < 1e-12


class TestNumeraireChange:
    def test_constant_asset_is_identity(self):
        tree = complete_binomial_tree(periods=2)
        claim = Claim(
            payoff={t: float(tree.nodes[t].prices[1]) for t in tree.terminal_ids}
        )
        report = numeraire_change_check(tree, claim, 0, 0.4)
        assert report.objective_gap == 0.0
        assert report.max_holdings_gap == 0.0
        assert abs(report.terminal_second_moment - 1.0) < 1e-14

    def test_stochastic_numeraire_binomial(self):
        tree = complete_binomial_tree(periods=2)
        claim = Claim(
            payoff={
                t: max(tree.nodes[t].prices[1] - 1.0, 0.0)
                for t in tree.terminal_ids
            }
        )
        report = numeraire_change_check(tree, claim, 1, 0.7)
        assert report.passed(1e-10)

    def test_every_positive_numeraire_on_random_trees(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            d = int(rng.integers(2, 4))
            tree = make_tree(rng, n_assets=d, periods=2)
            claim = random_claim(rng, tree)
            node_prob = tree.node_probabilities()
            for j in tree.positive_assets():
                report = numeraire_change_check(tree, claim, j, 0.2)
                assert report.passed(1e-9), (j, report)
                m2 = sum(
                    node_prob[tree.index[t]] * tree.nodes[t].prices[j] ** 2
                    for t in tree.terminal_ids
                )
                assert abs(report.terminal_second_moment - m2) <= 1e-12 * m2

    def test_stacking_changes_no_tree(self, monkeypatch):
        # The undiscounted tree and each discounted tree are members of one
        # stacked DP pass; every member must be bit for bit the separate
        # solve of its own tree, and every report the one-asset report.
        members = []
        dp_pass = oracle._dp_pass

        def recording(*args):
            members.append(dp_pass(*args))
            return members[-1]

        monkeypatch.setattr(oracle, "_dp_pass", recording)
        rng = np.random.default_rng(9)
        duplicated = make_tree(rng, n_assets=2, periods=3)
        trees = [
            make_tree(rng, n_assets=3, periods=3),
            make_tree(rng, n_assets=3, periods=3, constant_asset=True),
            models.FiniteTreeModel(
                [(n.id, n.time, np.append(n.prices, n.prices[-1]), n.branches)
                 for n in duplicated.nodes.values()],
                duplicated.root,
            ),
        ]
        fields = ("ell", "v", "e", "policy", "holdings", "wealth")
        for tree in trees:
            claim, v = random_claim(rng, tree), float(rng.normal())
            assets = tree.positive_assets()
            members.clear()
            base, reports = oracle._numeraire_reports(tree, claim, assets, v)
            (stacked,) = members
            assert len(stacked) == 1 + len(assets) and stacked[0] is base
            h = np.array([claim.payoff[t] for t in tree.terminal_ids])
            separate = [dp_solve(tree, claim, v)]
            for j in assets:
                values = h / tree.prices[tree.n_internal :, j]
                disc_claim = Claim(payoff=dict(zip(tree.terminal_ids, values.tolist())))
                separate.append(dp_solve(
                    models.discount_tree(tree, j)[0], disc_claim, v / tree.prices[0, j]
                ))
            for member, alone in zip(stacked, separate):
                for name in fields:
                    assert np.array_equal(getattr(member, name), getattr(alone, name))
                assert member.objective == alone.objective
            for j, report, member in zip(assets, reports, stacked[1:]):
                assert report.objective_discounted == member.objective
                assert report == numeraire_change_check(tree, claim, j, v)

    def test_stacked_discount_is_discount_tree(self, monkeypatch):
        # _numeraire_reports discounts every asset in one stacked step and
        # writes the members straight into the DP's inputs.  Each member must
        # be discount_tree's tree and the one-asset formulas below, bit for
        # bit, with the same warnings: on nodes with 4 to 12 branches (a
        # level's ``np.add.reduceat`` adds more than 8 terms at some node),
        # with a constant asset, and with branch sums off by about 5e-13.
        stacked = []
        dp_pass, discount = oracle._dp_pass, oracle._discount

        def recording(tree, prob, rets, *args):
            stacked.append((prob, rets))
            return dp_pass(tree, prob, rets, *args)

        def spying(*args):
            stacked.append(discount(*args))
            return stacked[-1]

        monkeypatch.setattr(oracle, "_dp_pass", recording)
        monkeypatch.setattr(oracle, "_discount", spying)
        rng = np.random.default_rng(10)
        wide = make_tree(rng, n_assets=3, periods=3, max_branch=12)
        assert np.bincount(wide.parent[1:]).max() > 8
        base = make_tree(rng, n_assets=3, periods=3)
        with pytest.warns(UserWarning, match="renormalizing"):
            off = models.FiniteTreeModel(  # every first branch 5e-13 too likely
                [(n.id, n.time, n.prices,
                  [(p + 5e-13 * (k == 0), ch) for k, (p, ch) in enumerate(n.branches)])
                 for n in base.nodes.values()],
                base.root,
            )
        constant = make_tree(rng, n_assets=3, periods=3, constant_asset=True)
        for tree in (wide, constant, off):
            claim, v = random_claim(rng, tree), float(rng.normal())
            assets = tree.positive_assets()
            stacked.clear()
            with warnings.catch_warnings(record=True) as together:
                warnings.simplefilter("always")
                oracle._numeraire_reports(tree, claim, assets, v)
            (prices, moments), (prob, rets) = stacked
            assert prob.shape == (len(tree.ids), 1 + len(assets))
            with warnings.catch_warnings(record=True) as alone:
                warnings.simplefilter("always")
                discounted = [models.discount_tree(tree, j) for j in assets]
            assert [str(w.message) for w in together] == [
                str(w.message) for w in alone
            ]
            for k, (j, (disc, weights)) in enumerate(zip(assets, discounted)):
                expected = tree.prices[:, j] ** 2
                for here, kids, sums, _ in reversed(tree.levels):
                    expected[here] = sums(tree.prob[kids] * expected[kids])
                p_hat = tree.prob * expected / expected[tree.parent]
                p_hat[0] = 1.0
                x_hat = tree.prices / tree.prices[:, j : j + 1]
                r_hat = np.zeros_like(x_hat)
                r_hat[1:] = x_hat[1:] / x_hat[tree.parent[1:]] - 1.0
                member = (prob[:, k + 1], prices[k], rets[:, k + 1], moments[k])
                one_asset = (disc.prob, disc.prices, disc.rets, weights)
                formulas = (p_hat, x_hat, r_hat, expected)
                for got, want, formula in zip(member, one_asset, formulas):
                    assert np.array_equal(got, want)
                    assert np.array_equal(got, formula)

    @pytest.mark.parametrize(
        "path", sorted(DATA.glob("seed12345_tree*.json")), ids=lambda p: p.stem
    )
    def test_seed12345_regression_trees(self, path):
        # Six trees of the seed-12345 corpus on which the Gram-matrix DP
        # missed its own 1e-9 check (11 reports, holdings gaps up to 4.2e-7)
        tree, claim, wealth, _ = models.load_config(path)
        _, reports = oracle._numeraire_reports(
            tree, claim, tree.positive_assets(), wealth
        )
        assert len(reports) == len(tree.positive_assets()) >= 1
        assert all(report.passed(1e-9) for report in reports), reports

    def test_moment_tree_numeraire(self, discrete_benchmark):
        tree = moment_matched_tree(discrete_benchmark.mu, discrete_benchmark.sigma, 2)
        report = numeraire_change_check(tree, Claim(constant=1.0), 0, 0.0)
        assert report.passed(1e-9)


class TestMonteCarlo:
    def test_tree_enumeration_matches_dp(self):
        rng = np.random.default_rng(5)
        tree = make_tree(rng, n_assets=2, periods=3)
        claim = random_claim(rng, tree)
        sol = tree_backward(tree, claim)
        v = 0.45
        report = mc_simulate(tree, sol, None, claim, v, 10, seed=1)
        assert report.exact
        assert report.std_error == 0.0
        assert report.n_paths == len(tree.terminal_ids)
        assert abs(report.error_second_moment - dp_solve(tree, claim, v).objective) < 1e-10
        # the path count and the seed leave an exact report unchanged; no
        # path is drawn, so a count below one is no error
        runs = ((1, 1), (2, 0), (10**7, 7), (4000, 12345), (0, 1), (-3, 2))
        for n_paths, seed in runs:
            other = mc_simulate(tree, sol, None, claim, v, n_paths, seed=seed)
            assert other == dataclasses.replace(report, seed=seed)

    def test_tree_sampler_hedges_the_solution_claim(self):
        # The tree simulation enumerates the solution's claim: None gives the
        # same report as that claim, and any other claim is rejected, not
        # hedged.
        rng = np.random.default_rng(6)
        tree = make_tree(rng, n_assets=2, periods=2)
        sol = tree_backward(tree, random_claim(rng, tree))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            given = mc_simulate(tree, sol, None, sol.claim, 0.1, 500, seed=3)
            default = mc_simulate(tree, sol, None, None, 0.1, 500, seed=3)
        assert default == given
        assert given.exact
        probs, wealth, payoff = enumerate_terminal_wealth(tree, sol, 0.1)
        assert given.error_second_moment == float(probs @ (wealth - payoff) ** 2)
        with pytest.raises(InvalidInputError, match="claim"):
            mc_simulate(tree, sol, None, Claim(constant=0.0), 0.1, 500, seed=3)

    def test_seed_none_draws_a_reported_seed(self, discrete_benchmark):
        # Without a seed the closed-form simulation draws one and reports it;
        # rerunning with the reported seed repeats the report bit for bit.
        values, coeffs = closed_form_values(discrete_benchmark)
        claim = Claim.constant_one()
        report = mc_simulate(discrete_benchmark, coeffs, values, claim, 0.3, 300, None)
        assert isinstance(report.seed, int)
        again = mc_simulate(
            discrete_benchmark, coeffs, values, claim, 0.3, 300, report.seed
        )
        assert again == report

    def test_seed_enters_unreduced_and_must_be_non_negative(self, ito_benchmark):
        values, coeffs = closed_form_values(ito_benchmark)
        reports = [
            mc_simulate(ito_benchmark, coeffs, values, None, 0.3, 300, seed, step=0.5)
            for seed in (1, 2**64 + 1)
        ]
        assert reports[0].error_second_moment != reports[1].error_second_moment
        with pytest.raises(InvalidInputError, match="seed must be non-negative"):
            mc_simulate(ito_benchmark, coeffs, values, None, 0.3, 300, -1, step=0.5)

    def test_block_streams_do_not_collide(self):
        # The block index is a spawn key, not a second entropy word, so block
        # 1 of seed 5 and block 0 of seed 2**32 + 5 draw different numbers.
        pairs = ((5, 1), (2**32 + 5, 0))
        draws = [_block_rng(s, b).standard_normal(8) for s, b in pairs]
        assert not np.array_equal(*draws)

    def test_zero_variance_model_exact(self):
        r = 0.02
        model = models.IidDiscreteModel(r * np.ones(2), np.zeros((2, 2)), 3)
        values, coeffs = closed_form_values(model)
        report = mc_simulate(
            model, coeffs, values, Claim.constant_one(), 0.6, 500, seed=9
        )
        analytic = engine.hedging_error(values, 0.6)
        assert abs(report.error_second_moment - analytic) < 1e-12

    def test_gaussian_iid_within_stderr(self, discrete_benchmark):
        values, coeffs = closed_form_values(discrete_benchmark)
        report = mc_simulate(
            discrete_benchmark,
            coeffs,
            values,
            Claim.constant_one(),
            0.0,
            50_000,
            seed=123,
        )
        analytic = engine.hedging_error(values, 0.0)
        assert abs(report.error_second_moment - analytic) < 4 * report.std_error

    def test_stderr_shrinks_at_root_n(self, discrete_benchmark):
        values, coeffs = closed_form_values(discrete_benchmark)
        ses = []
        for n in (10**3, 10**4, 10**5):
            rep = mc_simulate(
                discrete_benchmark,
                coeffs,
                values,
                Claim.constant_one(),
                0.0,
                n,
                seed=77,
            )
            ses.append(rep.std_error)
        assert ses[0] > ses[1] > ses[2]

    def test_deterministic_given_seed(self, discrete_benchmark):
        values, coeffs = closed_form_values(discrete_benchmark)
        reps = [
            mc_simulate(
                discrete_benchmark, coeffs, values, Claim.constant_one(), 0.5,
                20_000, seed=42,
            )
            for _ in range(2)
        ]
        assert reps[0].error_second_moment == reps[1].error_second_moment
        other = mc_simulate(
            discrete_benchmark, coeffs, values, Claim.constant_one(), 0.5,
            20_000, seed=43,
        )
        assert other.error_second_moment != reps[0].error_second_moment

    def test_long_horizon_draws_in_bounded_memory(self, tmp_path, capsys):
        # One block of 600 paths over 2000 periods: drawn all at once it would
        # hold 2.4e6 normals (19 MB per array); streamed one period at a time
        # it needs two path vectors per step.  A repeat run prints the same.
        model = {"mu": [0.001, 0.002], "sigma": [[1e-4, 2e-5], [2e-5, 4e-4]]}
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"model": dict(model, kind="iid", T=2000)}))
        argv = ["simulate", "--model", str(path), "--paths", "600", "--seed", "3"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, peak
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_horizon_of_1e5_periods_in_bounded_memory(
        self, tmp_path, capsys, monkeypatch
    ):
        # The law is built per chunk of steps and the paths need a few
        # vectors; only the engine's own step arrays grow with the horizon.
        model = {"mu": [0.001, 0.002], "sigma": [[1e-4, 2e-5], [2e-5, 4e-4]]}
        path = tmp_path / "longer.json"
        path.write_text(json.dumps({"model": dict(model, kind="iid", T=10**5)}))
        argv = ["simulate", "--model", str(path), "--paths", "200", "--seed", "5"]
        steps, pair_law = [], oracle._pair_law

        def spy(P, m, S):
            steps.append(len(P))
            return pair_law(P, m, S)

        monkeypatch.setattr(oracle, "_pair_law", spy)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, peak
        assert "paths = 200" in capsys.readouterr().out
        # one block of paths: every step's law is built once, a chunk at a time
        assert max(steps) <= oracle._LAW_STEPS
        assert sum(steps) == 10**5

    def test_memory_does_not_grow_with_the_path_count(self):
        # Each block rolls to the horizon in one reused buffer and is folded
        # into running statistics, so the traced peak of 2, 9 and 64 blocks
        # differs by at most one block's buffer.  Vectors of every path's
        # wealth and its squares would take 3.0 MB at 2**17 + 1 paths.  A
        # coarse Euler step keeps the Ito config at 2**20 paths cheap.
        buffer = np.empty(oracle._RNG_BLOCK).nbytes
        for name, step in (("iid_3assets_t4.json", None), ("pii_4assets_t5.json", 0.5)):
            model = models.load_config(CONFIGS / name)[0]
            values, coeffs = closed_form_values(model)
            # a first call imports numpy's random modules, traced memory too
            mc_simulate(model, coeffs, values, None, 0.0, 100, 1, step=step)
            peaks = {}
            for n_paths in (2**14 + 1, 2**17 + 1, 2**20):
                tracemalloc.start()
                try:
                    mc_simulate(model, coeffs, values, None, 0.0, n_paths, 1, step=step)
                    peaks[n_paths] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert max(peaks.values()) - min(peaks.values()) <= buffer, (name, peaks)
            assert peaks[2**17 + 1] < 1e6, (name, peaks)

    def test_one_chunk_law_serves_every_block(self, monkeypatch):
        # 2**17 paths are eight blocks; the 4-period IID law fits one chunk,
        # so its step table is built once, not once per block.
        model = models.load_config(CONFIGS / "iid_3assets_t4.json")[0]
        values, coeffs = closed_form_values(model)
        calls, pair_law = [], oracle._pair_law

        def spy(P, m, S):
            calls.append(len(P))
            return pair_law(P, m, S)

        monkeypatch.setattr(oracle, "_pair_law", spy)
        mc_simulate(model, coeffs, values, None, 0.0, 2**17, 5)
        assert calls == [4]

    def test_path_count_beyond_memory_streams(self, monkeypatch):
        # 10**12 paths would take 8 TB as one vector; streamed, block 0 rolls
        # to the horizon and block 1 asks for its stream, where the spy stops.
        class Reached(Exception):
            pass

        block_rng = oracle._block_rng

        def spy(seed, block):
            if block == 1:
                raise Reached
            return block_rng(seed, block)

        monkeypatch.setattr(oracle, "_block_rng", spy)
        model = models.load_config(CONFIGS / "iid_3assets_t4.json")[0]
        values, coeffs = closed_form_values(model)
        with pytest.raises(Reached):
            mc_simulate(model, coeffs, values, None, 0.0, 10**12, 5)

    @pytest.mark.parametrize(
        "path, v",
        [
            (CONFIGS / "iid_3assets_t4.json", 1e150),
            (CONFIGS / "pii_4assets_t5.json", 1e150),
            (DATA / "iid_long_horizon_t10000.json", 0.3),
        ],
        ids=["iid-1e150", "pii-1e150", "long-horizon"],
    )
    def test_fold_keeps_the_standard_error_in_range(
        self, path, v, capsys, monkeypatch
    ):
        # |error| passes 1e77, so the squared errors' own squares overflow,
        # yet the second moment and its standard error are finite floats.
        argv = ["simulate", "--model", str(path), "--wealth", str(v)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--paths", "1000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert np.isfinite(float(re.search(r"standard error = (\S+)", out)[1]))
        # 256-path blocks: four blocks fold in units other than 1
        monkeypatch.setattr(oracle, "_RNG_BLOCK", 256)
        model, _, _, step = models.load_config(path)
        values, coeffs = closed_form_values(model)
        if step is None:
            law = oracle._iid_law(model, coeffs, values)
        else:
            law = oracle._pii_law(model, coeffs, values, step)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = mc_simulate(model, coeffs, values, None, v, 1000, 1, step=step)
        reference = _scaled_moments(_kernel_wealth(*law, v, 1000, 1) - 1.0)
        got = (report.error_second_moment, report.std_error)
        for got, want in zip(got, reference):
            assert np.isfinite(want) and abs(got - want) <= 1e-12 * want, (got, want)

    def test_fold_rescales_its_running_totals(self, monkeypatch):
        # Block 0's squared errors stay below _FOLD_RANGE = 2^450, so it folds
        # in unit 1; block 1's pass it and block 2's pass 2^450 units of the
        # new unit, so the unit grows twice with running totals to rescale.
        rng = np.random.default_rng(53)
        errors = [
            rng.normal(size=n) * s
            for n, s in ((300, 2.0**222), (200, 2.0**226), (100, 2.0**460))
        ]
        assert (errors[0] ** 2).max() < oracle._FOLD_RANGE < (errors[1] ** 2).max()
        monkeypatch.setattr(
            oracle, "_roll_affine", lambda *args: (e + 1.0 for e in errors)
        )
        report = oracle._simulate_steps(0, None, 0.0, 600, 1)
        reference = _scaled_moments(np.concatenate(errors))
        got = (report.error_second_moment, report.std_error)
        for got, want in zip(got, reference):
            assert abs(got - want) <= 1e-12 * want, (got, want)

    def test_path_out_of_float_range_raises(self):
        # At T = 20000 and wealth 0.3 some path passes the roll's range of
        # about 1.3e154 (sqrt of the largest float): the report would be nan.
        model = models.load_config(DATA / "iid_long_horizon.json")[0]
        values, coeffs = closed_form_values(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError, match="leaves the float range"):
                mc_simulate(model, coeffs, values, None, 0.3, 500, 1)

    def test_ito_euler_converges(self, ito_benchmark):
        values, coeffs = closed_form_values(ito_benchmark)
        report = mc_simulate(
            ito_benchmark,
            coeffs,
            values,
            Claim.constant_one(),
            values.V0,
            40_000,
            seed=11,
            step=0.05,
        )
        analytic = engine.hedging_error(values, values.V0)
        # Euler discretization bias allows a loose tolerance only
        assert abs(report.error_second_moment - analytic) < 0.05 * (1 + analytic)

    def test_ito_euler_multisegment(self):
        rng = np.random.default_rng(13)
        segments = []
        for duration in (0.6, 1.4):
            G = rng.normal(size=(2, 2)) * 0.3
            segments.append((duration, rng.normal(size=2) * 0.05, G @ G.T))
        model = models.PiiItoModel(segments)
        values, coeffs = closed_form_values(model)
        report = mc_simulate(
            model, coeffs, values, Claim.constant_one(), values.V0,
            30_000, seed=17, step=0.01,
        )
        analytic = engine.hedging_error(values, values.V0)
        assert abs(report.error_second_moment - analytic) < max(
            0.03 * (1 + analytic), 6 * report.std_error
        )

    def test_step_required_for_ito(self, ito_benchmark):
        values, coeffs = closed_form_values(ito_benchmark)
        with pytest.raises(ValueError):
            mc_simulate(
                ito_benchmark, coeffs, values, Claim.constant_one(), 0.0, 10, seed=0
            )

    def test_nonunit_claim_rejected_for_closed_form(self, discrete_benchmark):
        values, coeffs = closed_form_values(discrete_benchmark)
        with pytest.raises(ValueError):
            mc_simulate(
                discrete_benchmark, coeffs, values, Claim(constant=2.0), 0.0, 10, seed=0
            )


def _rollout(law, v, n_paths, seed, block):
    """Terminal wealth of a per-path Python rollout of the one-normal kernel.

    ``law`` is the (step count, per-chunk law) pair of ``_iid_law`` or
    ``_pii_law``, built here in one piece as rows (m0, m1, p, q, r^2).  Block
    b holds paths [b * block, (b + 1) * block); its ``_block_rng`` stream
    gives one (size,) array of standard normals per step, and wealth w steps
    to m0 w + m1 + sqrt((p w + q)^2 + r^2) z.
    """
    n_steps, law = law
    steps = list(zip(*law(0, n_steps).tolist()))
    terminal = []
    for b, lo in enumerate(range(0, n_paths, block)):
        size = min(block, n_paths - lo)
        rng = _block_rng(seed, b)
        z = [rng.standard_normal(size).tolist() for _ in steps]
        for j in range(size):
            wealth = v
            for (m0, m1, pk, qk, r2k), zk in zip(steps, z):
                t = pk * wealth + qk
                t = math.sqrt(t * t + r2k) * zk[j]
                wealth = wealth * m0 + m1 + t
            terminal.append(wealth)
    return np.array(terminal)


def _kernel_wealth(n_steps, law, v, n_paths, seed):
    """Every path's terminal wealth from ``oracle._roll_affine``'s blocks."""
    blocks = oracle._roll_affine(n_steps, law, v, n_paths, seed)
    return np.concatenate([paths.copy() for paths in blocks])


def _scaled_moments(errors):
    """Mean of the squared errors and its standard error, scaled by hand.

    With 2^-k |errors| <= 1 the squares of the scaled squares are in range,
    so ``np.mean`` and ``np.std(ddof=1)`` of them, times 2^2k, stay finite.
    """
    k = math.frexp(np.abs(errors).max())[1]
    sq = np.ldexp(errors, -k) ** 2
    se = np.std(sq, ddof=1) / np.sqrt(len(sq))
    return np.ldexp(np.mean(sq), 2 * k), np.ldexp(se, 2 * k)


def _forward_error(law, v):
    """E[(wealth_T - 1)^2] of the kernel's step law, rolled forward exactly.

    Each step maps wealth w to alpha w + beta, with (alpha, beta) independent
    of w, so E[w'] = E[alpha] E[w] + E[beta] and E[w'^2] = E[alpha^2] E[w^2] +
    2 E[alpha beta] E[w] + E[beta^2].  With the law's rows (m0, m1, p, q,
    r^2) the second moments of (alpha, beta) are m0^2 + p^2, m0 m1 + p q and
    m1^2 + q^2 + r^2.  The law is read in the kernel's chunks.
    """
    n_steps, law = law
    w1, w2 = v, v * v
    for k0 in range(0, n_steps, oracle._LAW_STEPS):
        table = law(k0, min(n_steps, k0 + oracle._LAW_STEPS))
        for m0, m1, p, q, r2 in zip(*table.tolist()):
            eaa, eab, ebb = m0 * m0 + p * p, m0 * m1 + p * q, m1 * m1 + q * q + r2
            w1, w2 = m0 * w1 + m1, eaa * w2 + 2.0 * eab * w1 + ebb
    return w2 - 2.0 * w1 + 1.0


def _reference_simulate(model, coeffs, values, v, n_paths, seed, step=None):
    """Full d-dimensional sampler: d normals per path step, holdings pi formed
    per path and applied to the drawn returns (simple returns per period for
    IID models, Euler log returns for piecewise-constant ones).  Returns the
    estimate of E[(wealth_T - 1)^2] and its standard error.
    """
    rng = np.random.default_rng(seed)
    steps = []  # (tracking V, xi-like p, a, mean, Cholesky factor) per step
    if isinstance(model, models.IidDiscreteModel):
        chol = np.linalg.cholesky(model.sigma)
        for t in range(model.n_periods):
            steps.append((values.V[t], coeffs.xi[t], coeffs.a[t], model.mu, chol))
    else:
        for i, seg in enumerate(model.segments):
            t_i, t_j = values.times[i], values.times[i + 1]
            n = max(1, int(np.ceil((t_j - t_i) / step - 1e-12)))
            edges = np.linspace(t_i, t_j, n + 1)
            log_v = np.log(values.V[i : i + 2])
            for t0, t1 in zip(edges[:-1], edges[1:]):
                dt = t1 - t0
                s = (t0 - t_i) / (t_j - t_i)
                V = np.exp(log_v[0] + s * (log_v[1] - log_v[0]))
                chol = np.linalg.cholesky(seg.c * dt)
                steps.append((V, V * coeffs.zeta[i], coeffs.a[i], seg.b * dt, chol))
    wealth = np.full(n_paths, float(v))
    for V, p, a, m, chol in steps:
        rets = m + rng.standard_normal((n_paths, model.d)) @ chol.T
        pi = p + (V - wealth)[:, None] * a
        wealth = wealth + np.sum(pi * rets, axis=1)
    sq = (wealth - 1.0) ** 2
    return float(np.mean(sq)), float(np.std(sq, ddof=1) / np.sqrt(n_paths))


def _pooled(results):
    """Mean of per-seed estimates and its standard error."""
    est, se = np.array(results).T
    return float(np.mean(est)), float(np.sqrt(np.sum(se**2)) / len(se))


def _pair_law_rows(kind):
    """Rows P (64, 2, 4), mean m and covariance S of a ``_pair_law`` case."""
    rng = np.random.default_rng(21)
    d, K = 4, 64
    G = rng.normal(size=(d, d))
    if kind == "rank-deficient":
        G[:, 3] = G[:, 1]  # asset 3 duplicates asset 1
        G[:, 2] = 0.0
    S = G.T @ G if kind != "zero" else np.zeros((d, d))
    m = rng.normal(size=d)
    P = rng.normal(size=(K, 2, d))
    if kind == "rank-one":
        P[:, 1] = P[:, 0] * rng.normal(size=(K, 1))
    elif kind == "zero beta row":
        # zero drift: alpha is random, beta's row and the triangle's q, r are 0
        model = models.IidDiscreteModel(
            np.zeros(2), np.array([[1e-2, 2e-3], [2e-3, 4e-2]]), 3
        )
        values, coeffs = closed_form_values(model)
        a = coeffs.a
        P = np.stack([-a, coeffs.xi + values.V[:-1, None] * a], axis=1)
        m, S = model.mu, model.sigma
        assert not P[:, 1].any() and P[:, 0].any()
    elif kind == "negative-eigenvalue":
        # symmetric_psd accepts an eigenvalue down to -psd_tol * trace:
        # alpha's row along one of -1e-13 has the variance -1e-13, which
        # is clipped to 0, so p = q = 0 and r^2 is beta's variance.
        Q = np.linalg.qr(G)[0]
        S = (Q * np.array([-1e-13, 1.0, 2.0, 3.0])) @ Q.T
        P[:, 0] = Q[:, 0]
        models.IidDiscreteModel(m * 0.01, S, 1)  # accepted as PSD
    return P, m, S


def _pair_law_checked(P, m, S):
    """``_pair_law(P, m, S)`` with warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return oracle._pair_law(P, m, S)


class TestPairLawSampler:
    @pytest.mark.parametrize(
        "kind",
        ["random", "rank-deficient", "zero", "rank-one", "zero beta row",
         "negative-eigenvalue"],
    )
    def test_pair_law_reproduces_projected_covariance(self, kind):
        # The triangle (p, q, r) of each step gives back P S P' as
        # [[p^2, p q], [p q, q^2 + r^2]].
        P, m, S = _pair_law_rows(kind)
        m0, m1, p, q, r2 = _pair_law_checked(P, m, S)
        cov = np.einsum("kia,ab,kjb->kij", P, S, P)
        exact_mean = np.einsum("kia,a->ki", P, m)
        for got, want in ((m0, exact_mean[:, 0]), (m1, exact_mean[:, 1])):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(exact_mean).max()
        if kind == "negative-eigenvalue":
            assert np.all(cov[:, 0, 0] < 0.0)
            assert not p.any() and not q.any()
            assert np.all(np.abs(r2 - cov[:, 1, 1]) <= 1e-14 * cov[:, 1, 1])
            return
        assert np.all(r2 >= 0.0)
        tri = np.stack([[p * p, p * q], [p * q, q * q + r2]]).transpose(2, 0, 1)
        gap = np.abs(tri - cov).max(axis=(1, 2))
        assert np.all(gap <= 1e-14 * np.abs(cov).max(axis=(1, 2)))
        if kind == "zero":
            assert not np.any([p, q, r2])
        if kind == "zero beta row":
            assert p.all() and not q.any() and not r2.any()

    @pytest.mark.parametrize(
        "kind", ["random", "rank-one", "zero beta row", "rank-deficient", "zero"]
    )
    def test_triangular_form_is_the_conditional_variance(self, kind):
        # (p w + q)^2 + r^2 = Var(alpha w + beta) = w^2 C00 + 2 w C10 + C11
        # for every w, with C = P S P' the covariance of (alpha, beta).
        P, m, S = _pair_law_rows(kind)
        _, _, p, q, r2 = _pair_law_checked(P, m, S)
        cov = np.einsum("kia,ab,kjb->kij", P, S, P)
        root = np.sqrt(np.abs(cov[:, [0, 1], [0, 1]]))
        for w in np.random.default_rng(43).normal(size=20) * 3.0:
            exact = w * w * cov[:, 0, 0] + 2.0 * w * cov[:, 1, 0] + cov[:, 1, 1]
            # relative to (|w| sqrt(C00) + sqrt(C11))^2: where p w + q nearly
            # cancels, both sides round at that scale
            scale = (abs(w) * root[:, 0] + root[:, 1]) ** 2
            assert np.all(np.abs((p * w + q) ** 2 + r2 - exact) <= 1e-14 * scale)

    def test_kernel_matches_per_path_rollout(self, discrete_benchmark, monkeypatch):
        # Blocks of 64 paths, on the IID law (4 steps) and on a two-segment
        # Euler grid (6 + 14 steps); every path's terminal wealth must agree
        # bit for bit.  The statistics folded block by block differ from
        # np.mean and np.std(ddof=1) over the whole vector only in the order
        # of summation.  A block of size paths draws max(1, 64 // size) steps
        # per chunk:
        # - 150 paths: blocks 64, 64, 22, so the last block draws 2 steps;
        # - 21 paths: one block drawing 3 steps, the last chunk partial;
        # - 149 paths: blocks 64, 64, 21, the last with partial chunks.
        # Laws of 7 steps cut the draw chunks and the segment boundary too,
        # and each block rebuilds the tables of the chunks it rolls through.
        monkeypatch.setattr(oracle, "_RNG_BLOCK", 64)
        rng = np.random.default_rng(13)
        segments = []
        for duration in (0.6, 1.4):
            G = rng.normal(size=(2, 2)) * 0.3
            segments.append((duration, rng.normal(size=2) * 0.05, G @ G.T))
        ito = models.PiiItoModel(segments)
        v, seed = 0.3, 8
        for law_steps in (oracle._LAW_STEPS, 7):
            monkeypatch.setattr(oracle, "_LAW_STEPS", law_steps)
            for model, step in ((discrete_benchmark, None), (ito, 0.1)):
                values, coeffs = closed_form_values(model)
                if step is None:
                    law = oracle._iid_law(model, coeffs, values)
                else:
                    law = oracle._pii_law(model, coeffs, values, step)
                for n_paths in (150, 21, 149):
                    wealth = _rollout(law, v, n_paths, seed, 64)
                    kernel = _kernel_wealth(*law, v, n_paths, seed)
                    assert np.array_equal(kernel, wealth)
                    report = mc_simulate(
                        model, coeffs, values, None, v, n_paths, seed, step=step
                    )
                    errors = wealth - 1.0
                    sq = errors**2
                    folded = (
                        (report.error_mean, np.mean(errors)),
                        (report.error_second_moment, np.mean(sq)),
                        (report.std_error, np.std(sq, ddof=1) / np.sqrt(n_paths)),
                    )
                    for got, want in folded:
                        assert abs(got - want) <= 1e-14 * abs(want), (got, want)

    def test_deterministic_alpha_rolls_finite(self):
        # A deterministic alpha has p = 0, so q = 0 and r^2 = |f1|^2 for beta's
        # square root f1: each step adds |f1| z to m0 w + m1.
        rng = np.random.default_rng(47)
        n_steps, n_paths, v, seed = 9, 70, 0.4, 6
        mean = np.column_stack([1.0 + rng.normal(size=n_steps) * 0.01,
                                rng.normal(size=n_steps) * 0.01])
        f1 = rng.normal(size=(n_steps, 2)) * 0.1
        zero = np.zeros(n_steps)
        table = np.vstack([mean.T, zero, zero, (f1**2).sum(axis=1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wealth = _kernel_wealth(
                n_steps, lambda k0, k1: table[:, k0:k1], v, n_paths, seed
            )
        z = _block_rng(seed, 0).standard_normal((n_steps, n_paths))
        expected = np.full(n_paths, v)
        for (m0, m1), fk, zk in zip(mean, f1, z):
            expected = m0 * expected + m1 + math.hypot(*fk) * zk
        assert np.all(np.isfinite(wealth))
        assert np.allclose(wealth, expected, rtol=1e-14, atol=0.0)

    def test_one_normal_per_path_step(
        self, discrete_benchmark, ito_benchmark, monkeypatch
    ):
        # 20000 paths make a full block and a partial one; every draw is counted.
        drawn, block_rng = [], oracle._block_rng

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                drawn.append(out.size)
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(
            oracle, "_block_rng", lambda seed, block: Counting(block_rng(seed, block))
        )
        n_paths = 20_000
        for model, step in ((discrete_benchmark, None), (ito_benchmark, 0.05)):
            values, coeffs = closed_form_values(model)
            if step is None:
                n_steps = oracle._iid_law(model, coeffs, values)[0]
            else:
                n_steps = oracle._pii_law(model, coeffs, values, step)[0]
            drawn.clear()
            mc_simulate(model, coeffs, values, None, 0.3, n_paths, 2, step=step)
            assert sum(drawn) == n_paths * n_steps

    def test_euler_grid_slices_match_linspace(self):
        # Each chunk of the Euler law reads a slice of the step table: step j
        # of segment i runs between points j and j + 1 of its linspace grid.
        rng = np.random.default_rng(23)
        for _ in range(50):
            counts = rng.integers(1, 200, size=int(rng.integers(1, 6)))
            widths = rng.exponential(2.0, len(counts))
            bounds = np.cumsum(np.append(rng.uniform(-3.0, 3.0), widths))
            starts = np.concatenate([[0], np.cumsum(counts)])
            grids = [
                np.linspace(*bounds[i : i + 2], n + 1) for i, n in enumerate(counts)
            ]
            table = (
                np.repeat(np.arange(len(counts)), counts),
                np.concatenate([g[:-1] for g in grids]),
                np.concatenate([np.diff(g) for g in grids]),
            )
            k0 = int(rng.integers(0, starts[-1]))
            k1 = int(rng.integers(k0 + 1, starts[-1] + 1))
            for lo, hi in ((k0, k1), (0, starts[-1])):
                steps = oracle._euler_steps(bounds, counts, starts, lo, hi)
                for got, want in zip(steps, table):
                    assert np.array_equal(got, want[lo:hi])

    def test_pooled_estimates_match_full_dimensional_reference(
        self, discrete_benchmark, ito_benchmark
    ):
        # 32 seeds of 4096 paths each.  The IID estimates must also match the
        # analytic error; the Euler scheme's law differs from the continuous
        # one, so the Ito kernel is compared with the reference only.
        n_paths, seeds = 4096, range(32)
        for model, step in ((discrete_benchmark, None), (ito_benchmark, 0.05)):
            values, coeffs = closed_form_values(model)
            v = values.V0
            kernel = _pooled([
                (r.error_second_moment, r.std_error)
                for r in (
                    mc_simulate(model, coeffs, values, None, v, n_paths, s, step=step)
                    for s in seeds
                )
            ])
            reference = _pooled([
                _reference_simulate(model, coeffs, values, v, n_paths, 1000 + s, step)
                for s in seeds
            ])
            se = np.hypot(kernel[1], reference[1])
            assert abs(kernel[0] - reference[0]) <= 4.0 * se, (kernel, reference)
            if step is None:
                analytic = engine.hedging_error(values, v)
                assert abs(kernel[0] - analytic) <= 4.0 * kernel[1]
                assert abs(reference[0] - analytic) <= 4.0 * reference[1]

    def test_simulates_the_strategy_it_is_handed(self, ito_benchmark):
        # A zero strategy never trades, so every path ends at its initial
        # wealth; the simulator must not re-solve the model's own strategy.
        values, coeffs = closed_form_values(ito_benchmark)
        zero = engine.HedgeCoefficients(
            np.zeros_like(coeffs.a), np.zeros_like(coeffs.xi), np.zeros_like(coeffs.zeta)
        )
        report = mc_simulate(ito_benchmark, zero, values, None, 0.25, 100, 3, step=0.5)
        assert report.error_mean == -0.75
        assert report.error_second_moment == 0.5625

    def test_underflowed_tracking_process_simulates(self):
        # log V(t) = -(2400 - t) / 2: V underflows to 0 at the first two
        # boundaries (log V = -1200 and -800) but not at the third (-400).
        b = np.array([0.33, -0.33])
        model = models.PiiItoModel([(800.0, b, np.eye(2))] * 3)
        values, coeffs = closed_form_values(model)
        assert values.V[0] == 0.0 and values.V[1] == 0.0 < values.V[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = mc_simulate(
                model, coeffs, values, None, 0.0, 4000, 19, step=2.4
            )
        analytic = engine.hedging_error(values, 0.0)
        assert abs(report.error_second_moment - analytic) < 0.05 * (1 + analytic)


class TestStepLaw:
    """The kernel's (alpha, beta) law against its exact forward moments."""

    def test_iid_forward_moments_are_the_hedging_error(self):
        rng = np.random.default_rng(31)
        G = rng.normal(size=(3, 3)) * 0.1
        random_model = models.IidDiscreteModel(
            rng.normal(size=3) * 0.0003, G @ G.T, 1000
        )
        shipped = models.load_config(CONFIGS / "iid_3assets_t4.json")[0]
        for model in (shipped, random_model):
            values, coeffs = closed_form_values(model)
            law = oracle._iid_law(model, coeffs, values)
            for v in (0.0, 0.3, 1.0):
                exact = engine.hedging_error(values, v)
                assert abs(_forward_error(law, v) - exact) <= 1e-12 * exact

    def test_ito_simulation_matches_its_euler_law(self):
        model = models.load_config(CONFIGS / "pii_4assets_t5.json")[0]
        values, coeffs = closed_form_values(model)
        law = oracle._pii_law(model, coeffs, values, 0.05)
        v = values.V0
        report = mc_simulate(model, coeffs, values, None, v, 40_000, 0, step=0.05)
        forward = _forward_error(law, v)
        assert abs(report.error_second_moment - forward) <= 4.0 * report.std_error

    def test_ito_euler_law_converges_to_the_hedging_error(self):
        model = models.load_config(CONFIGS / "pii_4assets_t5.json")[0]
        values, coeffs = closed_form_values(model)
        for v in (0.0, 1.0):
            exact = engine.hedging_error(values, v)
            coarse, fine = (
                abs(_forward_error(oracle._pii_law(model, coeffs, values, h), v) - exact)
                for h in (0.05, 0.005)
            )
            # first order in the step: about tenfold for a tenfold smaller step
            assert 8.0 < coarse / fine < 12.0, (coarse, fine)

    def test_ito_law_factors_once_per_build(self, monkeypatch):
        rng = np.random.default_rng(37)
        segments = []
        for duration in (0.4, 1.1, 0.7):
            G = rng.normal(size=(3, 3)) * 0.3
            segments.append((duration, rng.normal(size=3) * 0.05, G @ G.T))
        model = models.PiiItoModel(segments)
        values, coeffs = closed_form_values(model)
        calls, pair_law = [], oracle._pair_law

        def spy(P, m, S):
            calls.append(len(P))
            return pair_law(P, m, S)

        monkeypatch.setattr(oracle, "_pair_law", spy)
        monkeypatch.setattr(oracle, "_LAW_STEPS", 7)
        mc_simulate(model, coeffs, values, None, 0.3, 50, 4, step=0.05)
        assert calls == [3]

    def test_ito_law_scales_each_segments_triangle(self):
        # Substep k of segment i, of length dt and starting at V, has the rows
        # [-a_i; V (zeta_i + a_i)] and log returns N(b_i dt, c_i dt); the law
        # scales segment i's one triangle instead of building this one.
        rng = np.random.default_rng(37)
        segments = []
        for duration in (0.4, 1.1, 0.7):
            G = rng.normal(size=(3, 3)) * 0.3
            segments.append((duration, rng.normal(size=3) * 0.05, G @ G.T))
        model = models.PiiItoModel(segments)
        values, coeffs = closed_form_values(model)
        n_steps, law = oracle._pii_law(model, coeffs, values, 0.05)
        rows, means, covs = [], [], []
        for i, seg in enumerate(model.segments):
            t_i, t_j = values.times[i], values.times[i + 1]
            edges = np.linspace(t_i, t_j, round((t_j - t_i) / 0.05) + 1)
            log_v = np.log(values.V[i : i + 2])
            for t0, dt in zip(edges[:-1], np.diff(edges)):
                s = (t0 - t_i) / (t_j - t_i)
                V = np.exp(log_v[0] + s * (log_v[1] - log_v[0]))
                a = coeffs.a[i]
                rows.append([-a, V * (coeffs.zeta[i] + a)])
                means.append(seg.b * dt)
                covs.append(seg.c * dt)
        want = oracle._pair_law(np.array(rows), np.array(means), np.array(covs))
        want[0] += 1.0
        got = law(0, n_steps)
        assert got.shape == want.shape == (5, 44)
        # r^2 = C11 - q^2 cancels, so both sides round at beta's variance C11
        scale = np.abs(want)
        scale[4] = want[3] ** 2 + want[4]
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_subnormal_boundary_tracking_keeps_full_precision(self):
        # log V(t) = -(1450 - t) / 2, so V(0) = exp(-725) is subnormal
        # (1.4e-315).  Each substep's mean of beta is V(t) (zeta_i + a_i).b dt,
        # with log V linear in t on each segment and 0 at the horizon; it is
        # compared wherever it is a normal float, so carries full precision.
        b = np.array([0.33, -0.33])
        model = models.PiiItoModel([(650.0, b, np.eye(2)), (800.0, b, np.eye(2))])
        values, coeffs = closed_form_values(model)
        assert 0.0 < values.V[0] < np.finfo(float).tiny
        n_steps, law = oracle._pii_law(model, coeffs, values, 2.5)
        beta_mean = law(0, n_steps)[1]
        a, zeta, horizon = coeffs.a, coeffs.zeta, values.times[-1]
        slopes = [a[i] @ a[i] - a[i] @ b for i in range(2)]
        expected = []
        for i, (t0, t1) in enumerate(zip(values.times[:-1], values.times[1:])):
            edges = np.linspace(t0, t1, round((t1 - t0) / 2.5) + 1)
            rest = slopes[1] * (horizon - t1) if i == 0 else 0.0
            log_v = -(rest + slopes[i] * (t1 - edges[:-1]))
            expected.append(np.exp(log_v) * ((zeta[i] + a[i]) @ b) * np.diff(edges))
        expected = np.concatenate(expected)
        assert len(beta_mean) == len(expected) == 580
        normal = np.abs(expected) >= np.finfo(float).tiny
        gap = np.abs(beta_mean[normal] - expected[normal])
        assert np.all(gap <= 1e-12 * np.abs(expected[normal]))

    def test_chunks_span_many_segments(self):
        # 300 segments of one substep each: a chunk of 7 steps crosses 7
        # segments, and the chunked law is the one-piece law bit for bit.
        rng = np.random.default_rng(41)
        segments = []
        for _ in range(300):
            G = rng.normal(size=(2, 2)) * 0.3
            duration = float(rng.uniform(0.01, 0.1))
            segments.append((duration, rng.normal(size=2) * 0.05, G @ G.T))
        model = models.PiiItoModel(segments)
        values, coeffs = closed_form_values(model)
        n_steps, law = oracle._pii_law(model, coeffs, values, 1.0)
        assert n_steps == 300
        whole = law(0, n_steps)
        chunks = [law(k0, min(n_steps, k0 + 7)) for k0 in range(0, n_steps, 7)]
        for part, full in zip(zip(*chunks), whole):
            assert np.array_equal(np.concatenate(part), full)


class TestEnumeration:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        tree = make_tree(rng, n_assets=2, periods=3)
        claim = random_claim(rng, tree)
        sol = tree_backward(tree, claim)
        probs, wealth, payoff = enumerate_terminal_wealth(tree, sol, 0.2)
        assert abs(probs.sum() - 1.0) < 1e-12
        err2 = probs @ (wealth - payoff) ** 2
        assert abs(err2 - engine.hedging_error(sol, 0.2)) < 1e-10
