import json
import tracemalloc

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
from mvhedge.models import Claim
from mvhedge.oracle import (
    _block_rng,
    dp_solve,
    enumerate_terminal_wealth,
    mc_simulate,
    numeraire_change_check,
)


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
        assert abs(report.error_second_moment - dp_solve(tree, claim, v).objective) < 1e-10

    def test_tree_sampling_approaches_enumeration(self):
        rng = np.random.default_rng(6)
        tree = make_tree(rng, n_assets=2, periods=2)
        claim = random_claim(rng, tree)
        sol = tree_backward(tree, claim)
        exact = mc_simulate(tree, sol, None, claim, 0.1, 10, seed=3)
        with pytest.warns(UserWarning, match="sampling"):
            sampled = mc_simulate(
                tree, sol, None, claim, 0.1, 4000, seed=3, exhaustive=False
            )
        assert not sampled.exact
        gap = abs(sampled.error_second_moment - exact.error_second_moment)
        assert gap < 6 * sampled.std_error + 1e-12

    def test_tree_sampling_matches_per_path_rollout(self):
        # Reference: roll the feedback rule along each sampled path, one node
        # at a time, with the sampler's Philox uniforms (one row per level,
        # one column per path): a path moves to the first child whose share
        # of the cumulative branch probability exceeds its draw.  The sampler
        # must reproduce it bit for bit.
        rng = np.random.default_rng(11)
        tree = make_tree(rng, n_assets=3, periods=3)
        claim = random_claim(rng, tree)
        sol = tree_backward(tree, claim)
        v, n_paths, seed = 0.2, 300, 4
        errors = []
        draws = _block_rng(seed, 0).random((len(tree.levels), n_paths))
        for path in range(n_paths):
            pos, wealth = 0, v
            for u in draws[:, path]:
                pi = sol.xi[pos] + (sol.V[pos] - wealth) * sol.a[pos]
                kids = np.flatnonzero(tree.parent == pos)
                share = np.cumsum(tree.prob[kids]) / tree.prob[kids].sum()
                pos = int(kids[min(np.sum(share <= u), len(kids) - 1)])
                wealth += float(pi @ tree.rets[pos])
            errors.append(wealth - claim.value_at(tree.ids[pos]))
        errors = np.array(errors)
        with pytest.warns(UserWarning, match="sampling"):
            sampled = mc_simulate(
                tree, sol, None, claim, v, n_paths, seed=seed, exhaustive=False
            )
        assert sampled.error_mean == float(np.mean(errors))
        assert sampled.error_second_moment == float(np.mean(errors**2))

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

    def test_long_horizon_draws_in_bounded_memory(self, tmp_path, monkeypatch, capsys):
        # One block of 600 paths over 2000 periods holds 2.4e6 normals (19 MB
        # per array, three arrays); drawn in path chunks it needs a fraction,
        # and the chunks continue one stream, so the report is unchanged.
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
        chunked = capsys.readouterr().out
        monkeypatch.setattr(oracle, "_DRAW_FLOATS", 1 << 62)
        assert main(argv) == 0
        assert capsys.readouterr().out == chunked

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
