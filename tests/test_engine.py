import numpy as np
import pytest

from conftest import (
    complete_binomial_tree,
    make_tree,
    mixed_tree,
    moment_matched_tree,
    random_claim,
    tree_dict,
    with_duplicated_asset,
)
from mvhedge import models, qp
from mvhedge.engine import (
    LocalArbitrageError,
    adjustment,
    adjustment_explicit,
    closed_form_values,
    hedging_error,
    myopic_minvar,
    tree_backward,
)
from mvhedge.linalg import pinv
from mvhedge.models import Claim
from perfbench.workloads import random_tree


def restricted_pinv(c, d):
    ones = np.ones(d)
    m = np.eye(d) - np.outer(ones, ones) / d
    return pinv(m @ c @ m)


class TestAdjustment:
    def test_single_asset_forced(self):
        a, nb = adjustment(np.array([0.05]), np.array([[0.1]]))
        assert np.allclose(a, [-1.0], atol=1e-14)
        assert nb.shape[1] == 0

    def test_benchmark_values(self, discrete_benchmark):
        b, c = discrete_benchmark.log_characteristics(0)
        a, _ = adjustment(b, c)
        assert np.allclose(a, [-6.9144, 1.6238, 4.2907], atol=5e-5)
        target = 3030887.0 / 4082435.0
        assert abs((1.0 - a @ b) - target) <= 1e-12 * target

    def test_ito_benchmark_values(self, ito_benchmark):
        b, c = ito_benchmark.log_characteristics(0.0)
        a, _ = adjustment(b, c)
        assert np.allclose(a, [-0.1172, 0.0852, -0.3132, -0.6548], atol=5e-5)
        assert abs(a @ c @ a - 0.08405358) < 5e-9
        assert abs(a @ b - (-0.03762131)) < 5e-9

    def test_full_investment_constraint(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            G = rng.normal(size=(d, d))
            c = G @ G.T
            b = rng.normal(size=d) * 0.1
            a, nb = adjustment(b, c)
            assert abs(a.sum() + 1.0) < 1e-10
            for j in range(nb.shape[1]):
                assert abs(nb[:, j].sum()) < 1e-9
                assert np.abs(c @ nb[:, j]).max() < 1e-9

    def test_arbitrage_detected_with_certificate(self):
        b = np.array([0.1, 0.2])
        c = np.zeros((2, 2))
        with pytest.raises(LocalArbitrageError) as err:
            adjustment(b, c)
        assert "no-arbitrage" in str(err.value)
        y = err.value.certificate
        assert abs(y.sum()) < 1e-12
        assert y @ b > 0


class TestAdjustmentExplicit:
    def test_spanned_branch_matches_generic(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            G = rng.normal(size=(d, d))
            c = G @ G.T  # full rank: ones always spanned
            b = rng.normal(size=d) * 0.1
            ex = adjustment_explicit(b, c)
            assert ex.riskfree_rate is None
            a, _ = adjustment(b, c)
            assert np.abs(ex.a - a).max() < 1e-10

    def test_riskfree_branch_matches_generic(self):
        from subspaces import subspace_complement

        rng = np.random.default_rng(2)
        for _ in range(25):
            d = 4
            # rank-2 risk with the fully invested direction outside the range
            basis = subspace_complement(np.ones((d, 1)))[:, :2]
            c = basis @ np.diag([1.3, 0.6]) @ basis.T
            b = c @ rng.normal(size=d) + 0.02 * np.ones(d)
            ex = adjustment_explicit(b, c)
            assert ex.riskfree_rate is not None
            assert abs(ex.weight.sum() - 1.0) < 1e-10
            assert abs(ex.riskfree_rate - ex.weight @ b) < 1e-12
            a, _ = adjustment(b, c)
            assert np.abs(ex.a - a).max() < 1e-9
            assert abs(ex.a.sum() + 1.0) < 1e-10

    def test_all_assets_riskless(self):
        d = 3
        r = 0.04
        ex = adjustment_explicit(r * np.ones(d), np.zeros((d, d)))
        assert ex.riskfree_rate is not None
        assert abs(ex.riskfree_rate - r) < 1e-14
        assert abs(ex.a.sum() + 1.0) < 1e-14

    def test_arbitrage_raises_like_adjustment(self):
        b, c = np.array([0.1, 0.2]), np.zeros((2, 2))
        with pytest.raises(LocalArbitrageError) as generic:
            adjustment(b, c)
        with pytest.raises(LocalArbitrageError) as err:
            adjustment_explicit(b, c)
        assert str(err.value) == str(generic.value)
        y = err.value.certificate
        assert np.array_equal(y, generic.value.certificate)
        assert abs(y.sum()) < 1e-12
        assert y @ b > 0

    @pytest.mark.parametrize(
        "c", [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]]
    )
    def test_invalid_covariance_rejected(self, c):
        with pytest.raises(qp.InvalidProblemError):
            adjustment(np.array([0.1, 0.2]), c)
        with pytest.raises(qp.InvalidProblemError):
            adjustment_explicit(np.array([0.1, 0.2]), c)

    @staticmethod
    def _degenerate_market(rng, kind, d=None):
        """A market of d assets (drawn from 2..5 if None) whose risky
        eigenvalues lie in [0.1, 2], plus a riskless asset 0, rounding-level
        null directions, or a c[0, 0] in 1e-16..1e-8."""
        d = int(rng.integers(2, 6)) if d is None else d
        if kind == "rank-deficient":
            k = int(rng.integers(1, d))
            Q, _ = np.linalg.qr(rng.normal(size=(d, k)))
            c = (Q * rng.uniform(0.1, 2.0, size=k)) @ Q.T
            return c @ rng.normal(size=d) * 0.1 + rng.normal() * 0.05, c
        Q, _ = np.linalg.qr(rng.normal(size=(d - 1, d - 1)))
        c = np.zeros((d, d))
        c[1:, 1:] = (Q * rng.uniform(0.1, 2.0, size=d - 1)) @ Q.T
        if kind == "near-riskless":
            c[0, 0] = 10.0 ** rng.uniform(-16, -8)
        return rng.normal(size=d) * 0.1, c

    def test_degenerate_markets_match_generic(self):
        # Worst measured gaps relative to 1 + max|a|, 40 markets of each kind:
        # 1.4e-15 riskless, 1.3e-13 rank-deficient, 7.2e-15 near-riskless
        # (margin 775).  Risky eigenvalues stay in [0.1, 2], because the gap
        # between two stable solvers grows with the conditioning of c.
        rng = np.random.default_rng(23)
        for kind in ["riskless", "rank-deficient", "near-riskless"] * 40:
            b, c = self._degenerate_market(rng, kind)
            a, _ = adjustment(b, c)
            ex = adjustment_explicit(b, c)
            assert np.abs(ex.a - a).max() <= 1e-10 * (1.0 + np.abs(a).max())
            assert abs(ex.weight.sum() - 1.0) < 1e-10

    def test_small_and_large_scales_match_generic(self):
        # a does not depend on a common scale of (b, c), also below 1e-154,
        # where the projector's column norms would overflow unscaled.
        b, c = np.array([1.0, 2.0]), np.array([[1.0, 0.2], [0.2, 1.0]])
        for scale in 10.0 ** np.arange(-300, 151, 25):
            a, _ = adjustment(scale * b, scale * c)
            ex = adjustment_explicit(scale * b, scale * c)
            assert np.abs(ex.a - a).max() <= 1e-14
            assert abs(ex.a.sum() + 1.0) <= 1e-14


class TestMyopicMinVar:
    def test_ito_benchmark(self, ito_benchmark):
        b, c = ito_benchmark.log_characteristics(0.0)
        zeta = myopic_minvar(b, c)
        assert np.allclose(zeta, [0.1745, -0.0799, 0.3605, 0.5450], atol=5e-5)
        assert abs(zeta @ c @ zeta - 0.06865944) < 5e-9

    def test_identity_covariance(self):
        zeta = myopic_minvar(np.zeros(2), np.eye(2))
        assert np.allclose(zeta, [0.5, 0.5], atol=1e-12)

    def test_riskless_asset_picked(self):
        c = np.diag([0.3, 0.0])
        zeta = myopic_minvar(np.array([0.1, 0.02]), c)
        assert np.allclose(zeta, [0.0, 1.0], atol=1e-12)
        assert abs(zeta @ c @ zeta) < 1e-14

    def test_variance_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            G = rng.normal(size=(d, int(rng.integers(1, d + 1))))
            c = G @ G.T
            b = c @ rng.normal(size=d) + 0.01 * np.ones(d)
            zeta = myopic_minvar(b, c)
            a, _ = adjustment(b, c)
            p = restricted_pinv(c, d)
            lhs = zeta @ c @ zeta
            rhs = a @ c @ a - b @ p @ b
            assert abs(lhs - rhs) < 1e-10
            assert abs(zeta.sum() - 1.0) < 1e-10


class TestClosedFormDiscrete:
    def test_benchmark_values(self, discrete_benchmark):
        values, coeffs = closed_form_values(discrete_benchmark)
        assert abs(values.L0 - 0.57571) < 5e-6
        assert abs(values.L0 * values.V0 - 0.30381) < 5e-6
        assert abs(values.eps2_0 - 0.024179) < 5e-7
        assert values.L[-1] == 1.0 and values.eps2[-1] == 0.0
        # geometric decay of both processes
        growth = 14224270253.0 / 16329740000.0
        assert np.allclose(values.L, growth ** np.arange(4, -1, -1), rtol=1e-12)

    def test_coefficient_constraints(self, discrete_benchmark):
        values, coeffs = closed_form_values(discrete_benchmark)
        T = discrete_benchmark.n_periods
        for t in range(T):
            assert abs(coeffs.a[t].sum() + 1.0) < 1e-10
            assert abs(coeffs.xi[t].sum() - values.V[t]) < 1e-10
            assert abs(coeffs.zeta[t].sum() - 1.0) < 1e-10

    def test_deterministic_riskless_market(self):
        r = 0.03
        model = models.IidDiscreteModel(r * np.ones(2), np.zeros((2, 2)), 3)
        values, _ = closed_form_values(model)
        assert abs(values.L0 - (1 + r) ** 6) < 1e-12
        assert abs(values.V0 - (1 + r) ** -3) < 1e-12
        assert abs(values.eps2_0) < 1e-14

    def test_riskless_asset_error_is_never_negative(self):
        # The claim 1 is replicated with a riskless asset, so eps2 is 0 up to
        # rounding, which must not make it negative (1 - b'pb - ratio reached
        # -2.8e-14 on these markets).  Largest measured: 9.2e-26.
        rng = np.random.default_rng(24)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            G = 0.1 * rng.normal(size=(d - 1, d - 1))
            sigma = np.zeros((d, d))
            sigma[1:, 1:] = G @ G.T
            r = rng.uniform(0.0, 0.05)
            mu = np.concatenate([[r], 0.1 * rng.normal(size=d - 1)])
            model = models.IidDiscreteModel(mu, sigma, int(rng.integers(1, 6)))
            eps2 = closed_form_values(model).values.eps2
            assert eps2.min() >= 0.0
            assert eps2.max() <= 1e-20

    def test_deterministic_arbitrage_rejected(self):
        model = models.IidDiscreteModel(
            np.array([0.1, 0.2]), np.zeros((2, 2)), 2
        )
        with pytest.raises(LocalArbitrageError):
            closed_form_values(model)


class TestClosedFormIto:
    def test_benchmark_values(self, ito_benchmark):
        values, coeffs = closed_form_values(ito_benchmark)
        assert abs(values.L0 - 2.21772301) < 1e-8
        assert abs(values.L0 * values.V0 - 1.20696211) < 1e-8
        assert abs(values.eps2_0 - 0.28028620) < 1e-8
        # pure hedge is the tracking value times the myopic portfolio
        b, c = ito_benchmark.log_characteristics(0.0)
        zeta = myopic_minvar(b, c)
        assert np.abs(coeffs.xi[0] - values.V[0] * zeta).max() < 1e-12

    def test_piecewise_segments_integrate_exactly(self, ito_benchmark):
        # Splitting the single segment in two must not change anything.
        b, c = ito_benchmark.log_characteristics(0.0)
        split = models.PiiItoModel([(2.0, b, c), (3.0, b, c)])
        v1, _ = closed_form_values(ito_benchmark)
        v2, _ = closed_form_values(split)
        assert abs(v1.L0 - v2.L0) < 1e-12
        assert abs(v1.V0 - v2.V0) < 1e-12
        assert abs(v1.eps2_0 - v2.eps2_0) < 1e-12

    def test_heterogeneous_segments_match_quadrature(self):
        # Independent check of the segment bookkeeping: brute-force quadrature
        # of the defining integrals on a fine grid.
        rng = np.random.default_rng(12)
        segments = []
        for duration in (0.7, 1.8, 0.5):
            G = rng.normal(size=(3, 3))
            c = G @ G.T
            b = rng.normal(size=3) * 0.1
            segments.append((duration, b, c))
        model = models.PiiItoModel(segments)
        values, _ = closed_form_values(model)

        rate_L, rate_LV, rate_err, var_rate, bounds = [], [], [], [], [0.0]
        for duration, b, c in segments:
            a, _ = adjustment(b, c)
            zeta = myopic_minvar(b, c)
            ab, aca = float(a @ b), float(a @ c @ a)
            rate_L.append(-2 * ab + aca)
            rate_LV.append(-ab)
            rate_err.append(aca)
            var_rate.append(float(zeta @ c @ zeta))
            bounds.append(bounds[-1] + duration)
        bounds = np.array(bounds)
        horizon = bounds[-1]

        def seg_at(t):
            return min(np.searchsorted(bounds, t, side="right") - 1, len(segments) - 1)

        grid = np.linspace(0.0, horizon, 60001)
        h = grid[1] - grid[0]
        idx = np.array([seg_at(t) for t in grid[:-1]])

        tail = lambda rates: np.concatenate(
            [np.cumsum((np.array(rates)[idx] * h)[::-1])[::-1], [0.0]]
        )
        int_L = tail(rate_L)
        int_err = tail(rate_err)
        # grid points that hit segment boundaries carry the exact integrals
        for j, t in enumerate(bounds):
            g = int(round(t / h))
            assert abs(values.L[j] - np.exp(int_L[g])) < 1e-9
        # midpoint rule on each cell (the rates are constant within cells)
        err_rates = np.array(rate_err)[idx]
        int_err_mid = int_err[:-1] - err_rates * h / 2.0
        integrand = np.array(var_rate)[idx] * np.exp(-int_err_mid)
        eps2_quad = float(np.sum(integrand * h))
        assert abs(values.eps2_0 - eps2_quad) < 1e-7 * (1 + values.eps2_0)

    def test_spanned_special_case_formulas(self):
        # With ones in Ran(c) the closed forms reduce to expressions in c^{-1}.
        rng = np.random.default_rng(5)
        d = 3
        G = rng.normal(size=(d, d))
        c = G @ G.T
        b = rng.normal(size=d) * 0.1
        model = models.PiiItoModel([(2.0, b, c)])
        values, _ = closed_form_values(model)
        ci = np.linalg.inv(c)
        ones = np.ones(d)
        denom = ones @ ci @ ones
        lrate = (1 + b @ ci @ ones) ** 2 / denom - b @ ci @ b
        vrate = (1 + b @ ci @ ones) / denom
        assert abs(values.L0 - np.exp(2.0 * lrate)) < 1e-10
        assert abs(values.V0 - np.exp(-2.0 * vrate)) < 1e-10
        # the error rate of the integral form is the myopic variance 1/(1'c^{-1}1)
        zeta = myopic_minvar(b, c)
        assert abs(zeta @ c @ zeta - 1.0 / denom) < 1e-12

    def test_riskfree_special_case(self):
        # ones outside Ran(c): exact risk-free rate, zero hedging error.
        from subspaces import subspace_complement

        rng = np.random.default_rng(6)
        d = 3
        basis = subspace_complement(np.ones((d, 1)))
        c = basis @ np.diag([0.8, 0.5]) @ basis.T
        b = c @ rng.normal(size=d) + 0.04 * np.ones(d)
        model = models.PiiItoModel([(2.0, b, c)])
        values, _ = closed_form_values(model)
        r = adjustment_explicit(b, c).riskfree_rate
        assert abs(values.eps2_0) < 1e-12
        assert abs(values.V0 - np.exp(-2.0 * r)) < 1e-12
        ci = pinv(c)
        excess = b - r * np.ones(d)
        assert abs(values.L0 - np.exp(2.0 * (2 * r - excess @ ci @ excess))) < 1e-10

    def test_single_riskless_asset(self):
        r = 0.05
        model = models.PiiItoModel([(4.0, [r], [[0.0]])])
        values, coeffs = closed_form_values(model)
        assert abs(values.V0 - np.exp(-4.0 * r)) < 1e-12
        assert abs(values.L0 - np.exp(8.0 * r)) < 1e-12
        assert values.eps2_0 == 0.0
        assert np.allclose(coeffs.a[0], [-1.0])

    def test_riskless_asset_at_rate_zero(self):
        # Asset 0 has b = 0 and a zero row and column in every segment; each
        # segment's risk-free rate is exactly 0.
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            segments = []
            for _ in range(3):
                G = rng.normal(size=(d - 1, d - 1))
                c = np.zeros((d, d))
                c[1:, 1:] = 0.1 * G @ G.T
                b = np.concatenate([[0.0], 0.1 * rng.normal(size=d - 1)])
                segments.append((float(rng.uniform(0.2, 2.0)), b, c))
            for seg in models.PiiItoModel(segments).segments:
                assert abs(adjustment_explicit(seg.b, seg.c).riskfree_rate) <= 1e-15

    def test_one_eigh_and_one_eigvalsh(self, ito_benchmark, monkeypatch):
        # The stacked QP validates (eigvalsh) and factors (eigh) every
        # segment's c at once; once ones' is factored, no SVD runs at all.
        rng = np.random.default_rng(5)
        segments = []
        for _ in range(3):
            G = rng.normal(size=(3, 3))
            segments.append((1.0, 0.1 * rng.normal(size=3), 0.1 * G @ G.T))
        segments.append((1.0, [0.0, 0.1, 0.2], np.diag([0.0, 0.1, 0.2])))
        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            original = getattr(np.linalg, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        for model in (ito_benchmark, models.PiiItoModel(segments)):
            qp._ones(model.d)
            calls.clear()
            closed_form_values(model)
            assert sorted(calls) == ["eigh", "eigvalsh"], calls

    def test_arbitrage_names_segment(self):
        # all segments are one stacked QP; the error names the unbounded one
        calm = (1.0, [0.1, 0.2], [[0.04, 0.01], [0.01, 0.09]])
        model = models.PiiItoModel([calm, (1.0, [0.1, 0.2], np.zeros((2, 2))), calm])
        with pytest.raises(LocalArbitrageError, match=r"\(at segment 1\)"):
            closed_form_values(model)


class TestTreeBackward:
    def test_complete_market_replicates(self):
        tree = complete_binomial_tree(periods=2)
        payoff = {
            t: max(tree.prices[tree.nodes[t], 1] - 1.0, 0.0) for t in tree.terminal_ids
        }
        sol = tree_backward(tree, Claim(payoff=payoff))
        assert np.all(sol.eps2 < 1e-14)
        # risk-neutral price: q = (1 - down) / (up - down) per period
        q = (1.0 - 0.8) / (1.25 - 0.8)
        price = sum(
            payoff[t]
            * q ** _ups(tree, t)
            * (1 - q) ** (2 - _ups(tree, t))
            for t in tree.terminal_ids
        )
        assert abs(sol.V0 - price) < 1e-12
        # exact replication from the tracking value, at every terminal node
        _, wealth = tree.roll_wealth(sol.feedback, sol.V0)
        for i, t in enumerate(tree.terminal_ids, start=tree.n_internal):
            assert abs(wealth[i] - payoff[t]) < 1e-12

    def test_opportunity_bounded_by_one_with_constant_asset(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            tree = make_tree(rng, n_assets=2, periods=3, constant_asset=True)
            sol = tree_backward(tree, Claim(constant=1.0))
            assert np.all((0.0 < sol.L) & (sol.L <= 1.0 + 1e-12))
            assert np.all(sol.eps2 >= -1e-14)

    def test_matches_closed_form_on_moment_tree(self, discrete_benchmark):
        tree = moment_matched_tree(
            discrete_benchmark.mu,
            discrete_benchmark.sigma,
            discrete_benchmark.n_periods,
        )
        sol = tree_backward(tree, Claim(constant=1.0))
        values, _ = closed_form_values(discrete_benchmark)
        assert abs(sol.L0 - values.L0) < 1e-10
        assert abs(sol.V0 - values.V0) < 1e-10
        assert abs(sol.eps2_0 - values.eps2_0) < 1e-10

    def test_constraints_hold_nodewise(self):
        rng = np.random.default_rng(8)
        tree = make_tree(rng, n_assets=3, periods=2)
        claim = random_claim(rng, tree)
        sol = tree_backward(tree, claim)
        for i in range(len(sol.a)):
            assert abs(sol.a[i].sum() + 1.0) < 1e-10
            assert abs(sol.xi[i].sum() - sol.V[i]) < 1e-10

    def test_null_perturbation_leaves_outputs_unchanged(self):
        rng = np.random.default_rng(9)
        # A redundant duplicated asset guarantees nontrivial null directions.
        tree = with_duplicated_asset(make_tree(rng, n_assets=2, periods=2))
        claim = random_claim(rng, tree)
        sol = tree_backward(tree, claim)
        saw_null = any(nb.shape[1] > 0 for nb in sol.null_basis)
        assert saw_null

        def perturb(nid, a, null_basis):
            if null_basis.shape[1] == 0:
                return a
            return a + null_basis @ rng.normal(size=null_basis.shape[1])

        pert = tree_backward(tree, claim, adjustment_override=perturb)
        for got, want in ((pert.L, sol.L), (pert.V, sol.V), (pert.eps2, sol.eps2)):
            assert np.abs(got - want).max() < 1e-10
        # wealth paths are unchanged too: null directions have zero wealth
        from mvhedge.oracle import enumerate_terminal_wealth

        _, w_base, _ = enumerate_terminal_wealth(tree, sol, 0.8)
        _, w_pert, _ = enumerate_terminal_wealth(tree, pert, 0.8)
        assert np.abs(w_base - w_pert).max() < 1e-10

    @pytest.mark.parametrize("solver", ["tree_backward", "dp_solve"])
    def test_three_decompositions_per_node(self, solver, monkeypatch):
        # Square-root form: one stacked SVD of the rows per level and one SVD
        # of ones' per asset count, at most three per node; no Gram matrix is
        # validated or split, so no eigvalsh or eigh runs.
        from mvhedge.oracle import dp_solve

        rng = np.random.default_rng(12)
        tree = make_tree(rng, n_assets=3, periods=3)
        claim = random_claim(rng, tree)
        calls = []
        for name in ("svd", "eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        norm = np.linalg.norm

        def no_spectral_norm(x, ord=None, *args, **kwargs):
            # ord=2 on a matrix is an SVD hidden from the counter above
            assert not (ord == 2 and np.ndim(x) == 2), "hidden SVD in norm"
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", no_spectral_norm)
        internal = tree.n_internal
        qp._ones.cache_clear()
        # the first solve factors ones', the second finds it cached
        for expected in (len(tree.levels) + 1, len(tree.levels)):
            calls.clear()
            if solver == "tree_backward":
                tree_backward(tree, claim)
            else:
                dp_solve(tree, claim, 0.3)
            assert len(calls) <= 3 * internal, (len(calls), internal)
            assert calls == ["svd"] * expected, calls

    @pytest.mark.parametrize("solver", ["tree_backward", "dp_solve"])
    def test_decompositions_per_level(self, solver, monkeypatch):
        # One stacked least-squares solve per level: one SVD of every node's
        # rows B N; ones' gets one SVD per asset count, shared by every pass
        # (cleared first, then cached); no eigvalsh or eigh.
        from mvhedge.oracle import dp_solve

        rng = np.random.default_rng(12)
        tree = make_tree(rng, n_assets=3, periods=3)
        claim = random_claim(rng, tree)
        calls = []
        for name in ("svd", "eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        qp._ones.cache_clear()
        for expected in (len(tree.levels) + 1, len(tree.levels)):
            calls.clear()
            if solver == "tree_backward":
                tree_backward(tree, claim)
            else:
                dp_solve(tree, claim, 0.3)
            assert calls == ["svd"] * expected, calls

    @pytest.mark.parametrize("solver", ["tree_backward", "dp_solve"])
    @pytest.mark.parametrize(
        "shape, flat", [("generic", 0), ("riskless", 0), ("duplicated", 1)]
    )
    def test_flat_directions_per_node(self, solver, shape, flat, monkeypatch):
        # A duplicated asset leaves one exact flat direction per node, which
        # B N shows as a singular value at rounding level (about eps ||B||,
        # above eps s_max for the DP's gross-return rows); the rank split on
        # s^2 drops it and keeps every direction of the other shapes.
        from mvhedge import qp
        from mvhedge.oracle import dp_solve

        lsq, flats = qp._lsq, []

        def spying(*args):
            out = lsq(*args)
            flats.extend((~out[3]).sum(axis=1).tolist())
            return out

        monkeypatch.setattr(qp, "_lsq", spying)
        rng = np.random.default_rng(31)
        for _ in range(4):
            nodes, root, _ = random_tree(rng, 3, int(rng.integers(3, 5)), shape)
            tree = models.model_from_dict(tree_dict(nodes, root))
            claim = random_claim(rng, tree)
            flats.clear()
            if solver == "tree_backward":
                sol = tree_backward(tree, claim)
                assert [nb.shape[1] for nb in sol.null_basis] == [flat] * tree.n_internal
            else:
                dp_solve(tree, claim, 0.3)
            assert flats == [flat] * tree.n_internal

    def test_mixed_branch_counts(self):
        # Levels mix 2, 3 and 4 branches, so short nodes are padded with zero
        # rows; with three assets a two-branch node has returns of rank 1
        # and so one flat direction.
        from mvhedge.oracle import dp_solve

        rng = np.random.default_rng(32)
        tree = mixed_tree(rng)
        claim = random_claim(rng, tree)
        counts = np.diff(np.searchsorted(tree.parent, np.arange(tree.n_internal + 1)))
        sol = tree_backward(tree, claim)
        assert [nb.shape[1] for nb in sol.null_basis] == (counts == 2).tolist()
        dp = dp_solve(tree, claim, 0.4)
        for got, want in ((sol.L, dp.ell), (sol.V, dp.v), (sol.eps2, dp.e)):
            assert np.abs(got - want).max() <= 1e-10
        _, wealth = tree.roll_wealth(sol.feedback, 0.4)
        assert np.abs(wealth - dp.wealth).max() <= 1e-10

    def test_deterministic_arbitrage_names_node(self):
        prices = [[1.0, 1.0], [1.0, 1.3]]
        tree = models.FiniteTreeModel([-1, 0], [1.0, 1.0], prices, ["r", "a"])
        with pytest.raises(LocalArbitrageError, match="node 'r'"):
            tree_backward(tree, Claim(constant=1.0))


def _ups(tree, terminal):
    # count up-moves on the path to a terminal of the binomial fixture: every
    # node has two children, so an up-move, the first branch, is an odd position
    i, ups = tree.nodes[terminal], 0
    while i:
        ups, i = ups + i % 2, tree.parent[i]
    return ups


class TestFeedbackStrategy:
    def test_zero_claim_terminal_second_moment(self):
        # Hedging H = 0 from wealth v: E[wealth_T^2] = L0 v^2 by enumeration.
        rng = np.random.default_rng(11)
        tree = make_tree(rng, n_assets=2, periods=3)
        sol = tree_backward(tree, Claim(constant=0.0))
        from mvhedge.oracle import enumerate_terminal_wealth

        for v in (1.0, -0.3):
            probs, wealth, _ = enumerate_terminal_wealth(tree, sol, v)
            assert abs(probs @ wealth**2 - sol.L0 * v**2) < 1e-10


class TestHedgingError:
    def test_at_tracking_value(self, discrete_benchmark):
        values, _ = closed_form_values(discrete_benchmark)
        assert abs(hedging_error(values, values.V0) - values.eps2_0) < 1e-14

    def test_zero_wealth_gives_efficiency_denominator(self, discrete_benchmark):
        values, _ = closed_form_values(discrete_benchmark)
        expected = values.L0 * values.V0**2 + values.eps2_0
        assert abs(hedging_error(values, 0.0) - expected) < 1e-14
