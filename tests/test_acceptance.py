"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from conftest import make_tree, random_claim
from mvhedge import engine, frontier, models, oracle, qp
from mvhedge.linalg import (
    NumericContext,
    null_basis,
    oblique_projector,
    orth_projector,
    pinv,
    range_basis,
)
from mvhedge.models import Claim
from subspaces import subspace_equal

RANK_TEST_CTX = NumericContext(rank_rtol=1e-10)


def _report(num, label):
    print(f"\ncriterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def tree_corpus():
    """100 random trees (<= 4 periods, <= 4 branches, <= 3 assets) with claims.

    Every fifth tree carries a duplicated asset so the one-step minimizer set
    has nontrivial flat directions.
    """
    rng = np.random.default_rng(2026)
    corpus = []
    for i in range(100):
        d = int(rng.integers(1, 4))
        periods = int(rng.integers(1, 5))
        if i % 5 == 0:
            base = make_tree(rng, n_assets=max(1, min(d, 2)), periods=periods)
            nodes = [
                (
                    nid,
                    base.nodes[nid].time,
                    np.concatenate(
                        [base.nodes[nid].prices, base.nodes[nid].prices[-1:]]
                    ),
                    list(base.nodes[nid].branches),
                )
                for nid in base.ids
            ]
            tree = models.FiniteTreeModel(nodes, base.root)
        else:
            tree = make_tree(rng, n_assets=d, periods=periods)
        corpus.append((tree, random_claim(rng, tree)))
    return corpus


def test_criterion_1_discrete_benchmark_reproduction(discrete_benchmark):
    started = time.perf_counter()
    b, c = discrete_benchmark.log_characteristics(0)
    m = np.eye(3) - np.ones((3, 3)) / 3.0
    p = pinv(m @ c @ m)
    den = 816487.0
    p_exact = np.array(
        [
            [58640000.0, -13445000.0, -45195000.0],
            [-13445000.0, 11785000.0, 1660000.0],
            [-45195000.0, 1660000.0, 43535000.0],
        ]
    ) / den
    assert np.all(np.abs(p - p_exact) <= 1e-12 * np.abs(p_exact))

    a, _ = engine.adjustment(b, c)
    assert np.abs(a - np.array([-6.9144, 1.6238, 4.2907])).max() <= 5.1e-5

    bpb = float(b @ p @ b)
    ab = float(a @ b)
    aca = float(a @ c @ a)
    for got, num, denom in (
        (bpb, 582399.0, 1632974.0),
        (1.0 - ab, 3030887.0, 4082435.0),
        (1.0 - 2.0 * ab + aca, 14224270253.0, 16329740000.0),
    ):
        target = num / denom
        assert abs(got - target) <= 1e-12 * target

    values, _ = engine.closed_form_values(discrete_benchmark)
    assert abs(values.L0 - 0.57571) <= 0.5e-5
    assert abs(values.L0 * values.V0 - 0.30381) <= 0.5e-5
    assert abs(values.eps2_0 - 0.024179) <= 0.5e-6

    sm, var = frontier.frontier_coeffs(frontier.FrontierTriple.from_values(values))
    assert abs(sm.intercept - 0.57571) <= 0.51e-5
    assert abs(sm.slope - 1.2262) <= 0.51e-4
    assert abs(sm.center - 0.30381) <= 0.51e-5
    assert abs(var.intercept - 0.075446) <= 0.51e-6
    assert abs(var.slope - 0.22625) <= 0.51e-5
    assert abs(var.center - 1.6466) <= 0.51e-4

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"discrete benchmark reproduction, {elapsed:.3f}s")


def test_criterion_2_ito_benchmark_reproduction(ito_benchmark):
    started = time.perf_counter()
    b, c = ito_benchmark.log_characteristics(0.0)
    a, _ = engine.adjustment(b, c)
    zeta = engine.myopic_minvar(b, c)
    assert np.abs(a - np.array([-0.1172, 0.0852, -0.3132, -0.6548])).max() <= 5.1e-5
    assert np.abs(zeta - np.array([0.1745, -0.0799, 0.3605, 0.5450])).max() <= 5.1e-5

    values, _ = engine.closed_form_values(ito_benchmark)
    for got, target in (
        (float(a @ c @ a), 0.08405358),
        (float(zeta @ c @ zeta), 0.06865944),
        (float(a @ b), -0.03762131),
        (values.L0, 2.21772301),
        (values.L0 * values.V0, 1.20696211),
        (values.eps2_0, 0.28028620),
    ):
        assert abs(got - target) <= 1e-8

    sm, var = frontier.frontier_coeffs(frontier.FrontierTriple.from_values(values))
    assert abs(sm.intercept - 2.21772) <= 0.51e-5
    assert abs(sm.slope - 15.9127) <= 0.51e-4
    assert abs(sm.center - 1.20696) <= 0.51e-5
    assert abs(var.intercept - 0.66328) <= 0.51e-5
    assert abs(var.slope - 14.9127) <= 0.51e-4
    assert abs(var.center - 1.28790) <= 0.51e-5

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, f"Ito benchmark reproduction, {elapsed:.3f}s")


def test_criterion_3_pseudoinverse_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    count = 0
    while count < 1000:
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        # controlled spectrum: exact zeros plus values in [0.5, 2]
        Qr, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
        Qc, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
        s = np.zeros(min(rows, cols))
        s[:rank] = rng.uniform(0.5, 2.0, size=rank)
        M = Qr[:, : len(s)] @ (s[:, None] * Qc[: len(s), :])
        X = pinv(M)
        scale = 1.0 + np.linalg.norm(M)
        assert np.abs(M @ X @ M - M).max() <= 1e-10 * scale
        assert np.abs(X @ M @ X - X).max() <= 1e-10 * scale
        assert np.abs((M @ X).T - M @ X).max() <= 1e-10 * scale
        assert np.abs((X @ M).T - X @ M).max() <= 1e-10 * scale
        assert np.abs(pinv(M.T) - X.T).max() <= 1e-10 * scale
        assert np.abs(M.T @ pinv(M @ M.T) - X).max() <= 1e-10 * scale
        assert np.abs(pinv(M.T @ M) @ M.T - X).max() <= 1e-10 * scale
        assert subspace_equal(
            range_basis(X, RANK_TEST_CTX), range_basis(M.T, RANK_TEST_CTX),
            RANK_TEST_CTX,
        )
        # orthogonal-projector absorption on both sides
        P = orth_projector(rng.normal(size=(rows, max(1, rank))))
        V = rng.normal(size=(int(rng.integers(1, 6)), rows))
        assert np.abs(P @ pinv(V @ P) - pinv(V @ P)).max() <= 1e-10 * (
            1 + np.linalg.norm(V)
        )
        assert np.abs(pinv(P @ V.T) @ P - pinv(P @ V.T)).max() <= 1e-10 * (
            1 + np.linalg.norm(V)
        )
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(3, f"pseudoinverse properties on {count} matrices, {elapsed:.1f}s")


def test_criterion_4_oblique_projector_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(41)
    count = 0
    while count < 500:
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n + 1))
        q = int(rng.integers(1, n + 1))
        U = rng.normal(size=(n, p))
        V = rng.normal(size=(q, n))
        sv = np.linalg.svd(V @ U, compute_uv=False)
        nz = sv[sv > 1e-12]
        if nz.size and nz.min() < 0.05:
            continue  # keep the projector norm bounded
        E = oblique_projector(U, V)
        assert np.abs(E @ E - E).max() <= 1e-10 * (1 + np.abs(E).max())
        assert subspace_equal(
            range_basis(E, RANK_TEST_CTX),
            range_basis(U @ U.T @ V.T, RANK_TEST_CTX),
            RANK_TEST_CTX,
        )
        assert subspace_equal(
            range_basis(E, RANK_TEST_CTX),
            range_basis(U @ U.T @ V.T @ V, RANK_TEST_CTX),
            RANK_TEST_CTX,
        )
        assert subspace_equal(
            null_basis(E, RANK_TEST_CTX),
            null_basis(U.T @ V.T @ V, RANK_TEST_CTX),
            RANK_TEST_CTX,
        )
        assert subspace_equal(
            null_basis(E, RANK_TEST_CTX),
            null_basis(U @ U.T @ V.T @ V, RANK_TEST_CTX),
            RANK_TEST_CTX,
        )
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(4, f"oblique projector properties on {count} pairs, {elapsed:.1f}s")


def test_criterion_5_qp_oracle_equivalence():
    from test_qp import kkt_value, unbounded_instance, well_posed_instance

    rng = np.random.default_rng(51)
    bounded = 0
    while bounded < 200:
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        rank = int(rng.integers(0, n + 1))
        C, F, A, b = well_posed_instance(rng, n, k, rank)
        prob = qp.QpProblem(C=C, F=F, A=A, b=b)
        s1 = qp.solve(prob)
        s2 = qp.solve_alt(prob)
        assert np.abs(s1.x_hat - s2.x_hat).max() <= 1e-10
        assert abs(s1.value - s2.value) <= 1e-10
        assert abs(s1.value - kkt_value(C, F, A, b)) <= 1e-9
        N = null_basis(A)
        x = N @ rng.normal(size=N.shape[1])
        assert abs(prob.objective(s1.x_hat - x) - s1.value - x @ C @ x) <= 1e-9
        bounded += 1

    unbounded = 0
    while unbounded < 50:
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, n - 1) + 1))
        C, F, A, b = unbounded_instance(rng, n, k)
        prob = qp.QpProblem(C=C, F=F, A=A, b=b)
        with pytest.raises(qp.UnboundedBelowError) as err:
            qp.solve(prob)
        y = err.value.direction
        assert np.abs(A @ y).max() <= 1e-8 * (1 + np.abs(A).max())
        x0 = np.linalg.lstsq(A, b, rcond=None)[0]
        assert prob.objective(x0 + y) < prob.objective(x0)
        assert prob.objective(x0 + 2 * y) < prob.objective(x0 + y)
        unbounded += 1
    _report(5, f"qp oracle equivalence on {bounded} bounded / {unbounded} unbounded")


def test_criterion_6_engine_vs_dp_oracle(tree_corpus):
    started = time.perf_counter()
    rng = np.random.default_rng(61)
    perturbed_nodes = 0
    for tree, claim in tree_corpus:
        solution = engine.tree_backward(tree, claim)
        v = float(rng.normal())
        result = oracle.dp_solve(tree, claim, v)
        for nid in tree.nodes:
            i = tree.index[nid]
            assert abs(solution.L[i] - result.ell[i]) <= 1e-10
            assert abs(solution.V[i] - result.v[i]) <= 1e-10
            assert abs(solution.eps2[i] - result.e[i]) <= 1e-10
        assert abs(engine.hedging_error(solution, v) - result.objective) <= 1e-10

        if any(nb.shape[1] for nb in solution.null_basis):

            def perturb(nid, a, nb):
                nonlocal perturbed_nodes
                if nb.shape[1] == 0:
                    return a
                perturbed_nodes += 1
                return a + nb @ rng.normal(size=nb.shape[1])

            shifted = engine.tree_backward(
                tree, claim, adjustment_override=perturb
            )
            for nid in tree.nodes:
                i = tree.index[nid]
                assert abs(solution.L[i] - shifted.L[i]) <= 1e-10
                assert abs(solution.V[i] - shifted.V[i]) <= 1e-10
                assert abs(solution.eps2[i] - shifted.eps2[i]) <= 1e-10
    assert perturbed_nodes > 100
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        6,
        f"engine vs DP oracle on {len(tree_corpus)} trees "
        f"({perturbed_nodes} null-perturbed nodes), {elapsed:.1f}s",
    )


def test_criterion_7_numeraire_invariance(tree_corpus):
    started = time.perf_counter()
    rng = np.random.default_rng(71)
    checks = 0
    for tree, claim in tree_corpus:
        v = float(rng.normal())
        for j in tree.positive_assets():
            report = oracle.numeraire_change_check(tree, claim, j, v)
            assert report.objective_gap <= 1e-9 * (1 + abs(report.objective))
            assert report.max_holdings_gap <= 1e-9
            checks += 1
    elapsed = time.perf_counter() - started
    _report(7, f"numeraire invariance over {checks} checks, {elapsed:.1f}s")


def test_criterion_8_moment_identities_and_dominance(tree_corpus):
    rng = np.random.default_rng(81)
    lambdas = np.array([-0.5, 0.0, 0.4, 1.0, 2.5])
    trees_checked = 0
    # Single-asset trees have a legitimately degenerate frontier (the payoff 1
    # cannot be approached from zero wealth at all), so sample enough trees to
    # exercise the dominance check on the multi-asset ones.
    for tree, _ in tree_corpus[:40]:
        sol_one = engine.tree_backward(tree, Claim(constant=1.0))
        sol_zero = engine.tree_backward(tree, Claim(constant=0.0))
        L0, V0, eps2 = sol_one.L0, sol_one.V0, sol_one.eps2_0
        cost_of_one = L0 * V0**2 + eps2

        probs, w_10, _ = oracle.enumerate_terminal_wealth(tree, sol_zero, 1.0)
        probs1, w_01, _ = oracle.enumerate_terminal_wealth(tree, sol_one, 0.0)
        assert np.abs(probs - probs1).max() == 0.0
        assert abs(probs @ w_10 - L0 * V0) <= 1e-10
        assert abs(probs @ w_10**2 - L0) <= 1e-10
        assert abs(probs @ w_01 - (1.0 - cost_of_one)) <= 1e-10
        assert abs(probs @ w_01**2 - (1.0 - cost_of_one)) <= 1e-10

        try:
            _, var_curve = frontier.frontier_coeffs(
                frontier.FrontierTriple(L0, V0, eps2)
            )
        except frontier.DegenerateFrontierError:
            continue
        for lam in lambdas:
            w = w_10 + lam * w_01
            mean = float(probs @ w)
            variance = float(probs @ w**2 - mean**2)
            assert variance >= var_curve.value_at(mean) - 1e-9
        trees_checked += 1
    assert trees_checked >= 20
    _report(8, f"two-fund moment identities and dominance on {trees_checked} trees")


def test_criterion_9_monte_carlo_consistency(discrete_benchmark):
    started = time.perf_counter()
    values, coeffs = engine.closed_form_values(discrete_benchmark)
    for v in (0.0, values.V0, 1.0):
        report = oracle.mc_simulate(
            discrete_benchmark,
            coeffs,
            values,
            Claim.constant_one(),
            v,
            10**6,
            seed=20260808,
        )
        analytic = engine.hedging_error(values, v)
        assert abs(report.error_second_moment - analytic) <= 4.0 * report.std_error
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(9, f"Monte Carlo consistency at 3 wealth levels, {elapsed:.1f}s")
