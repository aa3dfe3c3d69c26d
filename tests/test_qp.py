import numpy as np
import pytest

from mvhedge import qp
from mvhedge.linalg import null_basis


def kkt_value(C, F, A, b):
    """Independent optimal-value oracle via the stationarity system."""
    n = C.shape[0]
    k = A.shape[0]
    system = np.block([[2.0 * C, A.T], [A, np.zeros((k, k))]])
    rhs = np.concatenate([2.0 * F, b])
    sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    x = sol[:n]
    return float(x @ C @ x - 2.0 * x @ F)


def well_posed_instance(rng, n, k, rank):
    """Random bounded instance with a moderate-norm solution.

    The quadratic gets eigenvalues in [0.3, 3] on a random rank-dimensional
    eigenspace; the linear term is built inside Ran(A') + Ran(C) so the
    problem is bounded.  Instances whose KKT solution is large (nearly
    unbounded geometry) are resampled.
    """
    while True:
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.concatenate([rng.uniform(0.3, 3.0, size=rank), np.zeros(n - rank)])
        C = (Q * lam) @ Q.T
        A = rng.normal(size=(k, n))
        if np.linalg.svd(A, compute_uv=False)[-1] < 0.3:
            continue
        F = A.T @ rng.normal(size=k) + C @ rng.normal(size=n)
        b = rng.normal(size=k)
        system = np.block([[2.0 * C, A.T], [A, np.zeros((k, k))]])
        sol, *_ = np.linalg.lstsq(system, np.concatenate([2.0 * F, b]), rcond=None)
        if np.linalg.norm(sol[: C.shape[0]]) <= 50.0:
            return C, F, A, b


def unbounded_instance(rng, n, k):
    """Instance with the linear term poking outside Ran(A') + Ran(C)."""
    from mvhedge.linalg import subspace_complement, subspace_sum

    while True:
        rank = int(rng.integers(0, max(1, n - k)))
        G = rng.normal(size=(n, rank)) if rank else np.zeros((n, 0))
        C = G @ G.T if rank else np.zeros((n, n))
        A = rng.normal(size=(k, n))
        comp = subspace_complement(subspace_sum(A.T, C))
        if comp.shape[1] == 0:
            continue
        y = comp @ rng.normal(size=comp.shape[1])
        if np.linalg.norm(y) < 0.1:
            continue
        F = A.T @ rng.normal(size=k) + C @ rng.normal(size=n) + y
        return C, F, A, rng.normal(size=k)


class TestProblemValidation:
    def test_rank_deficient_constraint_rejected(self):
        with pytest.raises(qp.InvalidProblemError):
            qp.QpProblem(
                C=np.eye(3),
                F=np.zeros(3),
                A=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                b=np.zeros(2),
            )

    def test_asymmetric_rejected(self):
        with pytest.raises(qp.InvalidProblemError):
            qp.QpProblem(
                C=np.array([[1.0, 1.0], [0.0, 1.0]]),
                F=np.zeros(2),
                A=np.ones((1, 2)),
                b=[1.0],
            )

    def test_indefinite_rejected(self):
        with pytest.raises(qp.InvalidProblemError):
            qp.QpProblem(
                C=np.diag([1.0, -1.0]), F=np.zeros(2), A=np.ones((1, 2)), b=[1.0]
            )

    def test_near_psd_noise_tolerated(self):
        C = np.diag([1.0, 0.0])
        C[1, 1] = -1e-12
        qp.QpProblem(C=C, F=np.zeros(2), A=np.ones((1, 2)), b=[1.0])


class TestBoundedness:
    def test_full_rank_quadratic_always_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            F = rng.normal(size=4)
            A = rng.normal(size=(2, 4))
            assert qp.check_bounded(np.eye(4), F, A)

    def test_zero_quadratic_detects_direction(self):
        C = np.zeros((2, 2))
        A = np.array([[1.0, 0.0]])
        assert not qp.check_bounded(C, np.array([0.0, 1.0]), A)
        assert qp.check_bounded(C, np.array([1.0, 0.0]), A)

    def test_constructed_membership(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = 6
            C, F, A, b = well_posed_instance(rng, n, 2, rank=n - 2)
            assert qp.check_bounded(C, F, A)
            Cn, Fn, An, _ = unbounded_instance(rng, n, 2)
            assert not qp.check_bounded(Cn, Fn, An)


class TestSolve:
    def test_nearest_point_on_line(self):
        prob = qp.QpProblem(C=np.eye(2), F=np.zeros(2), A=np.ones((1, 2)), b=[1.0])
        sol = qp.solve(prob)
        assert np.allclose(sol.x_hat, [0.5, 0.5], atol=1e-12)
        assert abs(sol.value - 0.5) < 1e-12
        assert sol.null_basis.shape[1] == 0

    def test_benchmark_adjustment_values(self, discrete_benchmark):
        b, c = discrete_benchmark.log_characteristics(0)
        prob = qp.QpProblem(C=c, F=b, A=np.ones((1, 3)), b=[-1.0])
        sol = qp.solve(prob)
        assert np.allclose(sol.x_hat, [-6.9144, 1.6238, 4.2907], atol=5e-5)
        ab = float(sol.x_hat @ b)
        aca = float(sol.x_hat @ c @ sol.x_hat)
        target = 14224270253.0 / 16329740000.0
        assert abs((1 - 2 * ab + aca) - target) <= 1e-12 * target
        # value = a c a' - 2 a b, so 1 + value is the same quantity
        assert abs(1.0 + sol.value - target) <= 1e-12 * target

    def test_grid_search_oracle(self):
        # Constraint x1 + x2 + x3 = 1; brute-force over the two free
        # directions at step 0.01 must reproduce the value within 1e-3.
        C = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
        F = np.array([0.4, -0.2, 0.3])
        A = np.ones((1, 3))
        b = np.array([1.0])
        sol = qp.solve(qp.QpProblem(C=C, F=F, A=A, b=b))
        N = null_basis(A)
        x_part = A.T @ b / 3.0
        grid = np.arange(-3.0, 3.0 + 1e-9, 0.01)
        t1, t2 = np.meshgrid(grid, grid, indexing="ij")
        pts = (
            x_part[None, :]
            + t1.reshape(-1, 1) * N[:, 0][None, :]
            + t2.reshape(-1, 1) * N[:, 1][None, :]
        )
        vals = np.einsum("ij,jk,ik->i", pts, C, pts) - 2.0 * pts @ F
        idx = int(np.argmin(vals))
        assert 0 < idx % len(grid) < len(grid) - 1, "grid minimum on boundary"
        assert abs(vals[idx] - sol.value) < 1e-3

    def test_kkt_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(3, n) + 1))
            rank = int(rng.integers(0, n + 1))
            C, F, A, b = well_posed_instance(rng, n, k, rank)
            sol = qp.solve(qp.QpProblem(C=C, F=F, A=A, b=b))
            assert abs(sol.value - kkt_value(C, F, A, b)) < 1e-9
            assert np.abs(A @ sol.x_hat - b).max() < 1e-10

    def test_null_basis_and_min_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = 6
            C, F, A, b = well_posed_instance(rng, n, 2, rank=3)
            prob = qp.QpProblem(C=C, F=F, A=A, b=b)
            sol = qp.solve(prob)
            nb = sol.null_basis
            if nb.shape[1] == 0:
                continue
            assert np.abs(C @ nb).max() < 1e-9
            assert np.abs(A @ nb).max() < 1e-9
            z = nb @ rng.normal(size=nb.shape[1])
            for t in (-1.0, 1.0, 10.0):
                assert abs(prob.objective(sol.x_hat + t * z) - sol.value) < 1e-7
            assert np.linalg.norm(sol.x_hat) <= np.linalg.norm(sol.x_hat + z) + 1e-12
            assert np.abs(sol.x_hat @ nb).max() < 1e-9

    def test_value_shift_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = 5
            C, F, A, b = well_posed_instance(rng, n, 2, rank=int(rng.integers(1, n + 1)))
            prob = qp.QpProblem(C=C, F=F, A=A, b=b)
            sol = qp.solve(prob)
            N = null_basis(A)
            x = N @ rng.normal(size=N.shape[1])
            lhs = prob.objective(sol.x_hat - x)
            assert abs(lhs - sol.value - x @ C @ x) < 1e-9

    def test_one_factorization_per_question(self, monkeypatch):
        # Validating C (eigvalsh, which also gives ||C||_2), one SVD of A and
        # one eigh of N'CN answer boundedness, minimizer and solution set.
        calls = []
        for name in ("svd", "eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        C = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
        prob = qp.QpProblem(C=C, F=[0.05, 0.08, 0.1], A=np.ones((1, 3)), b=[-1.0])
        qp.solve(prob)
        assert len(calls) <= 5, calls

    def test_stacked_right_hand_sides_match_single_solves(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, min(3, n) + 1))
            rank = int(rng.integers(0, n + 1))
            cols = [well_posed_instance(rng, n, k, rank)]
            C, _, A, _ = cols[0]
            for _ in range(int(rng.integers(1, 4))):
                F = A.T @ rng.normal(size=k) + C @ rng.normal(size=n)
                cols.append((C, F, A, rng.normal(size=k)))
            F = np.column_stack([c[1] for c in cols])
            b = np.column_stack([c[3] for c in cols])
            stacked = qp.solve(qp.QpProblem(C=C, F=F, A=A, b=b))
            assert stacked.x_hat.shape == F.shape
            assert stacked.value.shape == (F.shape[1],)
            for j in range(F.shape[1]):
                single = qp.solve(qp.QpProblem(C=C, F=F[:, j], A=A, b=b[:, j]))
                scale = 1.0 + np.abs(single.x_hat).max()
                assert np.abs(stacked.x_hat[:, j] - single.x_hat).max() < 1e-12 * scale
                assert abs(stacked.value[j] - single.value) < 1e-12 * (
                    1.0 + abs(single.value)
                )
                assert np.array_equal(stacked.null_basis, single.null_basis)

    def test_unbounded_column_raises_with_its_certificate(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            C, F_bad, A, b = unbounded_instance(rng, 5, 2)
            F_good = A.T @ rng.normal(size=2) + C @ rng.normal(size=5)
            assert qp.check_bounded(C, F_good, A)
            with pytest.raises(qp.UnboundedBelowError) as single:
                qp.solve(qp.QpProblem(C=C, F=F_bad, A=A, b=b))
            F = np.column_stack([F_good, F_bad, F_good])
            B = np.column_stack([b, b, b])
            with pytest.raises(qp.UnboundedBelowError) as stacked:
                qp.solve(qp.QpProblem(C=C, F=F, A=A, b=B))
            gap = stacked.value.direction - single.value.direction
            assert np.abs(gap).max() < 1e-12 * (1.0 + np.abs(F_bad).max())
            assert not qp.check_bounded(C, F, A)

    def test_stacks_match_single_matrix_problems(self):
        # Each matrix of a stack, riskless (a zero row) and duplicated assets
        # included, keeps the rank, flat dimension and minimizer of its own
        # single-matrix problem; the constraint is shared.
        rng = np.random.default_rng(13)
        kinds = set()
        for _ in range(40):
            n, m, k = int(rng.integers(2, 6)), int(rng.integers(1, 7)), 1
            A = np.ones((1, n)) if rng.random() < 0.5 else rng.normal(size=(k, n))
            C = []
            for _ in range(m):
                G = rng.normal(size=(n, int(rng.integers(1, n + 1))))
                kind = int(rng.integers(3))
                if kind == 1:
                    G[0] = 0.0
                elif kind == 2:
                    G[-1] = G[-2]
                kinds.add(kind)
                C.append(G @ G.T)
            C = np.array(C)
            F = A.T @ rng.normal(size=(k, 2)) + C @ rng.normal(size=(m, n, 2))
            b = rng.normal(size=(k, 2))
            stacked = qp.QpProblem(C=C, F=F, A=A, b=b)
            sol = qp.solve(stacked)
            assert sol.x_hat.shape == F.shape and sol.value.shape == (m, 2)
            for i in range(m):
                single = qp.QpProblem(C=C[i], F=F[i], A=A, b=b)
                assert stacked.keep[i].sum() == single.keep[0].sum()
                assert stacked.flat(i).shape == single.flat().shape
                assert np.array_equal(sol.x_hat[i], qp.solve(single).x_hat)
        assert kinds == {0, 1, 2}

    def test_unbounded_stack_member_raises_with_index_and_certificate(self):
        from mvhedge.linalg import subspace_complement, subspace_sum

        rng = np.random.default_rng(14)
        for _ in range(20):
            n, m = 5, int(rng.integers(2, 6))
            A = rng.normal(size=(2, n))
            C = np.array([np.eye(n)] * m)
            bad = int(rng.integers(m))
            G = rng.normal(size=(n, 2))
            C[bad] = G @ G.T
            F = A.T @ rng.normal(size=(m, 2, 1)) + C @ rng.normal(size=(m, n, 1))
            escape = subspace_complement(subspace_sum(A.T, C[bad]))
            F[bad] += escape @ rng.normal(size=(escape.shape[1], 1))
            b = rng.normal(size=(2, 1))
            with pytest.raises(qp.UnboundedBelowError) as single:
                qp.solve(qp.QpProblem(C=C[bad], F=F[bad], A=A, b=b))
            assert single.value.index == 0
            with pytest.raises(qp.UnboundedBelowError) as stacked:
                qp.solve(qp.QpProblem(C=C, F=F, A=A, b=b))
            assert stacked.value.index == bad
            gap = stacked.value.direction - single.value.direction
            assert np.abs(gap).max() < 1e-12 * (1.0 + np.abs(F[bad]).max())

    def test_right_hand_side_shapes_must_agree(self):
        with pytest.raises(qp.InvalidProblemError):
            qp.QpProblem(C=np.eye(2), F=np.zeros((2, 2)), A=np.ones((1, 2)), b=[1.0])

    def test_unbounded_raises_with_certificate(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, min(3, n - 1) + 1))
            C, F, A, b = unbounded_instance(rng, n, k)
            prob = qp.QpProblem(C=C, F=F, A=A, b=b)
            with pytest.raises(qp.UnboundedBelowError) as err:
                qp.solve(prob)
            y = err.value.direction
            assert np.abs(A @ y).max() < 1e-8 * (1 + np.abs(A).max())
            assert np.abs(C @ y).max() < 1e-8 * (1 + np.abs(C).max())
            x0 = np.linalg.lstsq(A, b, rcond=None)[0]
            q0, q1, q2 = (
                prob.objective(x0),
                prob.objective(x0 + y),
                prob.objective(x0 + 2 * y),
            )
            assert q1 < q0 and q2 < q1


class TestSolveAlt:
    def test_matches_solve_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(3, n) + 1))
            rank = int(rng.integers(0, n + 1))
            C, F, A, b = well_posed_instance(rng, n, k, rank)
            prob = qp.QpProblem(C=C, F=F, A=A, b=b)
            s1, s2 = qp.solve(prob), qp.solve_alt(prob)
            assert np.abs(s1.x_hat - s2.x_hat).max() < 1e-10
            assert abs(s1.value - s2.value) < 1e-10

    def test_full_rank_quadratic_takes_direct_branch(self):
        prob = qp.QpProblem(
            C=np.eye(3), F=np.array([1.0, 0.0, 0.0]), A=np.ones((1, 3)), b=[1.0]
        )
        sol = qp.solve_alt(prob)
        assert sol.branch == "direct"
        assert np.allclose(sol.x_hat, qp.solve(prob).x_hat, atol=1e-12)

    def test_matches_solve_on_named_examples(self, discrete_benchmark):
        line = qp.QpProblem(C=np.eye(2), F=np.zeros(2), A=np.ones((1, 2)), b=[1.0])
        b, c = discrete_benchmark.log_characteristics(0)
        bench = qp.QpProblem(C=c, F=b, A=np.ones((1, 3)), b=[-1.0])
        for prob in (line, bench):
            s1, s2 = qp.solve(prob), qp.solve_alt(prob)
            assert np.abs(s1.x_hat - s2.x_hat).max() < 1e-10
            assert abs(s1.value - s2.value) < 1e-10

    def test_singular_quadratic_takes_complement_branch(self):
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(30):
            n = 5
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            lam = np.array([2.0, 1.0, 0.5, 0.0, 0.0])
            C = (Q * lam) @ Q.T
            A = rng.normal(size=(1, n))
            F = A.T @ rng.normal(size=1) + C @ rng.normal(size=n)
            prob = qp.QpProblem(C=C, F=F, A=A, b=rng.normal(size=1))
            s1, s2 = qp.solve(prob), qp.solve_alt(prob)
            assert np.abs(s1.x_hat - s2.x_hat).max() < 1e-10
            hits += s2.branch == "complement"
        assert hits > 25  # a random row is almost never inside a rank-3 range

    def test_unbounded_raises_like_solve(self):
        rng = np.random.default_rng(8)
        C, F, A, b = unbounded_instance(rng, 5, 2)
        with pytest.raises(qp.UnboundedBelowError):
            qp.solve_alt(qp.QpProblem(C=C, F=F, A=A, b=b))
