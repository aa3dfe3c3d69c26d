import numpy as np
import pytest

from mvhedge import linalg
from mvhedge.linalg import (
    InvalidInputError,
    null_basis,
    oblique_projector,
    orth_projector,
    pinv,
    range_basis,
)
from subspaces import (
    in_span,
    matrix_rank,
    subspace_complement,
    subspace_contains,
    subspace_equal,
    subspace_intersection,
    subspace_sum,
)


def penrose_residual(M, X):
    scale = 1.0 + np.linalg.norm(M)
    return max(
        np.abs(M @ X @ M - M).max(),
        np.abs(X @ M @ X - X).max(),
        np.abs((M @ X).T - M @ X).max(),
        np.abs((X @ M).T - X @ M).max(),
    ) / scale


def random_matrix(rng, rows, cols, rank=None):
    if rank is None:
        return rng.normal(size=(rows, cols))
    return rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_zero(self):
        assert np.array_equal(pinv(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_exact_rational_benchmark(self, discrete_benchmark):
        # (m c m)^+ for the three-asset benchmark has known exact rational
        # entries with common denominator 816487.
        _, c = discrete_benchmark.log_characteristics(0)
        m = np.eye(3) - np.ones((3, 3)) / 3.0
        p = pinv(m @ c @ m)
        den = 816487.0
        expected = np.array(
            [
                [58640000.0, -13445000.0, -45195000.0],
                [-13445000.0, 11785000.0, 1660000.0],
                [-45195000.0, 1660000.0, 43535000.0],
            ]
        ) / den
        assert np.all(np.abs(p - expected) <= 1e-12 * np.abs(expected))

    def test_penrose_conditions_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            rank = int(rng.integers(0, min(rows, cols) + 1)) or None
            M = random_matrix(rng, rows, cols, rank)
            assert penrose_residual(M, pinv(M)) <= 1e-10

    def test_transpose_and_factor_identities(self):
        rng = np.random.default_rng(7)
        loose = linalg.NumericContext(rank_rtol=1e-10)
        for _ in range(50):
            M = random_matrix(rng, 6, 4, rank=int(rng.integers(1, 5)))
            Mp = pinv(M)
            assert np.allclose(pinv(M.T), Mp.T, atol=1e-10)
            assert np.allclose(Mp, M.T @ pinv(M @ M.T), atol=1e-10)
            assert np.allclose(Mp, pinv(M.T @ M) @ M.T, atol=1e-10)
            assert subspace_equal(range_basis(Mp), range_basis(M.T), loose)

    def test_psd_input_gives_psd_output(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(5, 2))
        C = G @ G.T
        Cp = pinv(C)
        assert np.allclose(Cp, Cp.T, atol=1e-12)
        assert np.linalg.eigvalsh(Cp).min() >= -1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            pinv(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestProjectors:
    def test_orth_identity(self):
        assert np.allclose(orth_projector(np.eye(2)), np.eye(2), atol=1e-14)

    def test_orth_ones_column(self):
        P = orth_projector(np.ones(3))
        assert np.allclose(P, np.ones((3, 3)) / 3.0, atol=1e-14)

    def test_orth_properties_random(self):
        rng = np.random.default_rng(0)
        A = random_matrix(rng, 4, 2, rank=2)
        P = orth_projector(A)
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.allclose(P.T, P, atol=1e-12)
        assert np.allclose(P @ A, A, atol=1e-12)
        assert subspace_equal(range_basis(P), range_basis(A))

    def test_oblique_identity(self):
        assert np.allclose(oblique_projector(np.eye(2), np.eye(2)), np.eye(2))

    def test_orth_projector_factor_can_be_dropped(self):
        # With U an orthogonal projector, U (V U)^+ = (V U)^+.
        rng = np.random.default_rng(1)
        U = orth_projector(random_matrix(rng, 5, 2))
        V = rng.normal(size=(3, 5))
        assert np.allclose(U @ pinv(V @ U), pinv(V @ U), atol=1e-11)

    def test_oblique_range_and_null(self):
        # Rank decisions on computed projectors need the dedicated rank-test
        # tolerance rather than the machine-exact default.
        loose = linalg.NumericContext(rank_rtol=1e-10)
        rng = np.random.default_rng(2)
        for _ in range(50):
            U = rng.normal(size=(5, 3))
            V = rng.normal(size=(2, 5))
            E = oblique_projector(U, V)
            assert np.abs(E @ E - E).max() <= 1e-10 * (1 + np.abs(E).max())
            assert subspace_equal(
                range_basis(E, loose), range_basis(U @ U.T @ V.T, loose), loose
            )
            assert subspace_equal(
                null_basis(E, loose), null_basis(U.T @ V.T @ V, loose), loose
            )
            assert subspace_equal(
                range_basis(E, loose), range_basis(U @ U.T @ V.T @ V, loose), loose
            )

    def test_oblique_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            oblique_projector(np.ones((4, 2)), np.ones((2, 3)))


class TestSubspaces:
    def test_plane_intersection(self):
        e = np.eye(3)
        L = e[:, :2]
        M = e[:, 1:]
        inter = subspace_intersection(L, M)
        assert inter.shape[1] == 1
        assert subspace_equal(inter, e[:, 1:2])

    def test_dimension_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            L = range_basis(random_matrix(rng, n, int(rng.integers(1, n + 1))))
            M = range_basis(random_matrix(rng, n, int(rng.integers(1, n + 1))))
            dim_sum = subspace_sum(L, M).shape[1]
            dim_int = subspace_intersection(L, M).shape[1]
            assert dim_sum + dim_int == L.shape[1] + M.shape[1]

    def test_orthogonal_split_of_first_subspace(self):
        # span(L) decomposes orthogonally into (L & M) and P_L applied to
        # the complement of M.
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = 6
            L = range_basis(random_matrix(rng, n, 3))
            M_cols = random_matrix(rng, n, 3, rank=2)
            # force a nontrivial intersection
            M = range_basis(np.hstack([M_cols, L[:, :1]]))
            inter = subspace_intersection(L, M)
            proj_piece = range_basis(L @ (L.T @ subspace_complement(M)))
            assert np.abs(inter.T @ proj_piece).max() < 1e-9
            assert subspace_equal(subspace_sum(inter, proj_piece), L)

    def test_containment_and_membership(self):
        e = np.eye(4)
        assert subspace_contains(e[:, :3], e[:, :2])
        assert not subspace_contains(e[:, :2], e[:, :3])
        assert in_span(np.array([1.0, 2.0, 0.0, 0.0]), e[:, :2])
        assert not in_span(np.array([1.0, 2.0, 3.0, 0.0]), e[:, :2])

    def test_empty_subspace_handling(self):
        empty = np.zeros((4, 0))
        assert subspace_sum(empty, empty).shape == (4, 0)
        assert subspace_intersection(np.eye(4), empty).shape == (4, 0)
        assert subspace_contains(np.eye(4), empty)
        assert subspace_complement(empty).shape == (4, 4)

    def test_rank_and_bases(self):
        M = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        assert matrix_rank(M) == 1
        assert range_basis(M).shape == (3, 1)
        assert null_basis(M).shape == (2, 1)
        assert np.abs(M @ null_basis(M)).max() < 1e-12


def test_context_override_tightens_rank():
    ctx = linalg.NumericContext(rank_rtol=0.5)
    M = np.diag([1.0, 0.4])
    assert matrix_rank(M, ctx) == 1
    assert matrix_rank(M) == 2


def test_symmetric_part_of_entries_near_the_float_max():
    # M + M' overflows at 1.5e308; the halves are added instead, which is
    # exact, so a symmetric M comes back bit for bit.
    M = np.array([[1.5e308, 1e150], [1e150, 1.0]])
    sym, norm = linalg.symmetric_psd(M, "M", ValueError)
    assert np.array_equal(sym, M) and np.isfinite(norm)
