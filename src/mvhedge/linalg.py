"""Pseudoinverse, projectors, and subspace arithmetic on dense real matrices.

Everything here is rank-revealing: a single singular-value cutoff, configurable
through :class:`NumericContext`, decides what counts as zero.  All routines are
pure functions of their inputs and safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidInputError",
    "NumericContext",
    "DEFAULT_CTX",
    "pinv",
    "matrix_rank",
    "orth_projector",
    "oblique_projector",
    "range_basis",
    "null_basis",
    "subspace_sum",
    "subspace_intersection",
    "subspace_complement",
    "subspace_contains",
    "subspace_equal",
    "in_span",
    "projection_residual",
    "symmetric_psd",
]


class InvalidInputError(ValueError):
    """Raised for malformed numeric arguments (non-finite entries, bad shapes,
    out-of-range values)."""


@dataclass(frozen=True)
class NumericContext:
    """Tolerances shared by the rank-revealing routines.

    rank_rtol
        Relative singular-value cutoff: singular values below
        ``rank_rtol * sigma_max`` are treated as zero.  ``None`` selects the
        reproducible default ``max(rows, cols) * machine_epsilon``.
    residual_tol
        Scale for residual tests (membership, idempotency, feasibility).
        Always applied relative to ``1 + norm(data)``.
    psd_tol
        Scale for positive-semidefiniteness checks, relative to ``trace``.
    """

    rank_rtol: float | None = None
    residual_tol: float = 1e-10
    psd_tol: float = 1e-10

    def cutoff(self, singular_values, shape):
        """Rank cutoff for the singular values of a ``shape`` matrix (zero for
        none); a stack of value rows gets one cutoff per row."""
        rtol = self.rank_rtol
        if rtol is None:
            rtol = max(shape) * np.finfo(float).eps
        return rtol * np.max(singular_values, axis=-1, initial=0.0)


DEFAULT_CTX = NumericContext()


def _as_matrix(M, name="matrix", allow_empty=False):
    A = np.asarray(M, dtype=float)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    min_cols = 0 if allow_empty else 1
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < min_cols:
        raise InvalidInputError(f"{name} must be a 2-d array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def symmetric_psd(M, name, error, ctx):
    """Return ``((M + M') / 2, ||M||_2)`` for a symmetric positive-semidefinite M.

    A stack M (m, n, n) is checked matrix by matrix and gets (m,) norms.  The
    spectral norm is the largest eigenvalue magnitude from the one eigvalsh
    that tests definiteness.  Non-finite entries raise
    :class:`InvalidInputError`; a non-square, asymmetric or indefinite matrix
    raises the caller's exception type ``error``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise error(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    Mt, axes = M.swapaxes(-1, -2), (-2, -1)
    scale = np.abs(M).max(axis=axes, initial=1.0)
    if np.any(np.abs(M - Mt).max(axis=axes, initial=0.0) > ctx.residual_tol * scale):
        raise error(f"{name} is not symmetric")
    M = 0.5 * (M + Mt)
    w = np.linalg.eigvalsh(M)
    if np.any(w[..., 0] < -ctx.psd_tol * np.maximum(np.trace(M, 0, *axes), 1.0)):
        raise error(
            f"{name} is not positive semidefinite "
            f"(min eigenvalue {np.min(w[..., 0]):.3e})"
        )
    return M, np.maximum(-w[..., 0], w[..., -1])


def pinv(M, ctx=DEFAULT_CTX):
    """Moore-Penrose pseudoinverse via full SVD with a rank-revealing cutoff.

    The result X satisfies the four defining identities MXM=M, XMX=X,
    (MX)' = MX, (XM)' = XM.  Singular values below
    ``max(rows, cols) * eps * sigma_max`` (or the context override) are
    zeroed.
    """
    A = _as_matrix(M)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(s > ctx.cutoff(s, A.shape)))
    if r == 0:
        return np.zeros((A.shape[1], A.shape[0]))
    return (Vh[:r].T / s[:r]) @ U[:, :r].T


def matrix_rank(M, ctx=DEFAULT_CTX):
    """Numerical rank under the shared singular-value cutoff."""
    A = _as_matrix(M)
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > ctx.cutoff(s, A.shape)))


def range_basis(M, ctx=DEFAULT_CTX):
    """Orthonormal basis of the column space, shape (m, rank)."""
    A = _as_matrix(M)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(s > ctx.cutoff(s, A.shape)))
    return U[:, :r]


def null_basis(M, ctx=DEFAULT_CTX):
    """Orthonormal basis of the kernel, shape (n, n - rank)."""
    A = _as_matrix(M)
    _, s, Vh = np.linalg.svd(A, full_matrices=True)
    r = int(np.sum(s > ctx.cutoff(s, A.shape)))
    return Vh[r:].T


def orth_projector(A, ctx=DEFAULT_CTX):
    """Orthogonal projector onto the column space of A (equals A A^+).

    Symmetric and idempotent; its range is exactly Ran(A).
    """
    B = range_basis(A, ctx)
    n = _as_matrix(A).shape[0]
    if B.shape[1] == 0:
        return np.zeros((n, n))
    return B @ B.T


def oblique_projector(U, V, ctx=DEFAULT_CTX):
    """Idempotent projector U (V U)^+ V for U of shape (n, p), V of shape (q, n).

    Projects onto Ran(U U' V') along Null(U' V' V).
    """
    Um = _as_matrix(U, "U")
    Vm = _as_matrix(V, "V")
    if Um.shape[0] != Vm.shape[1]:
        raise InvalidInputError(
            f"incompatible shapes: U is {Um.shape}, V is {Vm.shape}; "
            "need U of shape (n, p) and V of shape (q, n)"
        )
    return Um @ pinv(Vm @ Um, ctx) @ Vm


def _check_ambient(bases):
    dims = {b.shape[0] for b in bases}
    if len(dims) > 1:
        raise InvalidInputError(f"mismatched ambient dimensions: {sorted(dims)}")
    return dims.pop()


def subspace_sum(*bases, ctx=DEFAULT_CTX):
    """Orthonormal basis of the sum of the spanned subspaces."""
    mats = [_as_matrix(b, "basis", allow_empty=True) for b in bases]
    n = _check_ambient(mats)
    stacked = np.hstack(mats) if mats else np.zeros((n, 0))
    if stacked.shape[1] == 0:
        return np.zeros((n, 0))
    return range_basis(stacked, ctx)


def subspace_intersection(B1, B2, ctx=DEFAULT_CTX):
    """Orthonormal basis of the intersection of two spanned subspaces.

    A vector lies in both subspaces iff it is orthogonal to both orthogonal
    complements, so the intersection is the kernel of the stacked complement
    bases (which keeps every entry at unit scale).
    """
    M1 = _as_matrix(B1, "basis", allow_empty=True)
    M2 = _as_matrix(B2, "basis", allow_empty=True)
    n = _check_ambient([M1, M2])
    if M1.shape[1] == 0 or M2.shape[1] == 0:
        return np.zeros((n, 0))
    comp1 = subspace_complement(M1, ctx)
    comp2 = subspace_complement(M2, ctx)
    if comp1.shape[1] + comp2.shape[1] == 0:
        return np.eye(n)
    return null_basis(np.hstack([comp1, comp2]).T, ctx)


def subspace_complement(B, ctx=DEFAULT_CTX):
    """Orthonormal basis of the orthogonal complement of span(B)."""
    M = _as_matrix(B, "basis", allow_empty=True)
    if M.shape[1] == 0:
        return np.eye(M.shape[0])
    return null_basis(M.T, ctx)


def subspace_contains(outer, inner, ctx=DEFAULT_CTX):
    """True iff span(inner) is contained in span(outer) under the rank cutoff."""
    Mo = _as_matrix(outer, "outer basis", allow_empty=True)
    Mi = _as_matrix(inner, "inner basis", allow_empty=True)
    _check_ambient([Mo, Mi])
    if Mi.shape[1] == 0:
        return True
    if Mo.shape[1] == 0:
        return matrix_rank(Mi, ctx) == 0
    return matrix_rank(np.hstack([Mo, Mi]), ctx) == matrix_rank(Mo, ctx)


def subspace_equal(B1, B2, ctx=DEFAULT_CTX):
    """Subspace equality as mutual containment (basis-ordering independent)."""
    return subspace_contains(B1, B2, ctx) and subspace_contains(B2, B1, ctx)


def projection_residual(v, basis, ctx=DEFAULT_CTX):
    """Norm of the part of v orthogonal to span(basis)."""
    x = np.asarray(v, dtype=float).ravel()
    B = _as_matrix(basis, "basis", allow_empty=True)
    if B.shape[0] != x.shape[0]:
        raise InvalidInputError("vector and basis ambient dimensions differ")
    if B.shape[1] == 0:
        return float(np.linalg.norm(x))
    Q = range_basis(B, ctx)
    return float(np.linalg.norm(x - Q @ (Q.T @ x)))


def in_span(v, basis, ctx=DEFAULT_CTX):
    """Membership test ``v in span(basis)`` up to the residual tolerance."""
    x = np.asarray(v, dtype=float).ravel()
    res = projection_residual(x, basis, ctx)
    return res <= ctx.residual_tol * (1.0 + float(np.linalg.norm(x)))
