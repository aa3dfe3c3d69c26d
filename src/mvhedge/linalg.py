"""Pseudoinverse, projectors, and bases of ranges and kernels on dense real
matrices.

Everything here is rank-revealing: a single singular-value cutoff decides what
counts as zero; :class:`NumericContext` sets it for the bases.  All routines are
pure functions of their inputs and safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidInputError",
    "NumericContext",
    "DEFAULT_CTX",
    "pinv",
    "orth_projector",
    "oblique_projector",
    "range_basis",
    "null_basis",
    "symmetric_psd",
]

_EPS = np.finfo(float).eps

# A residual counts as zero up to RESIDUAL_TOL times the size of its data: the
# symmetry test floors that size at 1, the QP boundedness test does not.  An
# eigenvalue counts as non-negative down to -PSD_TOL * max(trace, 1).
RESIDUAL_TOL = 1e-10
PSD_TOL = 1e-10


class InvalidInputError(ValueError):
    """Raised for malformed numeric arguments (non-finite entries, bad shapes,
    out-of-range values)."""


@dataclass(frozen=True)
class NumericContext:
    """The rank cutoff of :func:`range_basis` and :func:`null_basis`.

    rank_rtol
        Relative singular-value cutoff: singular values below
        ``rank_rtol * sigma_max`` are treated as zero.  ``None`` selects the
        reproducible default ``max(rows, cols) * machine_epsilon``.
    """

    rank_rtol: float | None = None

    def cutoff(self, singular_values, shape):
        """Rank cutoff for the singular values of a ``shape`` matrix (zero for
        none); a stack of value rows gets one cutoff per row."""
        rtol = self.rank_rtol
        if rtol is None:
            rtol = max(shape) * _EPS
        return rtol * np.asarray(singular_values).max(axis=-1, initial=0.0)


DEFAULT_CTX = NumericContext()


def _as_matrix(M, name="matrix"):
    A = np.asarray(M, dtype=float)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise InvalidInputError(f"{name} must be a 2-d array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def symmetric_psd(M, name, error):
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
    if np.any(np.abs(M - Mt).max(axis=axes, initial=0.0) > RESIDUAL_TOL * scale):
        raise error(f"{name} is not symmetric")
    M = 0.5 * M + 0.5 * Mt  # (M + Mt) / 2 without overflow
    w = np.linalg.eigvalsh(M)
    if np.any(w[..., 0] < -PSD_TOL * np.maximum(np.trace(M, 0, *axes), 1.0)):
        raise error(
            f"{name} is not positive semidefinite "
            f"(min eigenvalue {np.min(w[..., 0]):.3e})"
        )
    return M, np.maximum(-w[..., 0], w[..., -1])


def pinv(M):
    """Moore-Penrose pseudoinverse via full SVD with a rank-revealing cutoff.

    The result X satisfies the four defining identities MXM=M, XMX=X,
    (MX)' = MX, (XM)' = XM.  Singular values below
    ``max(rows, cols) * eps * sigma_max`` are zeroed.
    """
    A = _as_matrix(M)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(s > DEFAULT_CTX.cutoff(s, A.shape)))
    if r == 0:
        return np.zeros((A.shape[1], A.shape[0]))
    return (Vh[:r].T / s[:r]) @ U[:, :r].T


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


def orth_projector(A):
    """Orthogonal projector onto the column space of A (equals A A^+).

    Symmetric and idempotent; its range is exactly Ran(A).
    """
    B = range_basis(A)
    n = _as_matrix(A).shape[0]
    if B.shape[1] == 0:
        return np.zeros((n, n))
    return B @ B.T


def oblique_projector(U, V):
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
    return Um @ pinv(Vm @ Um) @ Vm
