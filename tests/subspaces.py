"""Subspace arithmetic on orthonormal bases, for the tests.

The library decides ranks only through ``range_basis`` and ``null_basis``;
these helpers combine their bases so that tests can compare subspaces under
the same singular-value cutoff.  ``in_span`` is the independent membership
test behind the local no-arbitrage test.
"""

import numpy as np

from mvhedge.linalg import (
    DEFAULT_CTX,
    RESIDUAL_TOL,
    InvalidInputError,
    null_basis,
    range_basis,
)


def _as_basis(M, name="basis"):
    """Finite 2-d float array of at least one row; a 1-D input is one column
    and zero columns (the empty basis) are allowed."""
    A = np.asarray(M, dtype=float)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2 or A.shape[0] < 1:
        raise InvalidInputError(f"{name} must be a 2-d array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def matrix_rank(M, ctx=DEFAULT_CTX):
    """Numerical rank under the shared singular-value cutoff."""
    A = _as_basis(M, "matrix")
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > ctx.cutoff(s, A.shape)))


def _check_ambient(bases):
    dims = {b.shape[0] for b in bases}
    if len(dims) > 1:
        raise InvalidInputError(f"mismatched ambient dimensions: {sorted(dims)}")
    return dims.pop()


def subspace_sum(*bases, ctx=DEFAULT_CTX):
    """Orthonormal basis of the sum of the spanned subspaces."""
    mats = [_as_basis(b) for b in bases]
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
    M1 = _as_basis(B1)
    M2 = _as_basis(B2)
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
    M = _as_basis(B)
    if M.shape[1] == 0:
        return np.eye(M.shape[0])
    return null_basis(M.T, ctx)


def subspace_contains(outer, inner, ctx=DEFAULT_CTX):
    """True iff span(inner) is contained in span(outer) under the rank cutoff."""
    Mo = _as_basis(outer, "outer basis")
    Mi = _as_basis(inner, "inner basis")
    _check_ambient([Mo, Mi])
    if Mi.shape[1] == 0:
        return True
    if Mo.shape[1] == 0:
        return matrix_rank(Mi, ctx) == 0
    return matrix_rank(np.hstack([Mo, Mi]), ctx) == matrix_rank(Mo, ctx)


def subspace_equal(B1, B2, ctx=DEFAULT_CTX):
    """Subspace equality as mutual containment (basis-ordering independent)."""
    return subspace_contains(B1, B2, ctx) and subspace_contains(B2, B1, ctx)


def projection_residual(v, basis):
    """Norm of the part of v orthogonal to span(basis)."""
    x = np.asarray(v, dtype=float).ravel()
    B = _as_basis(basis)
    if B.shape[0] != x.shape[0]:
        raise InvalidInputError("vector and basis ambient dimensions differ")
    if B.shape[1] == 0:
        return float(np.linalg.norm(x))
    Q = range_basis(B)
    return float(np.linalg.norm(x - Q @ (Q.T @ x)))


def in_span(v, basis):
    """Membership test ``v in span(basis)`` up to the residual tolerance."""
    x = np.asarray(v, dtype=float).ravel()
    res = projection_residual(x, basis)
    return res <= RESIDUAL_TOL * (1.0 + float(np.linalg.norm(x)))
