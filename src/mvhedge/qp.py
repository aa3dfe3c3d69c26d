"""Equality-constrained quadratic optimization in closed form.

Minimizes q_i(x) = x'C_i x - 2x'F_i over the affine set {x : Ax = b} for each
symmetric positive-semidefinite C_i of a stack (one C is a stack of one), using
pseudoinverse projectors.  Rank deficiency in C_i is handled exactly: the full
solution set is an affine subspace and the reported minimizer is its
minimum-norm element.  One SVD of A, which a :class:`Constraint` shares between
problems, and one stacked eigendecomposition of the quadratics restricted to
Null(A) decide boundedness, minimizer and solution set for the whole stack.
The tree passes, which hold row factors B_i of C_i = B_i'B_i, solve the same
problems in square-root form with ``_lsq``, split by the same rank rule.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import (
    _EPS,
    DEFAULT_CTX,
    RESIDUAL_TOL,
    InvalidInputError,
    range_basis,
    symmetric_psd,
)

__all__ = [
    "InvalidProblemError",
    "UnboundedBelowError",
    "Constraint",
    "QpProblem",
    "QpSolution",
    "solve",
    "solve_alt",
]


class InvalidProblemError(ValueError):
    """Raised when a problem violates its structural requirements."""


class UnboundedBelowError(Exception):
    """The objective is unbounded below on the constraint set.

    Carries a certificate for ``index``, the first unbounded matrix of the
    stack: a feasible direction ``direction`` with ``A @ direction = 0``,
    ``C_i @ direction = 0`` and ``F_i @ direction > 0``, along which the
    objective decreases without bound.
    """

    def __init__(self, direction, index=0):
        self.direction = np.asarray(direction, dtype=float)
        self.index = index
        super().__init__(
            "objective is unbounded below on the constraint set; "
            "the linear term has a component outside Ran(A') + Ran(C)"
        )


def _as_columns(v, rows, name):
    """Float array of shape ``rows`` or ``rows + (columns,)``; a scalar is one entry."""
    x = np.atleast_1d(np.asarray(v, dtype=float))
    if x.shape[: len(rows)] != rows or x.ndim > len(rows) + 1:
        raise InvalidProblemError(
            f"{name} must have shape {rows} or {rows} + (k,), got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class Constraint:
    """A full-row-rank constraint matrix A with ``A_pinv`` and an orthonormal
    basis ``N`` of Null(A) from one SVD; as the ``A`` of any number of
    :class:`QpProblem` it spares each of them the SVD."""

    A: np.ndarray
    A_pinv: np.ndarray = field(init=False, repr=False)
    N: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if not np.all(np.isfinite(A)):
            raise InvalidInputError("constraint matrix contains non-finite entries")
        if A.ndim > 2 or A.shape[0] > A.shape[1]:
            raise InvalidProblemError(
                f"constraint matrix must be k x n with k <= n, got shape {A.shape}"
            )
        U, s, Vh = np.linalg.svd(A)
        cut = DEFAULT_CTX.cutoff(s, A.shape)
        if s[-1] <= cut:
            raise InvalidProblemError(
                "constraint matrix is (numerically) row rank deficient; "
                f"rank {int(np.sum(s > cut))} < {len(A)}"
            )
        pinv_A, N = (Vh[: len(A)].T / s) @ U.T, Vh[len(A) :].T
        for name, value in zip(("A", "A_pinv", "N"), (A, pinv_A, N)):
            object.__setattr__(self, name, value)


@lru_cache(maxsize=16)
def _ones(d):
    """The :class:`Constraint` ones' of d assets, factored once per asset count
    and shared by every tree pass; its arrays are read-only."""
    con = Constraint(np.ones((1, d)))
    for x in (con.A, con.A_pinv, con.N):
        x.flags.writeable = False
    return con


def _split(lam, scale, n):
    """Which eigenvalues ``lam`` (m, j) of the N'C_iN of n x n C_i to keep:
    those above ``max(j eps |lam|_max, n eps scale_i)``, with ``scale`` (m,)
    ||C_i||_2 or a bound on it, so directions C_i cannot see are not inverted."""
    mags = np.abs(lam)
    noise = n * _EPS * scale[:, None]
    return mags > np.maximum(DEFAULT_CTX.cutoff(mags, lam.shape[-1:])[:, None], noise)


@dataclass(frozen=True)
class QpProblem:
    """Problem data (C, F, A, b) for min x'C_i x - 2x'F_i subject to Ax = b.

    C is one (n, n) matrix or a stack (m, n, n), each symmetric positive
    semidefinite.  F is (n,) or (m, n), or (n, k) or (m, n, k) for k
    right-hand sides; A (full row rank, or a :class:`Constraint`) and b,
    (rows,) or (rows, k), are shared by the stack.  Construction checks all of
    it and factors once: one stacked eigvalsh validates every C_i and gives
    ||C_i||_2, the SVD of A gives ``A_pinv`` and an orthonormal basis ``N`` of
    Null(A), and one stacked eigh of N'C_iN gives eigenvectors ``V[i]``, of
    which ``keep[i]`` marks those ``_split`` keeps; ``J[i] = (N'C_iN)^+`` on
    them.  F outside Ran(C_i) has no row target, so C keeps this form.
    """

    C: np.ndarray
    F: np.ndarray
    A: np.ndarray
    b: np.ndarray
    A_pinv: np.ndarray = field(init=False, repr=False)
    N: np.ndarray = field(init=False, repr=False)
    J: np.ndarray = field(init=False, repr=False)
    V: np.ndarray = field(init=False, repr=False)
    keep: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        C, norm_C = symmetric_psd(self.C, "quadratic term", InvalidProblemError)
        con = self.A if isinstance(self.A, Constraint) else Constraint(self.A)
        n = C.shape[-1]
        if con.A.shape[1] != n:
            raise InvalidProblemError(
                f"constraint has {con.A.shape[1]} columns but the quadratic is {n}x{n}"
            )
        F = _as_columns(self.F, C.shape[:-1], "linear term F")
        b = _as_columns(self.b, con.A.shape[:1], "constraint value b")
        if F.shape[C.ndim - 1 :] != b.shape[1:]:
            raise InvalidProblemError(
                f"F and b must have the same columns, got {F.shape} and {b.shape}"
            )
        restricted = con.N.T @ C.reshape(-1, n, n) @ con.N
        w, V = np.linalg.eigh(0.5 * (restricted + restricted.transpose(0, 2, 1)))
        keep = _split(w, np.reshape(norm_C, -1), n)
        # A kept subnormal eigenvalue puts inf into J; solve then rejects x_hat.
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.divide(V, w[:, None], out=np.zeros_like(V), where=keep[:, None])
            J = scaled @ V.transpose(0, 2, 1)
        for name, value in zip(
            ("C", "A", "F", "b", "A_pinv", "N", "J", "V", "keep"),
            (C, con.A, F, b, con.A_pinv, con.N, J, V, keep),
        ):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return self.C.shape[-1]

    def _stack(self):
        """Views of C as (m, n, n), F as (m, n, k) and b as (rows, k)."""
        C = self.C.reshape(-1, self.n, self.n)
        return C, self.F.reshape(len(C), self.n, -1), self.b.reshape(len(self.b), -1)

    def flat(self, i=0):
        """Orthonormal basis of Null(C_i) & Null(A), along which q_i is constant."""
        return self.N @ self.V[i][:, ~self.keep[i]]

    def objective(self, x):
        """q_i(x), one per matrix and column of x shaped like F, formed on (x, F)
        over the power of two of their largest entry: inf or -inf out of range."""
        C, F, _ = self._stack()
        x = np.asarray(x, dtype=float).reshape(F.shape)
        e = np.frexp(np.maximum(np.abs(x), np.abs(F)).max(axis=1, keepdims=True))[1]
        u = np.ldexp(x, -e)
        q = np.einsum("kij,kij->kj", u, C @ u - np.ldexp(F, 1 - e))
        with np.errstate(over="ignore"):
            q = np.ldexp(q, 2 * e[:, 0])
        return q.reshape(np.delete(self.F.shape, self.C.ndim - 2))[()]

    def _require_bounded(self):
        """Raise :class:`UnboundedBelowError` for the first matrix with a column
        of F whose component in Null(C_i) & Null(A) (a descent direction)
        exceeds ``RESIDUAL_TOL`` times the column's norm, with no floor in
        F's units."""
        _, F, _ = self._stack()
        flat = self.N @ (self.V * ~self.keep[:, None])
        directions = flat @ (flat.transpose(0, 2, 1) @ F)
        # The norms square F's entries, so every column is first divided by the
        # exact power of two of its largest entry: that keeps them in range and
        # changes no decision.
        e = -np.frexp(np.abs(F).max(axis=1))[1][:, None]
        tol = RESIDUAL_TOL * np.linalg.norm(np.ldexp(F, e), axis=1)
        bad = np.argwhere(np.linalg.norm(np.ldexp(directions, e), axis=1) > tol)
        if bad.size:
            i, j = bad[0]
            raise UnboundedBelowError(directions[i, :, j], int(i))


@dataclass(frozen=True)
class QpSolution:
    """Minimum-norm minimizers and the solution-set geometry.

    ``x_hat`` has the shape of F.  The solution set of matrix i is
    ``x_hat[i] + span(problem.flat(i))``, and ``x_hat[i]`` is orthogonal to it.
    """

    x_hat: np.ndarray
    problem: QpProblem = field(repr=False)
    branch: str | None = None

    @property
    def value(self):
        """q_i(x_hat_i), formed when read: one per matrix and column."""
        return self.problem.objective(self.x_hat)

    @property
    def null_basis(self):
        """Basis of Null(C) & Null(A); for a stack, a list of one per matrix."""
        flats = [self.problem.flat(i) for i in range(len(self.problem.keep))]
        return flats if self.problem.C.ndim == 3 else flats[0]


def solve(problem: QpProblem) -> QpSolution:
    """Closed-form x_hat_i = J_i F_i + (I - J_i C_i) A^+ b with J_i = (M C_i M)^+.

    M = I - A^+ A is the orthogonal projector onto Null(A).  J_i is evaluated
    through the orthonormal nullspace basis N of A, using the exact identity
    (M C M)^+ = N (N'C N)^+ N', from the problem's stored factorization, for
    the whole stack at once.  x_hat_i is the minimum-norm element of its
    solution set, one column per right-hand side; raises
    :class:`UnboundedBelowError` with a descent certificate for the first
    unbounded matrix.  (F, b) enter over the power of two of their largest
    entry, so C A^+ b stays in range wherever x_hat does; an x_hat out of
    range raises InvalidInputError.
    """
    problem._require_bounded()
    C, F, b = problem._stack()
    N = problem.N
    e = np.frexp(max(np.abs(F).max(), np.abs(b).max()))[1]
    x_part = problem.A_pinv @ np.ldexp(b, -e)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        x = x_part + N @ (problem.J @ (N.T @ (np.ldexp(F, -e) - C @ x_part)))
        x = np.ldexp(x, e).reshape(problem.F.shape)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("the minimizer x_hat leaves the float range")
    return QpSolution(x, problem)


def _lsq(B, Y, con, b):
    """Min-norm minimizers of ||B_i x - Y_i||^2 subject to Ax = b, for a stack.

    :class:`QpProblem` with C_i = B_i'B_i and F_i = B_i'Y_i in square-root
    form, for B (m, r, n), Y (m, r, k), a :class:`Constraint` and b (rows, k):
    with x = A^+ b + N z, one stacked SVD B_i N = U S V' gives
    z = V S^+ U'(Y_i - B_i A^+ b), split by :func:`_split` on s^2 with scale
    ||B_i||_F^2 >= ||C_i||_2.  F_i lies in Ran(C_i), so nothing is unbounded.
    Returns x, the residuals Y - B x, V and ``keep``: matrix i's flat basis
    is ``(N V)[i][:, ~keep[i]]``.
    """
    x0 = con.A_pinv @ b
    U, s, Vt = np.linalg.svd(B @ con.N)
    k = s.shape[-1]
    lam = np.zeros(Vt.shape[:-1])
    lam[:, :k] = s**2
    keep = _split(lam, np.einsum("mij,mij->m", B, B), con.A.shape[1])
    s_pinv = np.divide(1.0, s, out=np.zeros_like(s), where=keep[:, :k])
    V = Vt.transpose(0, 2, 1)
    proj = U[..., :k].transpose(0, 2, 1) @ (Y - B @ x0)
    x = x0 + con.N @ (V[..., :k] @ (s_pinv[..., None] * proj))
    return x, Y - B @ x, V, keep


def _oblique_constraint_projector(C, A):
    """Projector P onto the complement of Null(A) adapted to Ran(C), with C^+.

    C is a validated symmetric PSD matrix and A the full-row-rank constraint.
    The image space is (I - C C^+) Ran(A')  (+)  C^+ (Ran(A') & Ran(C)); when
    every row of A lies in Ran(C) the first part is empty and the projector
    reduces to C^+ A' (A C^+ A')^+ A (branch "direct", else "complement").
    One SVD of C gives C^+ and a basis Z of Null(C) under one rank cutoff.
    Both parts are carved out of Ran(A') by one SVD of its component Z'Q_A in
    Null(C) (0 x k, with V = I, for an invertible C), which keeps the two
    dimension decisions consistent and the total number of image directions
    equal to the row count of A.  One SVD of A U per demotion turn both tests
    the image's conditioning and gives (A U)^+ under the rank cutoff.
    """
    Q_A = range_basis(A.T)
    E, s, Et = np.linalg.svd(C)
    r = int(np.sum(s > DEFAULT_CTX.cutoff(s, C.shape)))
    C_pinv, Z = (Et[:r].T / s[:r]) @ E[:, :r].T, Et[r:].T
    # Entries of coeff carry absolute noise ~ n*eps (orthonormal factors), so
    # the rank cutoff needs an absolute floor, not just a relative one.
    coeff = Z.T @ Q_A
    Uc, sc, Vch = np.linalg.svd(coeff)
    cut = max(DEFAULT_CTX.cutoff(sc, coeff.shape), 8.0 * len(C) * _EPS)
    rank_out = int(np.sum(sc > cut))
    # A spurious "outside" direction (pure roundoff in Null(C)) makes A U
    # nearly singular; demote directions until the image is well-conditioned.
    while True:
        U = np.hstack([Z @ Uc[:, :rank_out], C_pinv @ (Q_A @ Vch[rank_out:].T)])
        # Column scaling leaves the projector invariant; normalize it away,
        # first by an exact power of two so that the norm stays in range.
        U = np.ldexp(U, -np.frexp(np.abs(U).max(axis=0))[1])
        norms = np.linalg.norm(U, axis=0)
        U = U / np.where(norms > 0, norms, 1.0)
        W, sv, Xh = np.linalg.svd(A @ U, full_matrices=False)
        if rank_out == 0 or sv[-1] > 1e-8 * sv[0]:
            break
        rank_out -= 1
    k = int(np.sum(sv > DEFAULT_CTX.cutoff(sv, (len(A), U.shape[1]))))
    branch = "direct" if rank_out == 0 else "complement"
    return U @ ((Xh[:k].T / sv[:k]) @ W[:, :k].T) @ A, C_pinv, branch


def _solve_alt(problem):
    """:func:`solve_alt` and the projector P of its validated C and A."""
    problem._require_bounded()
    P, C_pinv, branch = _oblique_constraint_projector(problem.C, problem.A)
    eye = np.eye(problem.n)
    x_part = problem.A_pinv @ problem.b
    x_hat = (eye - P) @ C_pinv @ (eye - P.T) @ problem.F + P @ x_part
    return QpSolution(x_hat, problem, branch), P


def solve_alt(problem: QpProblem) -> QpSolution:
    """Same minimizer as :func:`solve` for a single C, via the oblique projector.

    x_hat = (I - P) C^+ (I - P') F + P A^+ b, where P projects along Null(A)
    onto an image space adapted to Ran(C).  The branch taken ("direct" when
    every row of A lies in Ran(C), else "complement") is reported on the
    solution; boundedness, A^+ and the basis are shared with :func:`solve`.
    This is Theorem T:explicit for both branches in one formula;
    :func:`mvhedge.engine.adjustment_explicit` is it with A = ones'.
    """
    return _solve_alt(problem)[0]
