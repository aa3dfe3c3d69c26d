"""Equality-constrained quadratic optimization in closed form.

Minimizes q(x) = x'Cx - 2x'F over the affine set {x : Ax = b} for symmetric
positive-semidefinite C, using pseudoinverse projectors.  Rank deficiency in C
is handled exactly: the full solution set is an affine subspace and the
reported minimizer is its minimum-norm element.  One eigendecomposition of the
quadratic restricted to Null(A), taken once per problem, decides boundedness,
minimizer and solution set for every right-hand side.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_CTX,
    InvalidInputError,
    null_basis,
    pinv,
    range_basis,
    symmetric_psd,
)

__all__ = [
    "InvalidProblemError",
    "UnboundedBelowError",
    "QpProblem",
    "QpSolution",
    "check_bounded",
    "solve",
    "solve_alt",
    "constrained_lsq",
]


class InvalidProblemError(ValueError):
    """Raised when a problem violates its structural requirements."""


class UnboundedBelowError(Exception):
    """The objective is unbounded below on the constraint set.

    Carries a certificate: a feasible direction ``direction`` with
    ``A @ direction = 0``, ``C @ direction = 0`` and ``F @ direction > 0``,
    along which the objective decreases without bound.
    """

    def __init__(self, direction):
        self.direction = np.asarray(direction, dtype=float)
        super().__init__(
            "objective is unbounded below on the constraint set; "
            "the linear term has a component outside Ran(A') + Ran(C)"
        )


def _as_columns(v, rows, name):
    """(rows,) or (rows, m) float array; a scalar counts as one entry."""
    x = np.atleast_1d(np.asarray(v, dtype=float))
    if x.ndim > 2 or x.shape[0] != rows:
        raise InvalidProblemError(f"{name} must have {rows} rows, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return x


def _constraint(A, ctx):
    """Validate A (full row rank); return A, A^+ and a basis of Null(A) from one SVD."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("constraint matrix contains non-finite entries")
    if A.ndim > 2 or A.shape[0] > A.shape[1]:
        raise InvalidProblemError(
            f"constraint matrix must be k x n with k <= n, got shape {A.shape}"
        )
    k, n = A.shape
    U, s, Vh = np.linalg.svd(A)
    cut = ctx.cutoff(s, A.shape)
    if s[-1] <= cut:
        raise InvalidProblemError(
            "constraint matrix is (numerically) row rank deficient; "
            f"rank {int(np.sum(s > cut))} < {k}"
        )
    return A, (Vh[:k].T / s) @ U.T, Vh[k:].T


@dataclass(frozen=True)
class QpProblem:
    """Problem data (C, F, A, b) for min x'Cx - 2x'F subject to Ax = b.

    C must be symmetric positive semidefinite and A must have full row rank.
    Construction checks both and factors (C, A) once: the eigvalsh that
    validates C also gives ||C||_2, one SVD of A gives ``A_pinv`` and an
    orthonormal basis ``N`` of Null(A), and one eigh of N'CN, split at
    ``max(max(shape) * eps * |lambda|_max, n * eps * ||C||_2)`` so that
    directions C cannot see are never inverted, gives ``J = (N'CN)^+`` and
    ``flat``, a basis of Null(C) & Null(A).  F may be (n,) or (n, m) and b
    (k,) or (k, m): columns are right-hand sides of the one factorization.
    """

    C: np.ndarray
    F: np.ndarray
    A: np.ndarray
    b: np.ndarray
    ctx: "object" = field(default=DEFAULT_CTX, repr=False)
    A_pinv: np.ndarray = field(init=False, repr=False)
    N: np.ndarray = field(init=False, repr=False)
    J: np.ndarray = field(init=False, repr=False)
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ctx = self.ctx
        C, norm_C = symmetric_psd(self.C, "quadratic term", InvalidProblemError, ctx)
        A, A_pinv, N = _constraint(self.A, ctx)
        n = C.shape[0]
        if A.shape[1] != n:
            raise InvalidProblemError(
                f"constraint has {A.shape[1]} columns but the quadratic is {n}x{n}"
            )
        F = _as_columns(self.F, n, "linear term F")
        b = _as_columns(self.b, A.shape[0], "constraint value b")
        if F.shape[1:] != b.shape[1:]:
            raise InvalidProblemError(
                f"F and b must have the same columns, got {F.shape} and {b.shape}"
            )
        restricted = N.T @ C @ N
        w, V = np.linalg.eigh(0.5 * (restricted + restricted.T))
        mags = np.abs(w)
        noise = n * np.finfo(float).eps * norm_C
        keep = mags > max(ctx.cutoff(np.sort(mags)[::-1], restricted.shape), noise)
        J = (V[:, keep] / w[keep]) @ V[:, keep].T
        for name, value in zip(
            ("C", "A", "F", "b", "A_pinv", "N", "J", "flat"),
            (C, A, F, b, A_pinv, N, J, N @ V[:, ~keep]),
        ):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return self.C.shape[0]

    def objective(self, x):
        """q(x) = x'Cx - 2x'F; column by column when F has columns."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(x @ self.C @ x - 2.0 * x @ self.F)
        return np.einsum("ij,ij->j", x, self.C @ x - 2.0 * self.F)

    def _require_bounded(self):
        """Raise :class:`UnboundedBelowError` for the first column of F whose
        component in ``flat`` (a descent direction) exceeds the tolerance."""
        F = self.F.reshape(self.n, -1)
        directions = self.flat @ (self.flat.T @ F)
        tol = self.ctx.residual_tol * (1.0 + np.linalg.norm(F, axis=0))
        bad = np.flatnonzero(np.linalg.norm(directions, axis=0) > tol)
        if bad.size:
            raise UnboundedBelowError(directions[:, bad[0]])


@dataclass(frozen=True)
class QpSolution:
    """Minimum-norm minimizer, optimal value, and the solution-set geometry.

    The full solution set is ``x_hat + span(null_basis)`` where the basis
    spans Null(C) & Null(A); ``x_hat`` is orthogonal to it.  ``x_hat`` and
    ``value`` have one column (entry) per right-hand side when F has columns.
    """

    x_hat: np.ndarray
    value: float | np.ndarray
    null_basis: np.ndarray
    branch: str | None = None


def check_bounded(C, F, A, ctx=DEFAULT_CTX):
    """True iff x'Cx - 2x'F is bounded below on every {x : Ax = b}.

    The criterion is F in Ran(A') + Ran(C) for every column of F, as in solve.
    """
    b = np.zeros(np.shape(np.atleast_2d(A))[:1] + np.shape(F)[1:])
    try:
        QpProblem(C=C, F=F, A=A, b=b, ctx=ctx)._require_bounded()
    except UnboundedBelowError:
        return False
    return True


def solve(problem: QpProblem) -> QpSolution:
    """Closed-form minimizer x_hat = J F + (I - J C) A^+ b with J = (M C M)^+.

    M = I - A^+ A is the orthogonal projector onto Null(A).  J is evaluated
    through the orthonormal nullspace basis N of A, using the exact identity
    (M C M)^+ = N (N'C N)^+ N', from the problem's stored factorization.
    x_hat is the minimum-norm element of the solution set, one column per
    right-hand side; raises :class:`UnboundedBelowError` with a descent
    certificate for the first unbounded column.
    """
    problem._require_bounded()
    C, F, N = problem.C, problem.F, problem.N
    x_part = problem.A_pinv @ problem.b
    x_hat = x_part + N @ (problem.J @ (N.T @ (F - C @ x_part)))
    return QpSolution(x_hat, problem.objective(x_hat), problem.flat)


def _oblique_constraint_projector(problem, C_pinv):
    """Projector onto the complement of Null(A) adapted to Ran(C).

    The image space is (I - C C^+) Ran(A')  (+)  C^+ (Ran(A') & Ran(C)); when
    every row of A lies in Ran(C) the first part is empty and the projector
    reduces to C^+ A' (A C^+ A')^+ A (branch "direct", else "complement").
    Both parts are carved out of Ran(A') by one SVD of its component in
    Null(C), which keeps the two dimension decisions consistent and the total
    number of image directions equal to the row count of A.
    """
    ctx = problem.ctx
    C, A = problem.C, problem.A
    Q_A = range_basis(A.T, ctx)
    Z = null_basis(C, ctx)
    if Z.shape[1]:
        # One SVD splits Ran(A') into its parts outside and inside Ran(C);
        # entries of coeff carry absolute noise ~ n*eps (orthonormal factors),
        # so the rank cutoff needs an absolute floor, not just a relative one.
        coeff = Z.T @ Q_A
        Uc, sc, Vch = np.linalg.svd(coeff)
        cut = max(ctx.cutoff(sc, coeff.shape), 8.0 * problem.n * np.finfo(float).eps)
        rank_out = int(np.sum(sc > cut))
    else:
        coeff = Uc = Vch = None
        rank_out = 0

    def assemble(r_out):
        blocks = []
        if r_out:
            blocks.append(Z @ Uc[:, :r_out])
        inside = Vch[r_out:].T if coeff is not None else np.eye(Q_A.shape[1])
        if inside.shape[1]:
            blocks.append(C_pinv @ (Q_A @ inside))
        U = np.hstack(blocks)
        # Column scaling leaves the projector invariant; normalize it away.
        norms = np.linalg.norm(U, axis=0)
        return U / np.where(norms > 0, norms, 1.0)

    # A spurious "outside" direction (pure roundoff in Null(C)) makes A U
    # nearly singular; demote directions until the image is well-conditioned.
    while True:
        U = assemble(rank_out)
        sv = np.linalg.svd(A @ U, compute_uv=False)
        if rank_out == 0 or sv[-1] > 1e-8 * sv[0]:
            break
        rank_out -= 1
    branch = "direct" if rank_out == 0 else "complement"
    return U @ pinv(A @ U, ctx) @ A, branch


def solve_alt(problem: QpProblem) -> QpSolution:
    """Same minimizer as :func:`solve`, via the oblique-projector representation.

    x_hat = (I - P) C^+ (I - P') F + P A^+ b, where P projects along Null(A)
    onto an image space adapted to Ran(C).  The branch taken ("direct" when
    every row of A lies in Ran(C), else "complement") is reported on the
    solution; boundedness, A^+ and the basis are shared with :func:`solve`.
    """
    problem._require_bounded()
    C_pinv = pinv(problem.C, problem.ctx)
    P, branch = _oblique_constraint_projector(problem, C_pinv)
    eye = np.eye(problem.n)
    x_part = problem.A_pinv @ problem.b
    x_hat = (eye - P) @ C_pinv @ (eye - P.T) @ problem.F + P @ x_part
    return QpSolution(x_hat, problem.objective(x_hat), problem.flat, branch)


def constrained_lsq(A1, b1, A2, b2, ctx=DEFAULT_CTX):
    """Minimum-norm minimizer of ||A1 x - b1||^2 subject to A2 x = b2.

    Requires A2 of full row rank.  The minimizer is
    x = (A1 M)^+ A1 A1^+ b1 + (I - (A1 M)^+ A1) A2^+ b2 with M = I - A2^+ A2;
    it is evaluated through an orthonormal nullspace basis N of A2 via the
    exact identity (A1 M)^+ = N (A1 N)^+.
    """
    A1 = np.asarray(A1, dtype=float)
    if A1.ndim == 1:
        A1 = A1.reshape(1, -1)
    if not np.all(np.isfinite(A1)):
        raise InvalidInputError("A1 contains non-finite entries")
    A2, A2_pinv, N = _constraint(A2, ctx)
    n = A1.shape[1]
    if A2.shape[1] != n:
        raise InvalidProblemError("A1 and A2 must have the same number of columns")
    b1 = _as_columns(np.ravel(b1), A1.shape[0], "b1")
    b2 = _as_columns(np.ravel(b2), A2.shape[0], "b2")
    x_part = A2_pinv @ b2
    if N.shape[1] == 0:
        return x_part
    target = A1 @ (pinv(A1, ctx) @ b1) - A1 @ x_part
    return x_part + N @ (pinv(A1 @ N, ctx) @ target)
