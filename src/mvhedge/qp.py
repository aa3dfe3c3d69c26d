"""Equality-constrained quadratic optimization in closed form.

Minimizes q_i(x) = x'C_i x - 2x'F_i over the affine set {x : Ax = b} for each
symmetric positive-semidefinite C_i of a stack (one C is a stack of one), using
pseudoinverse projectors.  Rank deficiency in C_i is handled exactly: the full
solution set is an affine subspace and the reported minimizer is its
minimum-norm element.  One SVD of A, which a :class:`Constraint` shares between
problems, and one stacked eigendecomposition of the quadratics restricted to
Null(A) decide boundedness, minimizer and solution set for the whole stack.
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
    "Constraint",
    "QpProblem",
    "QpSolution",
    "check_bounded",
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
    ctx: "object" = field(default=DEFAULT_CTX, repr=False)
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
        cut = self.ctx.cutoff(s, A.shape)
        if s[-1] <= cut:
            raise InvalidProblemError(
                "constraint matrix is (numerically) row rank deficient; "
                f"rank {int(np.sum(s > cut))} < {len(A)}"
            )
        pinv_A, N = (Vh[: len(A)].T / s) @ U.T, Vh[len(A) :].T
        for name, value in zip(("A", "A_pinv", "N"), (A, pinv_A, N)):
            object.__setattr__(self, name, value)


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
    which ``keep[i]`` marks those with eigenvalues above
    ``max(max(shape) * eps * |lambda|_max, n * eps * ||C_i||_2)`` (directions
    C_i cannot see are never inverted); ``J[i] = (N'C_iN)^+`` on them.
    """

    C: np.ndarray
    F: np.ndarray
    A: np.ndarray
    b: np.ndarray
    ctx: "object" = field(default=DEFAULT_CTX, repr=False)
    A_pinv: np.ndarray = field(init=False, repr=False)
    N: np.ndarray = field(init=False, repr=False)
    J: np.ndarray = field(init=False, repr=False)
    V: np.ndarray = field(init=False, repr=False)
    keep: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ctx = self.ctx
        C, norm_C = symmetric_psd(self.C, "quadratic term", InvalidProblemError, ctx)
        con = self.A if isinstance(self.A, Constraint) else Constraint(self.A, ctx)
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
        mags = np.abs(w)
        noise = n * np.finfo(float).eps * np.reshape(norm_C, (-1, 1))
        keep = mags > np.maximum(ctx.cutoff(mags, restricted.shape[1:])[:, None], noise)
        scaled = np.divide(V, w[:, None], out=np.zeros_like(V), where=keep[:, None])
        for name, value in zip(
            ("C", "A", "F", "b", "A_pinv", "N", "J", "V", "keep"),
            (C, con.A, F, b, con.A_pinv, con.N, scaled @ V.transpose(0, 2, 1), V, keep),
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
        """q_i(x) for x shaped like F: one value per matrix and column."""
        C, F, _ = self._stack()
        x = np.asarray(x, dtype=float).reshape(F.shape)
        q = np.einsum("kij,kij->kj", x, C @ x - 2.0 * F)
        return q.reshape(np.delete(self.F.shape, self.C.ndim - 2))[()]

    def _require_bounded(self):
        """Raise :class:`UnboundedBelowError` for the first matrix with a column
        of F whose component in Null(C_i) & Null(A) (a descent direction)
        exceeds the tolerance."""
        _, F, _ = self._stack()
        flat = self.N @ (self.V * ~self.keep[:, None])
        directions = flat @ (flat.transpose(0, 2, 1) @ F)
        tol = self.ctx.residual_tol * (1.0 + np.linalg.norm(F, axis=1))
        bad = np.argwhere(np.linalg.norm(directions, axis=1) > tol)
        if bad.size:
            i, j = bad[0]
            raise UnboundedBelowError(directions[i, :, j], int(i))


@dataclass(frozen=True)
class QpSolution:
    """Minimum-norm minimizers, optimal values, and the solution-set geometry.

    ``x_hat`` has the shape of F and ``value`` one entry per matrix and column
    (a float for one of each).  The solution set of matrix i is
    ``x_hat[i] + span(problem.flat(i))``, and ``x_hat[i]`` is orthogonal to it.
    """

    x_hat: np.ndarray
    value: float | np.ndarray
    problem: QpProblem = field(repr=False)
    branch: str | None = None

    @property
    def null_basis(self):
        """Basis of Null(C) & Null(A); for a stack, a list of one per matrix."""
        flats = [self.problem.flat(i) for i in range(len(self.problem.keep))]
        return flats if self.problem.C.ndim == 3 else flats[0]


def check_bounded(C, F, A, ctx=DEFAULT_CTX):
    """True iff x'C_ix - 2x'F_i is bounded below on every {x : Ax = b}.

    The criterion is F_i in Ran(A') + Ran(C_i) for every column, as in solve.
    """
    b = np.zeros(np.shape(np.atleast_2d(A))[:1] + np.shape(F)[np.ndim(C) - 1 :])
    try:
        QpProblem(C=C, F=F, A=A, b=b, ctx=ctx)._require_bounded()
    except UnboundedBelowError:
        return False
    return True


def solve(problem: QpProblem) -> QpSolution:
    """Closed-form x_hat_i = J_i F_i + (I - J_i C_i) A^+ b with J_i = (M C_i M)^+.

    M = I - A^+ A is the orthogonal projector onto Null(A).  J_i is evaluated
    through the orthonormal nullspace basis N of A, using the exact identity
    (M C M)^+ = N (N'C N)^+ N', from the problem's stored factorization, for
    the whole stack at once.  x_hat_i is the minimum-norm element of its
    solution set, one column per right-hand side; raises
    :class:`UnboundedBelowError` with a descent certificate for the first
    unbounded matrix.
    """
    problem._require_bounded()
    C, F, b = problem._stack()
    N = problem.N
    x_part = problem.A_pinv @ b
    x = x_part + N @ (problem.J @ (N.T @ (F - C @ x_part)))
    return QpSolution(x.reshape(problem.F.shape), problem.objective(x), problem)


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
    """Same minimizer as :func:`solve` for a single C, via the oblique projector.

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
    return QpSolution(x_hat, problem.objective(x_hat), problem, branch)
