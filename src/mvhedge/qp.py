"""Equality-constrained quadratic optimization in closed form.

Minimizes q(x) = x'Cx - 2x'F over the affine set {x : Ax = b} for symmetric
positive-semidefinite C, using pseudoinverse projectors.  Rank deficiency in C
is handled exactly: the full solution set is an affine subspace and the
reported minimizer is its minimum-norm element.  One eigendecomposition of the
quadratic restricted to Null(A) decides boundedness, minimizer and solution set.
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


def _as_vector(v, n, name):
    x = np.asarray(v, dtype=float).ravel()
    if x.shape != (n,):
        raise InvalidProblemError(f"{name} must have length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return x


def _validate_constraint(A, ctx):
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("constraint matrix contains non-finite entries")
    k, n = A.shape
    if k > n:
        raise InvalidProblemError(f"more constraints ({k}) than variables ({n})")
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= ctx.cutoff(s, A.shape):
        raise InvalidProblemError(
            "constraint matrix is (numerically) row rank deficient; "
            f"rank {int(np.sum(s > ctx.cutoff(s, A.shape)))} < {k}"
        )
    return A


@dataclass(frozen=True)
class QpProblem:
    """Problem data (C, F, A, b) for min x'Cx - 2x'F subject to Ax = b.

    C must be symmetric positive semidefinite and A must have full row rank;
    both are checked on construction.
    """

    C: np.ndarray
    F: np.ndarray
    A: np.ndarray
    b: np.ndarray
    ctx: "object" = field(default=DEFAULT_CTX, repr=False)

    def __post_init__(self):
        C = symmetric_psd(self.C, "quadratic term", InvalidProblemError, self.ctx)
        A = _validate_constraint(self.A, self.ctx)
        n = C.shape[0]
        if A.shape[1] != n:
            raise InvalidProblemError(
                f"constraint has {A.shape[1]} columns but the quadratic is {n}x{n}"
            )
        F = _as_vector(self.F, n, "linear term F")
        b = _as_vector(self.b, A.shape[0], "constraint value b")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "b", b)

    @property
    def n(self):
        return self.C.shape[0]

    @property
    def k(self):
        return self.A.shape[0]

    def objective(self, x):
        x = np.asarray(x, dtype=float)
        return float(x @ self.C @ x - 2.0 * x @ self.F)


@dataclass(frozen=True)
class QpSolution:
    """Minimum-norm minimizer, optimal value, and the solution-set geometry.

    The full solution set is ``x_hat + span(null_basis)`` where the basis
    spans Null(C) & Null(A); ``x_hat`` is orthogonal to it.
    """

    x_hat: np.ndarray
    value: float
    null_basis: np.ndarray
    branch: str | None = None


def check_bounded(C, F, A, ctx=DEFAULT_CTX):
    """True iff x'Cx - 2x'F is bounded below on every {x : Ax = b}.

    The criterion is F in Ran(A') + Ran(C), tested as in :func:`solve`.
    """
    C = symmetric_psd(C, "quadratic term", InvalidProblemError, ctx)
    A = _validate_constraint(A, ctx)
    F = _as_vector(F, C.shape[0], "linear term F")
    try:
        _factor(C, F, A, ctx)
    except UnboundedBelowError:
        return False
    return True


def _factor(C, F, A, ctx):
    """Factor validated data once: returns (A^+, N, (N'CN)^+, flat).

    One full SVD of A gives A^+ and an orthonormal basis N of Null(A).  One
    eigh of N'CN, split at ``max(max(shape) * eps * |lambda|_max, n * eps *
    ||C||_2)`` so that directions C cannot see are never inverted, gives
    (N'CN)^+ and its kernel Z.  For PSD C, ``flat = N Z`` spans Null(C) &
    Null(A), the complement of Ran(C) + Ran(A'); F's component in it is a
    descent direction, raised as :class:`UnboundedBelowError` when it exceeds
    the residual tolerance.
    """
    k, n = A.shape
    U, s, Vh = np.linalg.svd(A)
    A_pinv = (Vh[:k].T / s) @ U.T
    N = Vh[k:].T
    restricted = N.T @ C @ N
    w, V = np.linalg.eigh(0.5 * (restricted + restricted.T))
    mags = np.abs(w)
    noise = n * np.finfo(float).eps * float(np.linalg.norm(C, 2))
    keep = mags > max(ctx.cutoff(np.sort(mags)[::-1], restricted.shape), noise)
    J = (V[:, keep] / w[keep]) @ V[:, keep].T
    flat = N @ V[:, ~keep]
    direction = flat @ (flat.T @ F)
    if np.linalg.norm(direction) > ctx.residual_tol * (1.0 + np.linalg.norm(F)):
        raise UnboundedBelowError(direction)
    return A_pinv, N, J, flat


def solve(problem: QpProblem) -> QpSolution:
    """Closed-form minimizer x_hat = J F + (I - J C) A^+ b with J = (M C M)^+.

    M = I - A^+ A is the orthogonal projector onto Null(A).  J is evaluated
    through the orthonormal nullspace basis N of A, using the exact identity
    (M C M)^+ = N (N'C N)^+ N'.  Boundedness, the minimizer and the solution
    set all come from one split of the eigenvalues of N'CN (see
    :func:`_factor`).  x_hat is the minimum-norm element of the solution set;
    raises :class:`UnboundedBelowError` with a descent certificate otherwise.
    """
    C, F, A, b = problem.C, problem.F, problem.A, problem.b
    A_pinv, N, J, flat = _factor(C, F, A, problem.ctx)
    x_part = A_pinv @ b
    x_hat = x_part + N @ (J @ (N.T @ (F - C @ x_part)))
    return QpSolution(x_hat=x_hat, value=problem.objective(x_hat), null_basis=flat)


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
    ctx = problem.ctx
    C, F, A, b = problem.C, problem.F, problem.A, problem.b
    A_pinv, _, _, flat = _factor(C, F, A, ctx)
    C_pinv = pinv(C, ctx)
    P, branch = _oblique_constraint_projector(problem, C_pinv)
    eye = np.eye(problem.n)
    x_hat = (eye - P) @ C_pinv @ (eye - P.T) @ F + P @ (A_pinv @ b)
    return QpSolution(
        x_hat=x_hat,
        value=problem.objective(x_hat),
        null_basis=flat,
        branch=branch,
    )


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
    A2 = _validate_constraint(A2, ctx)
    n = A1.shape[1]
    if A2.shape[1] != n:
        raise InvalidProblemError("A1 and A2 must have the same number of columns")
    b1 = _as_vector(b1, A1.shape[0], "b1")
    b2 = _as_vector(b2, A2.shape[0], "b2")
    x_part = pinv(A2, ctx) @ b2
    N = null_basis(A2, ctx)
    if N.shape[1] == 0:
        return x_part
    target = A1 @ (pinv(A1, ctx) @ b1) - A1 @ x_part
    return x_part + N @ (pinv(A1 @ N, ctx) @ target)
