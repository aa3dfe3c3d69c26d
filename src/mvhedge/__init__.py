"""Quadratic hedging and mean-variance frontiers without a risk-free asset.

Library layout: ``linalg`` (pseudoinverse, projectors, subspaces), ``qp``
(equality-constrained quadratic programs in closed form), ``models`` (IID,
piecewise-constant Ito, and finite-tree markets), ``engine`` (hedging
coefficients and value processes), ``frontier`` (efficient frontier),
``oracle`` (DP ground truth, numeraire checks, Monte Carlo), ``cli``.
"""

from .engine import (
    ClosedFormResult,
    HedgeCoefficients,
    LocalArbitrageError,
    TreeSolution,
    ValueProcesses,
    adjustment,
    adjustment_explicit,
    closed_form_values,
    hedging_error,
    myopic_minvar,
    tree_backward,
)
from .frontier import (
    DegenerateFrontierError,
    FrontierCurve,
    FrontierTriple,
    efficient_threshold,
    frontier_coeffs,
)
from .linalg import (
    DEFAULT_CTX,
    InvalidInputError,
    NumericContext,
    oblique_projector,
    orth_projector,
    pinv,
)
from .models import (
    Claim,
    FiniteTreeModel,
    IidDiscreteModel,
    InvalidModelError,
    InvalidNumeraireError,
    PiiItoModel,
    discount_tree,
    load_config,
)
from .oracle import (
    DpResult,
    NumeraireCheckReport,
    SimReport,
    dp_solve,
    mc_simulate,
    numeraire_change_check,
)
from .qp import (
    InvalidProblemError,
    QpProblem,
    QpSolution,
    UnboundedBelowError,
    solve,
    solve_alt,
)

__version__ = "0.1.0"
