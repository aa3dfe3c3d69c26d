"""Command-line interface: load a model config, solve, print, and emit CSV.

Commands
--------
frontier   opportunity/tracking/error triple and both frontier equations
hedge      per-node hedging table and total hedging error on a tree
oracle     dynamic-programming and numeraire-change consistency checks
simulate   seeded Monte Carlo of the optimal feedback strategy (exact on a tree)
solve-qp   raw access to the constrained quadratic solver

Exit codes: 0 success, 2 invalid input or model (including a factorization
that fails on it, numpy's LinAlgError), 3 verification failure.
Numbers are printed at 12 significant digits; identical config and seed give
byte-identical outputs.
"""

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import engine, frontier, models, oracle, qp
from .linalg import InvalidInputError

__all__ = ["main"]


def _fmt(x):
    return f"{float(x):.12g}"


def _fmt_vec(v):
    return "[" + ", ".join(_fmt(x) for x in np.asarray(v).ravel()) + "]"


def _load(args):
    model, claim, wealth, step = models.load_config(args.model)
    if args.claim is not None:
        claim = models.Claim(constant=args.claim)
    if args.wealth is not None:
        wealth = models._amount(args.wealth, "--wealth")
    return model, claim, wealth, step


def _require_tree(model, claim):
    if not isinstance(model, models.FiniteTreeModel):
        raise models.InvalidModelError("this command requires a tree model")
    if claim is None:
        raise models.InvalidModelError(
            "a claim is required: give --claim or a payoff map in the config"
        )


def cmd_frontier(args):
    """Opportunity/tracking/error triple and both frontier equations."""
    model = models.load_config(args.model)[0]
    if isinstance(model, models.FiniteTreeModel):
        values = engine.tree_backward(model, models.Claim.constant_one())
    else:
        values = engine.closed_form_values(model).values
    triple = frontier.FrontierTriple.from_values(values)
    sm, var = frontier.frontier_coeffs(triple)
    print(f"L0 = {_fmt(triple.L0)}")
    print(f"V0(1) = {_fmt(triple.V0_1)}")
    print(f"eps2_0(1) = {_fmt(triple.eps2_0_1)}")
    print(
        "second moment: E[R^2] = "
        f"{_fmt(sm.intercept)} + {_fmt(sm.slope)}*(E[R] - {_fmt(sm.center)})^2"
    )
    print(
        "variance: Var(R) = "
        f"{_fmt(var.intercept)} + {_fmt(var.slope)}*(E[R] - {_fmt(var.center)})^2"
    )
    lam, mean_min = frontier.efficient_threshold(triple)
    print(f"efficient for means >= {_fmt(mean_min)} (two-fund weight {_fmt(lam)})")
    if args.out:
        means = np.linspace(var.center - 1.0, var.center + 1.0, 201)
        frontier.write_frontier_csv(args.out, sm, var, means)
        print(f"wrote {args.out}")
    return 0


def cmd_hedge(args):
    """Per-node hedging table and total hedging error on a tree."""
    model, claim, wealth, _ = _load(args)
    _require_tree(model, claim)
    solution = engine.tree_backward(model, claim)
    if wealth is None:
        wealth = solution.V0
    d = model.d
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["node", "time", "L", "V", "eps2"]
                + [f"a_{i + 1}" for i in range(d)]
                + [f"xi_{i + 1}" for i in range(d)]
            )
            portfolios = np.hstack([solution.a, solution.xi])
            for i, nid in enumerate(model.ids):
                row = [nid, model.time[i]]
                row += [_fmt(x[i]) for x in (solution.L, solution.V, solution.eps2)]
                if i < len(portfolios):
                    row += [_fmt(x) for x in portfolios[i]]
                else:
                    row += [""] * (2 * d)
                writer.writerow(row)
        print(f"wrote {args.out}")
    print(f"L0 = {_fmt(solution.L0)}")
    print(f"V0 = {_fmt(solution.V0)}")
    print(f"eps2_0 = {_fmt(solution.eps2_0)}")
    print(f"wealth = {_fmt(wealth)}")
    print(f"hedging error = {_fmt(engine.hedging_error(solution, wealth))}")
    return 0


def cmd_oracle(args):
    """Dynamic-programming and numeraire-change consistency checks."""
    model, claim, wealth, _ = _load(args)
    _require_tree(model, claim)
    if wealth is None:
        wealth = 0.0
    tol = args.tol if args.tol is not None else 1e-9
    if not tol >= 0:
        raise InvalidInputError(f"--tol must be non-negative, got {tol}")
    result, reports = oracle._numeraire_reports(
        model, claim, model.positive_assets(), wealth
    )
    print(f"dp objective at wealth {_fmt(wealth)} = {_fmt(result.objective)}")
    failures = 0
    for report in reports:
        ok = report.passed(tol)
        failures += 0 if ok else 1
        print(
            f"numeraire asset {report.numeraire_index + 1}: {'PASS' if ok else 'FAIL'} "
            f"(objective gap {_fmt(report.objective_gap)}, "
            f"max holdings gap {_fmt(report.max_holdings_gap)}, "
            f"E[X_T^2] {_fmt(report.terminal_second_moment)})"
        )
    if failures:
        print(f"{failures} numeraire check(s) failed beyond tolerance {tol}")
        return 3
    return 0


def cmd_simulate(args):
    """Seeded Monte Carlo of the optimal feedback strategy (exact on a tree)."""
    model, claim, wealth, step = _load(args)
    if wealth is None:
        wealth = 0.0
    seed = args.seed if args.seed is not None else 0
    n_paths = args.paths if args.paths is not None else 100_000
    if isinstance(model, models.FiniteTreeModel):
        _require_tree(model, claim)
        solution = engine.tree_backward(model, claim)
        report = oracle.mc_simulate(model, solution, None, claim, wealth, n_paths, seed)
        analytic = engine.hedging_error(solution, wealth)
    else:
        if claim is None:
            claim = models.Claim.constant_one()
        result = engine.closed_form_values(model)
        if isinstance(model, models.PiiItoModel) and step is None:
            step = min(s.duration for s in model.segments) / 100.0
        report = oracle.mc_simulate(
            model, result.coeffs, result.values, claim, wealth, n_paths, seed, step=step
        )
        analytic = engine.hedging_error(result.values, wealth)
    print(f"paths = {report.n_paths}")
    print(f"seed = {report.seed}")
    print(f"exact = {report.exact}")
    print(f"empirical error second moment = {_fmt(report.error_second_moment)}")
    print(f"empirical error mean = {_fmt(report.error_mean)}")
    print(f"standard error = {_fmt(report.std_error)}")
    print(f"analytic hedging error = {_fmt(analytic)}")
    return 0


def cmd_solve_qp(args):
    """Raw access to the constrained quadratic solver."""
    with open(args.model, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise models.InvalidModelError("a QP file must be a mapping")
    try:
        fields = {k: np.asarray(data[k], dtype=float) for k in ("C", "F", "A", "b")}
    except KeyError as err:
        raise models.InvalidModelError(f"missing field {err} in QP file") from err
    except (TypeError, ValueError):
        raise models.InvalidModelError(
            "QP file fields must be arrays of numbers"
        ) from None
    if fields["F"].ndim > 1 or fields["b"].ndim > 1:
        raise models.InvalidModelError(
            "solve-qp solves one right-hand side: F and b must be vectors"
        )
    problem = qp.QpProblem(**fields)
    try:
        sol = qp.solve(problem)
    except qp.UnboundedBelowError as err:
        print("unbounded below on the constraint set")
        print(f"descent direction = {_fmt_vec(err.direction)}")
        return 0
    alt = qp.solve_alt(problem)
    print(f"x_hat = {_fmt_vec(sol.x_hat)}")
    print(f"value = {_fmt(sol.value)}")
    print(f"solution set dimension = {sol.null_basis.shape[1]}")
    print(f"alternative representation ({alt.branch}) agrees to {_fmt(np.max(np.abs(alt.x_hat - sol.x_hat)))}")
    return 0


_COMMANDS = {
    "frontier": cmd_frontier,
    "hedge": cmd_hedge,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
    "solve-qp": cmd_solve_qp,
}

_FLAGS = {
    "--claim": dict(type=float, help="constant claim value"),
    "--wealth": dict(type=float, help="initial wealth"),
    "--out": dict(help="output file path"),
    "--seed": dict(type=int, help="simulation seed"),
    "--paths": dict(type=int, help="simulation paths"),
    "--tol": dict(type=float, help="verification tolerance"),
}

# The flags each command reads besides --model.
_COMMAND_FLAGS = {
    "frontier": ("--out",),
    "hedge": ("--claim", "--wealth", "--out"),
    "oracle": ("--claim", "--wealth", "--tol"),
    "simulate": ("--claim", "--wealth", "--seed", "--paths"),
    "solve-qp": (),
}

_INPUT_ERRORS = (
    models.InvalidModelError,
    models.InvalidNumeraireError,
    InvalidInputError,
    qp.InvalidProblemError,
    engine.LocalArbitrageError,
    frontier.DegenerateFrontierError,
    frontier.ThresholdNotApplicableError,
    OSError,
    json.JSONDecodeError,
    UnicodeDecodeError,
    np.linalg.LinAlgError,
)


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="mvhedge",
        description=(
            "Quadratic hedging and mean-variance frontiers in markets "
            "without a risk-free asset"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--model", required=True, help="model config file (JSON)")
        for flag in _COMMAND_FLAGS[name]:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
