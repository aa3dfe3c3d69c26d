"""Weakly efficient mean-variance frontier from the triple (L0, V0(1), eps2_0(1)).

The frontier of fully invested unit-cost strategies is a parabola in
(mean, second moment) space and, equivalently, in (mean, variance) space.
Both parametrizations are produced from the same three scalars; degenerate
denominators are reported as errors, never clamped, because they encode
economically meaningful limits (e.g. a complete riskless market collapses the
frontier to a point).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .linalg import InvalidInputError

__all__ = [
    "DegenerateFrontierError",
    "ThresholdNotApplicableError",
    "FrontierTriple",
    "FrontierCurve",
    "frontier_coeffs",
    "efficient_threshold",
    "write_frontier_csv",
]


class DegenerateFrontierError(ValueError):
    """A frontier denominator vanishes; ``which`` names the offending one."""

    def __init__(self, which, detail):
        self.which = which
        super().__init__(f"degenerate frontier: {detail} [{which}]")


class ThresholdNotApplicableError(ValueError):
    """Efficient threshold is undefined (requires V0(1) > 0)."""


@dataclass(frozen=True)
class FrontierTriple:
    """The three scalars that fully determine the frontier.

    L0 is the time-0 opportunity value (minimal second moment per unit
    wealth), V0_1 the time-0 tracking value of the constant payoff 1, and
    eps2_0_1 the corresponding minimal residual hedging error.
    """

    L0: float
    V0_1: float
    eps2_0_1: float

    def __post_init__(self):
        if not (np.isfinite(self.L0) and self.L0 > 0):
            raise InvalidInputError(f"L0 must be positive and finite, got {self.L0}")
        if not (np.isfinite(self.eps2_0_1) and self.eps2_0_1 >= 0):
            raise InvalidInputError(
                f"eps2_0_1 must be non-negative, got {self.eps2_0_1}"
            )
        if not np.isfinite(self.V0_1):
            raise InvalidInputError(f"V0_1 must be finite, got {self.V0_1}")

    @property
    def cost_of_one(self):
        """Squared distance of the payoff 1 from zero-wealth outcomes: L0 V0^2 + eps2."""
        return self.L0 * self.V0_1**2 + self.eps2_0_1

    @staticmethod
    def from_values(values):
        """Build from any object exposing L0 / V0 / eps2_0 attributes."""
        return FrontierTriple(values.L0, values.V0, values.eps2_0)


@dataclass(frozen=True)
class FrontierCurve:
    """One parabola value = intercept + slope * (mean - center)^2, in the
    second-moment or the variance form of :func:`frontier_coeffs`."""

    intercept: float
    slope: float
    center: float

    def value_at(self, mean):
        mean = np.asarray(mean, dtype=float)
        return self.intercept + self.slope * (mean - self.center) ** 2


def frontier_coeffs(triple: FrontierTriple):
    """Both frontier parametrizations for a given triple.

    Second-moment form: E[R^2] = L0 + (E[R] - L0 V0)^2 / (1 - L0 V0^2 - eps2).
    Variance form:
    Var(R) = L0 eps2 / (L0 V0^2 + eps2)
             + (1/(1 - L0 V0^2 - eps2) - 1) (E[R] - L0 V0 / (L0 V0^2 + eps2))^2.
    Raises :class:`DegenerateFrontierError` naming whichever denominator is
    zero.
    """
    L0, V0, eps2 = triple.L0, triple.V0_1, triple.eps2_0_1
    slope_den = 1.0 - L0 * V0**2 - eps2
    cost = triple.cost_of_one
    if abs(slope_den) < 1e-14:
        raise DegenerateFrontierError(
            "slope_denominator",
            "1 - L0 V0^2 - eps2 vanishes: unit wealth is attainable from zero "
            "cost only trivially and the frontier collapses",
        )
    if abs(cost) < 1e-14:
        raise DegenerateFrontierError(
            "center_denominator",
            "L0 V0^2 + eps2 vanishes: the payoff 1 is orthogonal to all "
            "attainable wealth",
        )
    second_moment = FrontierCurve(L0, 1.0 / slope_den, L0 * V0)
    variance = FrontierCurve(L0 * eps2 / cost, 1.0 / slope_den - 1.0, L0 * V0 / cost)
    return second_moment, variance


def efficient_threshold(triple: FrontierTriple):
    """Smallest two-fund multiplier and mean at which weak efficiency is efficiency.

    Weakly efficient strategies of unit cost form the family
    phi(1, 0) + lambda phi(0, 1); those with lambda >= lambda_min =
    L0 V0 / (L0 V0^2 + eps2) are efficient.  Returns (lambda_min, mean_min)
    where mean_min = L0 V0 + lambda_min (1 - L0 V0^2 - eps2) coincides with
    the variance-form vertex.
    """
    if triple.V0_1 <= 0:
        raise ThresholdNotApplicableError(
            f"efficient threshold requires V0(1) > 0, got {triple.V0_1}"
        )
    cost = triple.cost_of_one
    if cost < 1e-14:
        raise DegenerateFrontierError(
            "center_denominator",
            "L0 V0^2 + eps2 vanishes: the efficient threshold is undefined",
        )
    lam = triple.L0 * triple.V0_1 / cost
    mean_min = triple.L0 * triple.V0_1 + lam * (1.0 - cost)
    return lam, mean_min


def write_frontier_csv(path, second_moment_curve, variance_curve, means):
    """Write rows mean,variance,second_moment at 12 significant digits."""
    means = np.asarray(means, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mean", "variance", "second_moment"])
        for m in means:
            writer.writerow(
                [
                    f"{m:.12g}",
                    f"{float(variance_curve.value_at(m)):.12g}",
                    f"{float(second_moment_curve.value_at(m)):.12g}",
                ]
            )
