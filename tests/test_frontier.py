import numpy as np
import pytest

from mvhedge import engine
from mvhedge.frontier import (
    DegenerateFrontierError,
    FrontierTriple,
    ThresholdNotApplicableError,
    efficient_threshold,
    frontier_coeffs,
    write_frontier_csv,
)


@pytest.fixture(scope="module")
def discrete_triple(discrete_benchmark):
    values, _ = engine.closed_form_values(discrete_benchmark)
    return FrontierTriple.from_values(values)


@pytest.fixture(scope="module")
def ito_triple(ito_benchmark):
    values, _ = engine.closed_form_values(ito_benchmark)
    return FrontierTriple.from_values(values)


class TestCoefficients:
    def test_discrete_benchmark_displays(self, discrete_triple):
        sm, var = frontier_coeffs(discrete_triple)
        assert abs(sm.intercept - 0.57571) < 5e-6
        assert abs(sm.slope - 1.2262) < 5e-5
        assert abs(sm.center - 0.30381) < 5e-6
        assert abs(var.intercept - 0.075446) < 5e-7
        assert abs(var.slope - 0.22625) < 5e-6
        assert abs(var.center - 1.6466) < 5e-5

    def test_ito_benchmark_displays(self, ito_triple):
        sm, var = frontier_coeffs(ito_triple)
        assert abs(sm.intercept - 2.21772) < 5e-6
        assert abs(sm.slope - 15.9127) < 5e-5
        assert abs(sm.center - 1.20696) < 5e-6
        assert abs(var.intercept - 0.66328) < 5e-6
        assert abs(var.slope - 14.9127) < 5e-5
        assert abs(var.center - 1.28790) < 5e-6

    def test_parametrizations_consistent(self, discrete_triple, ito_triple):
        for triple in (discrete_triple, ito_triple):
            sm, var = frontier_coeffs(triple)
            means = np.linspace(var.center - 2.0, var.center + 2.0, 101)
            gap = np.abs(var.value_at(means) - (sm.value_at(means) - means**2))
            assert gap.max() < 1e-12

    def test_variance_slope_is_one_less(self, discrete_triple):
        sm, var = frontier_coeffs(discrete_triple)
        assert abs(var.slope - (sm.slope - 1.0)) < 1e-14

    def test_riskless_market_degenerates(self):
        # A single riskless asset: unit wealth replicates the payoff 1 exactly
        # and the variance frontier collapses to the point (e^{rT}, 0).
        from mvhedge import models

        r, horizon = 0.05, 4.0
        model = models.PiiItoModel([(horizon, [r], [[0.0]])])
        values, _ = engine.closed_form_values(model)
        triple = FrontierTriple.from_values(values)
        assert abs(triple.L0 * triple.V0_1**2 + triple.eps2_0_1 - 1.0) < 1e-12
        with pytest.raises(DegenerateFrontierError) as err:
            frontier_coeffs(triple)
        assert err.value.which == "slope_denominator"
        # the limiting vertex is e^{rT} with zero variance
        assert abs(triple.L0 * triple.V0_1 / triple.cost_of_one - np.exp(r * horizon)) < 1e-12

    def test_invalid_triples_rejected(self):
        with pytest.raises(ValueError):
            FrontierTriple(L0=-1.0, V0_1=0.5, eps2_0_1=0.0)
        with pytest.raises(ValueError):
            FrontierTriple(L0=1.0, V0_1=0.5, eps2_0_1=-0.1)


class TestEfficientThreshold:
    def test_minimal_mean_is_variance_vertex(self, discrete_triple, ito_triple):
        for triple in (discrete_triple, ito_triple):
            _, var = frontier_coeffs(triple)
            lam, mean_min = efficient_threshold(triple)
            assert abs(mean_min - var.center) < 1e-12
            assert abs(lam - triple.L0 * triple.V0_1 / triple.cost_of_one) < 1e-14

    def test_nonpositive_tracking_value_rejected(self):
        with pytest.raises(ThresholdNotApplicableError):
            efficient_threshold(FrontierTriple(L0=1.0, V0_1=-0.5, eps2_0_1=0.1))

    def test_vanishing_denominator_rejected(self):
        # V0(1) > 0 passes the threshold's own check, and the cost of one,
        # L0 V0^2 + eps2 = 1e-16, is the vanishing center denominator of both.
        triple = FrontierTriple(L0=1.0, V0_1=1e-8, eps2_0_1=0.0)
        for compute in (efficient_threshold, frontier_coeffs):
            with pytest.raises(DegenerateFrontierError) as err:
                compute(triple)
            assert err.value.which == "center_denominator"


class TestSampling:
    def test_vertex_value(self, discrete_triple):
        _, var = frontier_coeffs(discrete_triple)
        assert abs(var.value_at(var.center) - var.intercept) < 1e-12
        assert abs(var.value_at(1.6466) - 0.075446) < 5e-6


class TestCsv:
    def test_schema_and_digits(self, discrete_triple, tmp_path):
        sm, var = frontier_coeffs(discrete_triple)
        path = tmp_path / "frontier.csv"
        means = np.linspace(1.0, 2.0, 5)
        write_frontier_csv(path, sm, var, means)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mean,variance,second_moment"
        assert len(lines) == 6
        mean, variance, second = map(float, lines[3].split(","))
        assert abs(variance - (second - mean**2)) < 1e-10
        # 12 significant digits round-trip
        assert f"{mean:.12g}" == lines[3].split(",")[0]

    def test_deterministic_output(self, ito_triple, tmp_path):
        sm, var = frontier_coeffs(ito_triple)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        means = np.linspace(0.5, 1.5, 11)
        write_frontier_csv(p1, sm, var, means)
        write_frontier_csv(p2, sm, var, means)
        assert p1.read_bytes() == p2.read_bytes()
