import numpy as np
import pytest

from mwkmeans import (
    geometric_mean,
    normalised_objective,
    objective_bounds,
    objective_via_dispersions,
    objective_via_power_means,
    power_mean,
    update_weights,
)
from mwkmeans.errors import BoundViolationError, NonFiniteError, NonpositiveValueError
from mwkmeans.theory import _logsumexp


class TestPowerMean:
    def test_constant_values(self):
        assert power_mean([3.0, 3.0, 3.0], -2.0) == pytest.approx(3.0)

    def test_harmonic_mean(self):
        assert power_mean([1.0, 4.0], -1.0) == pytest.approx(1.6)

    def test_arithmetic_mean(self):
        assert power_mean([1.0, 4.0], 1.0) == pytest.approx(2.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveValueError):
            power_mean([1.0, 0.0], -1.0)

    def test_nan_is_named(self):
        with pytest.raises(NonFiniteError) as info:
            power_mean([1.0, np.nan], -1.0)
        assert (info.value.row, info.value.col) == (0, 1)

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            power_mean([1.0, 2.0], 0.0)

    def test_extreme_order_no_overflow(self):
        v = power_mean([1e-200, 1e200], -150.0)
        assert np.isfinite(v)


class TestGeometricMean:
    def test_hand_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert geometric_mean([7.0]) == pytest.approx(7.0)

    def test_constants(self):
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveValueError):
            geometric_mean([1.0, -1.0])

    def test_nan_is_named(self):
        with pytest.raises(NonFiniteError) as info:
            geometric_mean([np.nan, 2.0])
        assert (info.value.row, info.value.col) == (0, 0)


class TestObjectiveForms:
    def test_single_cell_collapses_to_dispersion(self):
        assert objective_via_dispersions([[5.0]], 2.0) == pytest.approx(5.0)
        assert objective_via_power_means([[5.0]], 2.0) == pytest.approx(5.0)

    def test_hand_value(self):
        assert objective_via_dispersions([[1.0, 1.0]], 2.0) == pytest.approx(0.5)
        assert objective_via_power_means([[1.0, 1.0]], 2.0) == pytest.approx(0.5)

    def test_zero_dispersion_row_contributes_zero(self):
        assert objective_via_dispersions([[0.0, 1.0], [1.0, 2.0]], 2.0) == pytest.approx(
            objective_via_dispersions([[1.0, 2.0]], 2.0)
        )

    @pytest.mark.parametrize("form", [objective_via_dispersions, objective_via_power_means])
    def test_nan_is_named(self, form):
        with pytest.raises(NonFiniteError) as info:
            form([[1.0, 2.0], [3.0, np.nan]], 1.5)
        assert (info.value.row, info.value.col) == (1, 1)

    @pytest.mark.parametrize("form", [objective_via_dispersions, objective_via_power_means])
    def test_negative_dispersion_rejected(self, form):
        with pytest.raises(NonpositiveValueError):
            form([[0.0, -1.0], [1.0, 2.0]], 1.5)

    def test_triple_equality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = np.exp(rng.normal(0, 2, (int(rng.integers(1, 5)), int(rng.integers(2, 8)))))
            p = float(rng.uniform(1.05, 6))
            w = update_weights(d, p)
            direct = float(np.sum(w**p * d))
            via_d = objective_via_dispersions(d, p)
            via_pm = objective_via_power_means(d, p)
            assert via_d == pytest.approx(direct, rel=1e-9)
            assert via_pm == pytest.approx(via_d, rel=1e-10)


class TestObjectiveBounds:
    def test_single_feature_bounds_coincide(self):
        b = objective_bounds([[3.0], [4.0]], 2.5)
        assert b.lower == pytest.approx(7.0)
        assert b.upper == pytest.approx(7.0)

    def test_hand_value(self):
        b = objective_bounds([[1.0, 4.0]], 2.0)
        assert b.lower == pytest.approx(0.5)
        assert b.upper == pytest.approx(1.0)
        assert b.prefactor == pytest.approx(0.5)

    def test_nan_is_named(self):
        with pytest.raises(NonFiniteError) as info:
            objective_bounds([[1.0, 2.0], [np.nan, 3.0]], 2.0)
        assert (info.value.row, info.value.col) == (1, 0)

    def test_negative_dispersion_rejected(self):
        with pytest.raises(NonpositiveValueError):
            objective_bounds([[0.0, -1.0]], 2.0)

    def test_objective_always_inside(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = np.exp(rng.normal(0, 2, (3, 5)))
            p = float(rng.uniform(1.05, 10))
            obj = objective_via_dispersions(d, p)
            b = objective_bounds(d, p)
            assert b.lower * (1 - 1e-9) <= obj <= b.upper * (1 + 1e-9)

    def test_power_mean_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            values = np.exp(rng.normal(0, 2, 6))
            r = float(rng.uniform(-80, -0.01))
            mr = power_mean(values, r)
            assert values.min() * (1 - 1e-12) <= mr <= geometric_mean(values) * (1 + 1e-12)

    def test_power_mean_monotone_in_r(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            values = np.exp(rng.normal(0, 2, 5))
            rs = np.sort(rng.uniform(-60, -1e-3, 5))
            means = [power_mean(values, float(r)) for r in rs]
            assert all(b >= a * (1 - 1e-12) for a, b in zip(means, means[1:]))

    def test_limit_r_to_minus_infinity(self):
        # at order r the mean approaches min * m^(-1/r); beyond that the
        # residual from the second-smallest value is negligible once the
        # minimum is unique by a factor >= 1.1
        values = np.array([1.0, 1.1, 2.0, 5.0])
        expected = 1.0 * len(values) ** (1 / 200)
        assert power_mean(values, -200.0) == pytest.approx(expected, rel=1e-6)
        assert power_mean(values, -2e7) == pytest.approx(1.0, rel=1e-6)

    def test_limit_r_to_zero(self):
        values = np.array([0.5, 1.5, 4.0])
        assert power_mean(values, -1e-6) == pytest.approx(geometric_mean(values), rel=1e-5)


class TestNormalisedObjective:
    def test_endpoints(self):
        b = objective_bounds([[1.0, 4.0]], 2.0)
        assert normalised_objective(b.lower, b) == 0.0
        assert normalised_objective(b.upper, b) == 1.0

    def test_hand_value(self):
        b = objective_bounds([[1.0, 4.0]], 2.0)
        assert normalised_objective(0.8, b) == pytest.approx(0.6)

    def test_degenerate_bounds_give_zero(self):
        b = objective_bounds([[2.0]], 2.0)
        assert normalised_objective(2.0, b) == 0.0

    def test_violation_raises(self):
        b = objective_bounds([[1.0, 4.0]], 2.0)
        with pytest.raises(BoundViolationError):
            normalised_objective(2.0, b)
        with pytest.raises(BoundViolationError):
            normalised_objective(0.1, b)

    def test_near_boundary_clamped(self):
        b = objective_bounds([[1.0, 4.0]], 2.0)
        assert normalised_objective(b.upper + 1e-10 * b.upper, b) == 1.0


class TestLogSumExpOracle:
    """theory's own log-sum-exp gives exactly scipy's bits (`==`, not
    approx), so dropping the scipy import changed no output."""

    @pytest.fixture
    def logsumexp(self):
        return pytest.importorskip("scipy.special").logsumexp

    def test_random_rows(self, logsumexp):
        rng = np.random.default_rng(10)
        for _ in range(2000):
            a = rng.normal(0.0, float(rng.choice([1.0, 30.0, 1e4])), int(rng.integers(1, 10)))
            assert _logsumexp(a) == logsumexp(a)

    def test_tied_maxima(self, logsumexp):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            a = rng.integers(-3, 2, int(rng.integers(2, 10))).astype(float)
            assert _logsumexp(a) == logsumexp(a)
        for a in ([2.0, 2.0], [2.0, 2.0, 1.0], [1.0, 7.5, 7.5, 7.5], [-1e300, -1e300]):
            assert _logsumexp(np.array(a)) == logsumexp(np.array(a))

    def test_single_entries(self, logsumexp):
        for v in (0.0, -0.0, 1.0, -3.5, 1e-300, 709.8, -745.2, 1e308, -1e308):
            a = np.array([v])
            assert _logsumexp(a) == logsumexp(a)

    def test_infinite_entries(self, logsumexp):
        inf = np.inf
        for a in ([inf, 1.0], [1.0, inf, inf], [inf, -inf], [-inf, 0.5], [-inf, -inf, -inf], [-inf]):
            a = np.array(a)
            assert _logsumexp(a) == logsumexp(a)

    def test_power_mean_at_large_order(self, logsumexp):
        rng = np.random.default_rng(12)
        for r in (-2e7, -1e5, -150.0, -1.0, -1e-6, 1e-6, 3.0, 2e7):
            for _ in range(50):
                values = np.exp(rng.normal(0.0, 2.0, int(rng.integers(1, 9))))
                with_scipy = float(np.exp((logsumexp(r * np.log(values)) - np.log(values.size)) / r))
                assert power_mean(values, r) == with_scipy
