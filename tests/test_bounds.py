"""Hoeffding bound construction, truncation, and the exact range helper."""

import math

import numpy as np
import pytest

from unequal_support.bounds import (
    confidence_interval,
    hoeffding_is,
    hoeffding_margin,
    hoeffding_us,
    truncate_bound,
    weighted_range,
)
from unequal_support.experiments import illustrative_problem


class TestHoeffdingIs:
    def test_degenerate_zero_range(self):
        assert hoeffding_is(3.0, b=0.0, n=100, delta=0.1) == (3.0, 3.0)

    def test_margin_formula(self):
        lower, _ = hoeffding_is(0.0, b=2.0, n=100, delta=0.1)
        want = 2.0 * math.sqrt(math.log(10.0) / 200.0)
        assert lower == pytest.approx(-want, rel=1e-14)
        assert hoeffding_margin(2.0, 100, 0.1) == pytest.approx(want, rel=1e-14)

    def test_margin_vanishes_at_delta_one(self):
        assert hoeffding_is(1.5, b=2.0, n=100, delta=1.0) == (1.5, 1.5)

    def test_sides_symmetric_about_estimate(self):
        lower, upper = hoeffding_is(2.0, b=2.0, n=100, delta=0.1)
        assert upper - 2.0 == pytest.approx(2.0 - lower, rel=1e-12)

    def test_margin_monotone(self):
        margin = lambda n, delta: 2.0 - hoeffding_is(2.0, 2.0, n, delta)[0]
        assert margin(200, 0.1) < margin(100, 0.1)
        assert margin(100, 0.01) > margin(100, 0.1)

    def test_arrays_broadcast(self):
        estimates = np.array([0.0, 1.0, 2.0])
        lower, upper = hoeffding_is(estimates, b=2.0, n=np.array([10, 10, 40]), delta=0.1)
        margin = hoeffding_margin(2.0, np.array([10, 10, 40]), 0.1)
        assert np.array_equal(lower, estimates - margin)
        assert np.array_equal(upper, estimates + margin)
        assert margin[2] == hoeffding_margin(2.0, 40, 0.1)


class TestHoeffdingUs:
    def test_undefined_when_k_zero(self):
        lower, upper = hoeffding_us(1.0, b=2.0, c=0.5, k=0, delta=0.1)
        assert math.isnan(lower) and math.isnan(upper)
        assert math.isnan(hoeffding_margin(2.0, 0, 0.1))
        # Only the k = 0 entries of an array are undefined, and no
        # division warning is raised for them.
        with np.errstate(all="raise"):
            lower, _ = hoeffding_us(np.ones(3), b=2.0, c=0.5, k=np.array([0, 4, 0]), delta=0.1)
        assert np.array_equal(np.isnan(lower), [True, False, True])
        assert lower[1] == hoeffding_us(1.0, 2.0, 0.5, 4, 0.1)[0]

    def test_full_coverage_matches_is(self):
        us = hoeffding_us(1.0, b=3.0, c=1.0, k=40, delta=0.05)
        assert us == hoeffding_is(1.0, b=3.0, n=40, delta=0.05)

    def test_margin_ratio_at_k_equal_cn(self):
        us_lower, _ = hoeffding_us(0.0, b=2.0, c=0.25, k=25, delta=0.1)
        is_lower, _ = hoeffding_is(0.0, b=2.0, n=100, delta=0.1)
        # ratio of margins = c * sqrt(n / k) = 0.25 * 2 = 0.5
        assert us_lower == pytest.approx(0.5 * is_lower, rel=1e-12)

    def test_margin_monotone_in_k(self):
        m = lambda k: -hoeffding_us(0.0, b=2.0, c=0.5, k=k, delta=0.1)[0]
        assert m(50) < m(10)


class TestTruncateBound:
    def test_inside_unchanged(self):
        assert truncate_bound(0.4, 0.6, 0.0, 1.0) == (0.4, 0.6)

    def test_below_clamped(self):
        assert truncate_bound(-0.7, -0.2, 0.0, 1.0) == (0.0, 0.0)

    def test_above_clamped(self):
        assert truncate_bound(1.2, 1.9, 0.0, 1.0) == (1.0, 1.0)

    def test_undefined_takes_conservative_endpoint(self):
        assert truncate_bound(math.nan, math.nan, 0.25, 0.75) == (0.25, 0.75)
        lower, upper = truncate_bound(
            np.array([math.nan, 0.5]), np.array([math.nan, 0.6]), 0.25, 0.75
        )
        assert np.array_equal(lower, [0.25, 0.5]) and np.array_equal(upper, [0.75, 0.6])

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            truncate_bound(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            truncate_bound(0.0, 0.0, math.nan, 1.0)


class TestConfidenceInterval:
    def test_splits_delta_per_side(self):
        lower, upper = confidence_interval(1.0, b=2.0, c=1.0, n=50, k=50, delta=0.1)
        assert (lower, upper) == hoeffding_is(1.0, b=2.0, n=50, delta=0.05)
        assert upper - 1.0 == 1.0 - lower
        us = confidence_interval(1.0, b=2.0, c=0.5, n=50, k=20, delta=0.1, method="US")
        assert us == hoeffding_us(1.0, b=2.0, c=0.5, k=20, delta=0.05)

    def test_us_variant_uses_k(self):
        lower, upper = confidence_interval(1.0, b=2.0, c=0.5, n=50, k=0, delta=0.1, method="US")
        assert math.isnan(lower) and math.isnan(upper)

    def test_method_validated(self):
        with pytest.raises(ValueError):
            confidence_interval(1.0, 1.0, 0.5, 10, 5, 0.1, method="WIS")


class TestInputValidation:
    def test_bounds_on_fields(self):
        with pytest.raises(ValueError, match="b must"):
            hoeffding_is(1.0, b=-1.0, n=10, delta=0.1)
        for delta in (0.0, 1.0001, math.nan):
            with pytest.raises(ValueError, match="delta must"):
                hoeffding_is(1.0, b=1.0, n=10, delta=delta)
        with pytest.raises(ValueError, match="delta must"):
            confidence_interval(1.0, b=1.0, c=0.5, n=10, k=5, delta=1.5)
        for c in (0.0, 1.5):
            with pytest.raises(ValueError, match="c must"):
                hoeffding_us(1.0, b=1.0, c=c, k=10, delta=0.1)
        with pytest.raises(ValueError, match="m must"):
            hoeffding_us(np.ones(2), b=1.0, c=0.5, k=np.array([3, -1]), delta=0.1)

    def test_nan_range_rejected(self):
        with pytest.raises(ValueError, match="b must be nonnegative"):
            hoeffding_is(1.0, b=math.nan, n=10, delta=0.1)
        with pytest.raises(ValueError, match="b must be nonnegative"):
            hoeffding_us(1.0, b=math.nan, c=0.5, k=10, delta=0.1)

    def test_infinite_range_rejected(self):
        """An overflowed range would give inf margins and NaN bounds."""
        for b in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="b must be nonnegative and finite"):
                hoeffding_margin(b, 10, 0.1)
        with pytest.raises(ValueError, match="b must be nonnegative and finite"):
            hoeffding_is(1.0, b=math.inf, n=10, delta=0.1)
        with pytest.raises(ValueError, match="b must be nonnegative and finite"):
            hoeffding_us(1.0, b=math.inf, c=0.5, k=10, delta=0.1)
        assert math.isfinite(hoeffding_margin(1e308, 1, 0.5))


class TestWeightedRange:
    def test_sign_changing_integrand_includes_zero(self):
        # w = 2 on F, h = -1 / +1 on the two halves, 0 off the target support.
        problem = illustrative_problem(1.0, theta=0.0)
        assert weighted_range(problem) == pytest.approx(4.0, rel=1e-14)

    def test_nonnegative_integrand_matches_closed_form(self):
        problem = illustrative_problem(1.0, theta=1.0)
        # values are {0, 4} on the target support and 0 elsewhere
        assert weighted_range(problem) == pytest.approx(4.0, rel=1e-14)

    def test_narrow_target(self):
        problem = illustrative_problem(0.5, theta=10.0)
        # w = 4, h in {9, 11} on F; zero contributes the minimum
        assert weighted_range(problem) == pytest.approx(44.0, rel=1e-14)

    def test_requires_builtin_shapes(self):
        from unequal_support.densities import (
            EstimationProblem,
            EvaluationFunction,
            PiecewiseUniform,
            TruncatedNormal,
        )

        g = PiecewiseUniform.uniform(0.0, 2.0)
        f = TruncatedNormal(0.0, 1.0, 1.0, 1.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        problem = EstimationProblem(f, g, h, [(0.0, 1.0)])
        with pytest.raises(TypeError):
            weighted_range(problem)
