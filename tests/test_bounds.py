"""Hoeffding bound construction, truncation, and the exact range helper."""

import math

import pytest

from unequal_support.bounds import (
    BoundRequest,
    BoundResult,
    confidence_interval,
    hoeffding_is,
    hoeffding_us,
    truncate_bound,
    weighted_range,
)
from unequal_support.estimators import EstimateResult
from unequal_support.experiments import illustrative_problem


def request(estimate=1.0, b=2.0, c=0.5, n=100, delta=0.1, side="lower", k=25):
    return BoundRequest(
        estimate=EstimateResult(value=estimate, k=k, defined=True),
        b=b, c=c, n=n, delta=delta, side=side,
    )


class TestHoeffdingIs:
    def test_degenerate_zero_range(self):
        res = hoeffding_is(request(estimate=3.0, b=0.0))
        assert res.value == 3.0 and res.defined and res.method == "IS-hoeffding"

    def test_margin_formula(self):
        res = hoeffding_is(request(estimate=0.0, b=2.0, n=100, delta=0.1))
        assert res.value == pytest.approx(-2.0 * math.sqrt(math.log(10.0) / 200.0), rel=1e-14)

    def test_margin_vanishes_at_delta_one(self):
        res = hoeffding_is(request(estimate=1.5, delta=1.0))
        assert res.value == 1.5

    def test_sides_symmetric_about_estimate(self):
        lo = hoeffding_is(request(estimate=2.0, side="lower"))
        hi = hoeffding_is(request(estimate=2.0, side="upper"))
        assert hi.value - 2.0 == pytest.approx(2.0 - lo.value, rel=1e-12)

    def test_margin_monotone(self):
        margin = lambda n, delta: 2.0 - hoeffding_is(
            request(estimate=2.0, n=n, delta=delta)
        ).value
        assert margin(200, 0.1) < margin(100, 0.1)
        assert margin(100, 0.01) > margin(100, 0.1)


class TestHoeffdingUs:
    def test_undefined_when_k_zero(self):
        res = hoeffding_us(request(), k=0)
        assert not res.defined and math.isnan(res.value)
        assert res.method == "US-hoeffding"

    def test_full_coverage_matches_is(self):
        req = request(estimate=1.0, b=3.0, c=1.0, n=40, delta=0.05)
        assert hoeffding_us(req, k=40).value == hoeffding_is(req).value

    def test_margin_ratio_at_k_equal_cn(self):
        req_us = request(estimate=0.0, b=2.0, c=0.25, n=100, delta=0.1)
        us = hoeffding_us(req_us, k=25)
        is_ = hoeffding_is(req_us)
        # ratio of margins = c * sqrt(n / k) = 0.25 * 2 = 0.5
        assert us.value == pytest.approx(0.5 * is_.value, rel=1e-12)

    def test_margin_monotone_in_k(self):
        req = request(estimate=0.0)
        m = lambda k: -hoeffding_us(req, k=k).value
        assert m(50) < m(10)


class TestTruncateBound:
    def test_inside_unchanged(self):
        res = BoundResult(0.4, True, "IS-hoeffding", "lower")
        assert truncate_bound(res, 0.0, 1.0) == res

    def test_below_clamped(self):
        res = BoundResult(-0.7, True, "IS-hoeffding", "lower")
        assert truncate_bound(res, 0.0, 1.0).value == 0.0

    def test_above_clamped(self):
        res = BoundResult(1.9, True, "US-hoeffding", "upper")
        assert truncate_bound(res, 0.0, 1.0).value == 1.0

    def test_undefined_takes_conservative_endpoint(self):
        lo = BoundResult(math.nan, False, "US-hoeffding", "lower")
        hi = BoundResult(math.nan, False, "US-hoeffding", "upper")
        t_lo = truncate_bound(lo, 0.25, 0.75)
        t_hi = truncate_bound(hi, 0.25, 0.75)
        assert t_lo.value == 0.25 and not t_lo.defined
        assert t_hi.value == 0.75 and not t_hi.defined

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            truncate_bound(BoundResult(0.0, True, "IS-hoeffding", "lower"), 1.0, 0.0)


class TestConfidenceInterval:
    def test_splits_delta_per_side(self):
        est = EstimateResult(value=1.0, k=50, defined=True)
        lo, hi = confidence_interval(est, b=2.0, c=1.0, n=50, delta=0.1, method="IS")
        one_sided = hoeffding_is(request(estimate=1.0, b=2.0, c=1.0, n=50, delta=0.05))
        assert lo.value == one_sided.value
        assert hi.value - 1.0 == 1.0 - lo.value

    def test_us_variant_uses_k(self):
        est = EstimateResult(value=1.0, k=0, defined=False)
        lo, hi = confidence_interval(est, b=2.0, c=0.5, n=50, delta=0.1, method="US")
        assert not lo.defined and not hi.defined

    def test_method_validated(self):
        est = EstimateResult(value=1.0, k=5, defined=True)
        with pytest.raises(ValueError):
            confidence_interval(est, 1.0, 0.5, 10, 0.1, method="WIS")


class TestRequestValidation:
    def test_bounds_on_fields(self):
        with pytest.raises(ValueError):
            request(b=-1.0)
        with pytest.raises(ValueError):
            request(delta=0.0)
        with pytest.raises(ValueError):
            request(delta=1.0001)
        with pytest.raises(ValueError):
            request(c=0.0)
        with pytest.raises(ValueError):
            BoundRequest(EstimateResult(1.0, 1, True), 1.0, 0.5, 10, 0.1, "sideways")

    def test_nan_range_rejected(self):
        with pytest.raises(ValueError, match="b must be nonnegative"):
            request(b=math.nan)


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

    def test_centering_shrinks_range(self):
        problem = illustrative_problem(0.5, theta=10.0)
        # centered at t = 10 the values are {-4, 4, 0}
        assert weighted_range(problem, t=10.0) == pytest.approx(8.0, rel=1e-14)

    def test_requires_builtin_shapes(self):
        from unequal_support.densities import (
            EstimationProblem,
            EvaluationFunction,
            PiecewiseUniform,
            PruningSet,
            TruncatedNormal,
        )

        g = PiecewiseUniform.uniform(0.0, 2.0)
        f = TruncatedNormal(0.0, 1.0, 1.0, 1.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        problem = EstimationProblem(f, g, h, PruningSet.from_intervals([(0.0, 1.0)], g))
        with pytest.raises(TypeError):
            weighted_range(problem)
