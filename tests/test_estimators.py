"""Point estimators: identities, conventions, and control variates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unequal_support.densities import (
    ControlVariateCoverageError,
    EstimationProblem,
    EvaluationFunction,
    PiecewiseUniform,
    PruningSet,
    SampleBatch,
    SamplingSupportError,
    draw,
)
from unequal_support.estimators import (
    ControlVariate,
    EstimateResult,
    estimate_all,
)


def basic_problem(f_max=1.0, h_value=1.0):
    """Target U[0, f_max], sampling U[0, 2], h constant on the target support."""
    f = PiecewiseUniform.uniform(0.0, f_max)
    g = PiecewiseUniform.uniform(0.0, 2.0)
    h = EvaluationFunction.piecewise_constant([(0.0, f_max, h_value)])
    prune = PruningSet.from_intervals([(0.0, f_max)], g)
    return EstimationProblem(f, g, h, prune)


def signed_problem(f_max=1.0, theta=0.0, c_intervals=None):
    """The two-valued evaluation family used by the sweeps."""
    f = PiecewiseUniform.uniform(0.0, f_max)
    g = PiecewiseUniform.uniform(0.0, 2.0)
    h = EvaluationFunction.piecewise_constant(
        [(0.0, f_max / 2.0, theta - 1.0), (f_max / 2.0, 2.0, theta + 1.0)]
    )
    prune = PruningSet.from_intervals(c_intervals or [(0.0, f_max)], g)
    return EstimationProblem(f, g, h, prune)


def weight_at(problem: EstimationProblem, x: float) -> float:
    """f(x)/g(x) as the estimators read it, from ``batch_terms``."""
    return float(problem.batch_terms(np.array([x]))[0][0])


class TestImportanceWeight:
    def test_illustrative_weight(self):
        assert weight_at(basic_problem(1.0), 0.5) == 2.0

    def test_equal_distributions_weight_one(self):
        f = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 2.0, 1.0)])
        prune = PruningSet.from_intervals([(0.0, 2.0)], f)
        problem = EstimationProblem(f, f, h, prune)
        assert weight_at(problem, 1.3) == 1.0

    def test_ratio_of_uniform_heights(self):
        assert weight_at(basic_problem(0.5), 0.25) == pytest.approx(4.0)

    def test_outside_g_rejected(self):
        with pytest.raises(SamplingSupportError):
            weight_at(basic_problem(1.0), 2.5)


class TestIsEstimate:
    def test_counting_form(self):
        problem = basic_problem(1.0)
        values = np.array([0.1, 0.4, 1.2, 1.9, 0.8])
        batch = SampleBatch(values, seed=None, n=5)
        res = estimate_all(problem, batch)["IS"]
        assert res.value == pytest.approx(2.0 * 3 / 5, rel=1e-15)
        assert res.defined and res.k == 3

    def test_on_distribution_is_sample_mean(self):
        f = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 2.0), (1.0, 2.0, -1.0)])
        prune = PruningSet.from_intervals([(0.0, 2.0)], f)
        problem = EstimationProblem(f, f, h, prune)
        batch = draw(f, 8, 200)
        res = estimate_all(problem, batch)["IS"]
        assert res.value == pytest.approx(float(np.mean(h(batch.values))), rel=1e-14)

    def test_exact_with_matched_control_variate(self):
        theta = 3.5
        problem = basic_problem(1.0, h_value=theta)
        batch = draw(problem.sampling, 21, 500)
        res = estimate_all(problem, batch, ControlVariate(theta))["IS"]
        assert res.value == theta

    def test_k_zero_not_special(self):
        problem = basic_problem(0.5)
        batch = SampleBatch(np.array([1.0, 1.5, 1.9]), seed=None, n=3)
        res = estimate_all(problem, batch)["IS"]
        assert res.value == 0.0 and res.defined and res.k == 0


class TestUsEstimate:
    def test_constant_one_on_target(self):
        problem = basic_problem(1.0)
        batch = draw(problem.sampling, 4, 100)
        res = estimate_all(problem, batch)["US"]
        assert res.defined
        assert res.value == pytest.approx(1.0, rel=1e-14)

    def test_undefined_when_no_samples_in_c(self):
        problem = basic_problem(0.5)
        batch = SampleBatch(np.array([1.0, 1.5]), seed=None, n=2)
        res = estimate_all(problem, batch)["US"]
        assert res.value == 0.0 and not res.defined and res.k == 0

    def test_exact_with_matched_control_variate(self):
        theta = -2.0
        problem = basic_problem(1.0, h_value=theta)
        batch = draw(problem.sampling, 9, 300)
        res = estimate_all(problem, batch, ControlVariate(theta))["US"]
        assert res.defined and res.value == theta

    def test_control_variate_requires_cover_of_target(self):
        # C = [0, 0.5] covers F cap H but not all of F = [0, 1].
        f = PiecewiseUniform.uniform(0.0, 1.0)
        g = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 0.5, 1.0)])
        prune = PruningSet.from_intervals([(0.0, 0.5)], g)
        problem = EstimationProblem(f, g, h, prune)
        batch = SampleBatch(np.array([0.25, 0.75]), seed=None, n=2)
        assert estimate_all(problem, batch)["US"].defined
        with pytest.raises(ControlVariateCoverageError):
            estimate_all(problem, batch, ControlVariate(0.5))

    def test_coincides_with_is_when_c_covers_g(self):
        rng = np.random.default_rng(2024)
        f = PiecewiseUniform.uniform(0.0, 1.0)
        g = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, -1.0), (1.0, 2.0, 3.0)])
        prune = PruningSet.from_intervals([(0.0, 2.0)], g)
        problem = EstimationProblem(f, g, h, prune)
        assert problem.c == 1.0
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            batch = SampleBatch(rng.uniform(0.0, 2.0, n), seed=None, n=n)
            results = estimate_all(problem, batch)
            us, is_ = results["US"], results["IS"]
            assert us.defined and us.k == n
            assert abs(us.value - is_.value) <= 1e-12 * max(1.0, abs(is_.value))

    def test_coincides_with_is_at_a_million_samples(self):
        f = PiecewiseUniform.uniform(0.0, 1.0)
        g = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, -1.0), (1.0, 2.0, 3.0)])
        problem = EstimationProblem(f, g, h, PruningSet.from_intervals([(0.0, 2.0)], g))
        batch = draw(g, 606, 1_000_000)
        results = estimate_all(problem, batch)
        us, is_ = results["US"], results["IS"]
        assert us.k == batch.n
        assert abs(us.value - is_.value) <= 1e-12 * max(1.0, abs(is_.value))


def us_with_empirical_c(problem, batch):
    """US with c replaced by its empirical estimate k/n: the US estimate
    scaled by k/(n c)."""
    us = estimate_all(problem, batch)["US"]
    return EstimateResult(us.k / (batch.n * problem.c) * us.value, us.k, us.defined)


class TestEmpiricalC:
    def test_recovers_is_on_any_pruning_set(self):
        rng = np.random.default_rng(77)
        problem = signed_problem(0.5, theta=4.0)
        for _ in range(1000):
            n = int(rng.integers(1, 80))
            batch = SampleBatch(rng.uniform(0.0, 2.0, n), seed=None, n=n)
            emp = us_with_empirical_c(problem, batch)
            if emp.k == 0:
                assert emp.value == 0.0 and not emp.defined
                continue
            ref = estimate_all(problem, batch)["IS"]
            assert abs(emp.value - ref.value) <= 1e-12 * max(1.0, abs(ref.value))

    def test_recovers_is_at_a_million_samples(self):
        problem = signed_problem(0.5, theta=4.0)
        batch = draw(problem.sampling, 707, 1_000_000)
        emp = us_with_empirical_c(problem, batch)
        ref = estimate_all(problem, batch)["IS"]
        assert emp.defined and 0 < emp.k < batch.n
        assert abs(emp.value - ref.value) <= 1e-12 * max(1.0, abs(ref.value))

    def test_counting_form(self):
        problem = basic_problem(1.0)
        batch = SampleBatch(np.array([0.2, 0.6, 1.4, 1.8]), seed=None, n=4)
        res = us_with_empirical_c(problem, batch)
        assert res.value == pytest.approx(2.0 * 2 / 4, rel=1e-14)

    def test_c_equals_g_all_three_agree(self):
        f = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 2.0, 2.5)])
        prune = PruningSet.from_intervals([(0.0, 2.0)], f)
        problem = EstimationProblem(f, f, h, prune)
        batch = draw(f, 12, 64)
        results = estimate_all(problem, batch)
        a, b = results["IS"].value, results["US"].value
        c = us_with_empirical_c(problem, batch).value
        assert a == pytest.approx(b, rel=1e-14)
        assert a == pytest.approx(c, rel=1e-14)


class TestWisEstimate:
    def test_on_distribution_is_sample_mean(self):
        f = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 2.0, 0.5)])
        prune = PruningSet.from_intervals([(0.0, 2.0)], f)
        problem = EstimationProblem(f, f, h, prune)
        batch = draw(f, 31, 100)
        res = estimate_all(problem, batch)["WIS"]
        assert res.value == pytest.approx(float(np.mean(h(batch.values))), rel=1e-14)

    def test_equals_one_on_illustrative(self):
        problem = basic_problem(1.0)
        batch = draw(problem.sampling, 6, 50)
        assert estimate_all(problem, batch)["WIS"].value == pytest.approx(1.0, rel=1e-14)

    def test_single_sample_in_c(self):
        problem = signed_problem(1.0, theta=2.0)
        batch = SampleBatch(np.array([0.25, 1.5, 1.9]), seed=None, n=3)
        res = estimate_all(problem, batch)["WIS"]
        assert res.value == pytest.approx(1.0, rel=1e-14)  # h(0.25) = theta - 1

    def test_undefined_when_all_weights_zero(self):
        problem = basic_problem(0.5)
        batch = SampleBatch(np.array([1.2, 1.7]), seed=None, n=2)
        res = estimate_all(problem, batch)["WIS"]
        assert res.value == 0.0 and not res.defined

    def test_constant_control_variate_is_identity(self):
        problem = signed_problem(1.0, theta=3.0)
        batch = draw(problem.sampling, 41, 200)
        plain = estimate_all(problem, batch)["WIS"]
        shifted = estimate_all(problem, batch, ControlVariate(2.5))["WIS"]
        assert shifted.value == pytest.approx(plain.value, rel=1e-12)


class TestPermutationInvariance:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 128))
    def test_shuffle_changes_nothing(self, seed, n):
        rng = np.random.default_rng(seed)
        problem = signed_problem(0.8, theta=1.5)
        values = rng.uniform(0.0, 2.0, n)
        batch = SampleBatch(values, seed=None, n=n)
        shuffled = SampleBatch(rng.permutation(values), seed=None, n=n)

        def estimates(b):
            return [*estimate_all(problem, b).values(), us_with_empirical_c(problem, b)]

        for a, b in zip(estimates(batch), estimates(shuffled)):
            assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(a.value))
            assert a.k == b.k and a.defined == b.defined


class TestConditionalMeans:
    def test_us_conditionally_unbiased_and_is_conditional_mean(self):
        from unequal_support.experiments import illustrative_problem, simulate_estimates
        from unequal_support.moments import rho

        theta, f_max, n, trials = 2.0, 0.5, 10, 150_000
        problem = illustrative_problem(f_max, theta)
        sim = simulate_estimates(problem, n, trials, seed=20240817)
        # One entry per trial: each row repeated as many times as it was drawn.
        is_values, us_values, k = (
            np.repeat(col, sim.count) for col in (sim.is_values, sim.us_values, sim.k)
        )
        pos = k > 0
        r = rho(n, problem.c)

        us_vals = us_values[pos]
        se = us_vals.std(ddof=1) / np.sqrt(us_vals.size)
        assert abs(us_vals.mean() - theta) <= 3.0 * se

        is_vals = is_values[pos]
        se = is_vals.std(ddof=1) / np.sqrt(is_vals.size)
        assert abs(is_vals.mean() - theta / r) <= 3.0 * se
