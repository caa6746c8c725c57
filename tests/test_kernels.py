"""The batched kernel against a per-row reference and the scalar estimator."""

import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from unequal_support._kernels import batch_estimates, cell_estimates
from unequal_support.config import build_problem
from unequal_support.densities import (
    EstimationProblem,
    EvaluationFunction,
    PiecewiseUniform,
    PruningCoverageError,
    PruningSet,
    SampleBatch,
    check_coverage,
    draw,
)
from unequal_support.estimators import ControlVariate, estimate_all
from unequal_support.experiments import (
    illustrative_problem,
    simulate_estimates,
    treatment_problem,
)


def random_inputs(seed, trials=400, n=37):
    rng = np.random.default_rng(seed)
    w = np.where(rng.uniform(size=(trials, n)) < 0.3, 0.0, rng.uniform(0.0, 5.0, (trials, n)))
    hv = rng.normal(0.0, 2.0, (trials, n))
    in_c = w > 0.0
    return w, hv, in_c


def fsum_oracle(w, hv, in_c, c, t):
    """(IS, US, WIS, k, WIS-defined) per row, each sum written out with
    ``math.fsum``; shares no code with the kernel."""
    rows = []
    for w_row, h_row, c_row in zip(w, hv, in_c):
        terms = [wj * (hj - t) for wj, hj in zip(w_row, h_row)]
        total = math.fsum(terms)
        k = int(sum(c_row))
        in_c_total = math.fsum(x for x, inside in zip(terms, c_row) if inside)
        weight_sum = math.fsum(w_row)
        rows.append((
            t + total / len(terms),
            t + c * in_c_total / k if k > 0 else 0.0,
            t + total / weight_sum if weight_sum > 0.0 else 0.0,
            k,
            weight_sum > 0.0,
        ))
    return [np.array(col) for col in zip(*rows)]


class TestPathAgreement:
    @pytest.mark.parametrize("t", [0.0, 1.25])
    def test_matches_fsum_oracle(self, t):
        """In-contract batches: outside C either w = 0, or h = 0 at t = 0."""
        w, hv, in_c = random_inputs(11)
        in_c &= hv > -1.0  # some weighted samples outside C
        w[0] = 0.0  # k = 0 and every weight zero
        in_c[0] = False
        in_c[1] = False  # k = 0; at t = 0 with positive weights
        if t:
            w[~in_c] = 0.0
        else:
            hv[~in_c & (w > 0.0)] = 0.0
        check_coverage(w, w * hv, in_c, t)
        got = batch_estimates(w * (hv - t), w, in_c, 0.4, t)
        ref = fsum_oracle(w, hv, in_c, 0.4, t)
        assert ref[3][0] == ref[3][1] == 0 and not ref[4][0]
        assert ref[4][1] == (~in_c & (w > 0.0)).any() == (t == 0.0)
        for x, y in zip(got, ref):
            np.testing.assert_allclose(
                np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                rtol=1e-12, atol=1e-12,
            )

    def test_undefined_rows_conventions(self):
        w = np.array([[0.0, 0.0], [1.0, 0.0]])
        hv = np.array([[3.0, 3.0], [2.0, 1.0]])
        in_c = w > 0
        is_v, us_v, wis_v, k, wis_def = batch_estimates(w * hv, w, in_c, 0.5, 0.0)
        assert us_v[0] == 0.0 and k[0] == 0
        assert wis_v[0] == 0.0 and not wis_def[0]
        assert us_v[1] == pytest.approx(0.5 * 2.0, rel=1e-14)
        assert wis_v[1] == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "w0, h0, t",
        [
            (1e308, 10.0, 0.0),  # w h overflows: every estimate is inf
            (10.0, 1.79e308, 1.7e308),  # IS and WIS finite, only US overflows
        ],
    )
    def test_overflowing_estimates_raise(self, w0, h0, t):
        w, hv = np.zeros((1, 100)), np.full((1, 100), t)
        w[0, 0], hv[0, 0] = w0, h0
        in_c = w > 0.0
        with pytest.raises(ValueError, match="overflow the double range"):
            batch_estimates(w * (hv - t), w, in_c, 1.0, t)
        with pytest.raises(ValueError, match="overflow the double range"):
            cell_estimates([[1, 99]], 100, w[0, :2], hv[0, :2], in_c[0, :2], 1.0, t)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            batch_estimates(np.zeros(3), np.zeros(3), np.zeros(3, dtype=bool), 0.5)
        with pytest.raises(ValueError):
            batch_estimates(
                np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 3), dtype=bool), 0.5
            )


class TestAgainstScalarEstimators:
    @pytest.mark.parametrize("t", [0.0, 2.0])
    def test_rows_match_single_batch_estimators(self, t):
        problem = illustrative_problem(0.8, theta=3.0)
        rng = np.random.default_rng(5150)
        trials, n = 300, 23
        x = problem.sampling.sample(rng, (trials, n))
        w, hv, in_c = problem.batch_terms(x)
        is_v, us_v, wis_v, k, wis_def = batch_estimates(w * (hv - t), w, in_c, problem.c, t)
        cv = ControlVariate(t)
        for i in range(trials):
            batch = SampleBatch(x[i], seed=None, n=n)
            ref = estimate_all(problem, batch, cv)
            ref_is, ref_us, ref_wis = ref["IS"], ref["US"], ref["WIS"]
            assert is_v[i] == pytest.approx(ref_is.value, rel=1e-10, abs=1e-12)
            assert us_v[i] == pytest.approx(ref_us.value, rel=1e-10, abs=1e-12)
            assert wis_v[i] == pytest.approx(ref_wis.value, rel=1e-10, abs=1e-12)
            assert k[i] == ref_us.k
            assert bool(wis_def[i]) == ref_wis.defined


MULTI_PIECE_YAML = """
problem:
  target:
    kind: piecewise-uniform
    intervals: [[0.2, 0.8], [1.6, 2.0]]
    weights: [0.7, 0.3]
  sampling:
    kind: piecewise-uniform
    intervals: [[0.0, 1.0], [1.5, 3.0]]
    weights: [0.4, 0.6]
  evaluation:
    pieces: [[0.0, 0.5, -2.0], [0.5, 1.8, 1.0], [1.8, 3.0, 4.0]]
  pruning:
    intervals: [[0.1, 2.2]]
"""

# C covers F in each, so t = 0.5 passes the control-variate check too.
CONTRACT_PROBLEMS = {
    "illustrative": illustrative_problem(0.5),
    "treatment": treatment_problem(10.375),
    "yaml": build_problem(yaml.safe_load(MULTI_PIECE_YAML)),
}


class TestKernelContract:
    """The kernels take batches that pass the coverage checks, where the
    centered term is 0 outside C, so US reads the IS row sum."""

    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(CONTRACT_PROBLEMS))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 40))
    def test_masked_sum_is_the_row_sum(self, name, t, seed, n):
        problem = CONTRACT_PROBLEMS[name]
        rng = np.random.default_rng(seed)
        x = problem.sampling.sample(rng, (64, n))
        observed = None if problem.surface is None else problem.surface.observe(rng, x)
        w, hv, in_c = problem.batch_terms(x, observed, t=t)
        wh = w * (hv - t)
        masked = np.where(in_c, wh, 0.0).sum(axis=1)
        assert masked.tobytes() == wh.sum(axis=1).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("x_out, h_out", [(1.5, np.nan), (1.5, np.inf), (0.75, np.inf)])
    def test_nonfinite_h_outside_c_never_reaches_the_kernel(self, x_out, h_out):
        """f = U[0, 1], g = U[0, 2], C = [0, 0.5]: w = 0 at 1.5 and 2 at 0.75."""
        f, g = PiecewiseUniform.uniform(0.0, 1.0), PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 0.5, 1.0)])
        problem = EstimationProblem(f, g, h, PruningSet.from_intervals([(0.0, 0.5)], g))
        x = np.array([[0.25, x_out]])
        with pytest.raises(PruningCoverageError):
            problem.batch_terms(x, np.array([[1.0, h_out]]))

    def test_underflowing_f_h_is_still_rejected(self):
        """f = g = U[0, 1e10] and h = 1e-320 outside C = [0, 5e9]: f h
        underflows to 0 there, but the summed term w h does not."""
        g = PiecewiseUniform.uniform(0.0, 1e10)
        h = EvaluationFunction.piecewise_constant([(0.0, 5e9, 1.0), (5e9, 1e10, 1e-320)])
        problem = EstimationProblem(g, g, h, PruningSet.from_intervals([(0.0, 5e9)], g))
        plain = EstimationProblem(g, g, EvaluationFunction(h.fn, h.support), problem.pruning)
        with pytest.raises(PruningCoverageError):
            estimate_all(problem, draw(g, 0, 20))
        for each in (problem, plain):  # the cell and the sample paths
            with pytest.raises(PruningCoverageError):
                simulate_estimates(each, 20, 100, seed=0)
