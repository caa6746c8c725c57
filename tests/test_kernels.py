"""The batched kernel against a per-row reference and the scalar estimator."""

import math
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from unequal_support._kernels import cell_estimates, segment_estimates
from unequal_support.config import build_problem
from unequal_support.densities import (
    EstimationProblem,
    EvaluationFunction,
    PiecewiseUniform,
    PruningCoverageError,
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


def row_estimates(wh, w, in_c, c, t=0.0):
    """segment_estimates on a (trials, n) batch, one segment per row."""
    trials, n = w.shape
    return segment_estimates(
        wh.ravel(), w.ravel(), [[n] * trials], in_c.sum(axis=1), n, c, t
    )


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
        got = row_estimates(w * (hv - t), w, in_c, 0.4, t)
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
        is_v, us_v, wis_v, k, wis_def = row_estimates(w * hv, w, in_c, 0.5, 0.0)
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
            row_estimates(w * (hv - t), w, in_c, 1.0, t)
        with pytest.raises(ValueError, match="overflow the double range"):
            cell_estimates([[1, 99]], 100, w[0, :2], hv[0, :2], in_c[0, :2], 1.0, t)

    def test_finite_estimates_whose_total_overflows_pass(self):
        """The finiteness check reads the estimates' total first; a total
        that overflows sends it term by term, where these pass."""
        w, wh = np.ones((3, 1)), np.full((3, 1), 1.5e308)
        is_v, us_v, wis_v, *_ = row_estimates(wh, w, w > 0.0, 1.0)
        assert is_v.tolist() == us_v.tolist() == wis_v.tolist() == [1.5e308] * 3

    def test_shape_validation(self):
        """A batch is a 1-D array of samples, and the kernel takes 1-D
        terms and weights of one shape."""
        problem = illustrative_problem(0.5)
        for values in (np.zeros(0), np.full((1, 3), 0.5)):
            with pytest.raises(ValueError, match="1-D array"):
                estimate_all(problem, values)
        with pytest.raises(ValueError):
            segment_estimates(np.zeros((1, 3)), np.zeros((1, 3)), [[3]], [3], 3, 0.5)
        with pytest.raises(ValueError):
            segment_estimates(np.zeros(3), np.zeros(4), [[3]], [3], 3, 0.5)


class TestSegmentEstimates:
    """The trials' samples in F held in (segment, trial) runs of one flat
    array, against the full batch with w = 0 on every sample left out."""

    def segments(self, seed, segments=3, trials=60, n=5):
        rng = np.random.default_rng(seed)
        sizes = rng.multinomial(n, [0.1, 0.15, 0.1, 0.65], size=trials)[:, :segments].T
        # The last trial draws nothing: its segments start past the end.
        sizes[:, -1] = 0
        total = sizes.sum()
        w = np.where(rng.uniform(size=total) < 0.2, 0.0, rng.uniform(0.0, 5.0, total))
        hv = rng.normal(0.0, 2.0, total)
        # Each trial's batch: its segments' samples in segment order, then
        # n minus their count left-out samples, w = 0, in C or not.
        full_w, full_h = np.zeros((trials, n)), rng.normal(0.0, 2.0, (trials, n))
        in_c = rng.uniform(size=(trials, n)) < 0.5
        starts = (np.cumsum(sizes.ravel()) - sizes.ravel()).reshape(sizes.shape)
        for i in range(trials):
            picks = np.concatenate(
                [np.arange(starts[j, i], starts[j, i] + sizes[j, i]) for j in range(segments)]
            ).astype(int)
            full_w[i, : picks.size], full_h[i, : picks.size] = w[picks], hv[picks]
            in_c[i, : picks.size] = True
        return sizes, w, hv, full_w, full_h, in_c

    @pytest.mark.parametrize("t", [0.0, 1.25])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_full_batch(self, seed, t):
        sizes, w, hv, full_w, full_h, in_c = self.segments(seed)
        k = in_c.sum(axis=1)
        got = segment_estimates(w * (hv - t), w, sizes, k, 5, 0.4, t)
        want = fsum_oracle(full_w, full_h, in_c, 0.4, t)
        for column, expected in zip(got[:3], want[:3]):
            assert column == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert np.array_equal(got[3], want[3]) and got[3].dtype == np.int64
        assert np.array_equal(got[4], want[4])
        # Some trials draw nothing, the last among them.
        assert (sizes.sum(axis=0) == 0).sum() > 1

    def test_segments_sum_in_segment_order(self):
        """A trial's sum adds its segment sums in segment order, and a
        segment sums as np.add.reduceat sums it."""
        sizes, w, hv, *_ = self.segments(3, segments=2, trials=40, n=300)
        wh = w * hv
        got = segment_estimates(wh, w, sizes, np.full(40, 300), 300, 1.0)[0]
        bounds = np.cumsum(np.concatenate([[0], sizes.ravel()])).reshape(-1)
        sums = [wh[a] + wh[a + 1 : b].sum() if b > a else 0.0 for a, b in zip(bounds, bounds[1:])]
        sums = np.array(sums).reshape(sizes.shape)
        assert np.array_equal(got, (sums[0] + sums[1]) / 300)

    def test_no_drawn_sample(self):
        is_v, us_v, wis_v, k, wis_def = segment_estimates(
            np.zeros(0), np.zeros(0), np.zeros((1, 4), dtype=np.int64), [0, 2, 0, 5], 5, 0.5, 0.7
        )
        assert is_v.tolist() == [0.7] * 4
        assert us_v.tolist() == [0.0, 0.7, 0.0, 0.7]
        assert wis_v.tolist() == [0.0] * 4 and not wis_def.any()
        assert k.tolist() == [0, 2, 0, 5]

    def test_overflowing_sums_raise_without_warning(self):
        w, wh = np.full(4, 10.0), np.full(4, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow the double range"):
                segment_estimates(wh, w, [[2, 2]], [2, 2], 4, 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            segment_estimates(np.zeros(3), np.zeros(3), [[1, 1]], [1, 1], 2, 0.5)
        with pytest.raises(ValueError):
            segment_estimates(np.zeros(2), np.zeros(3), [[1, 1]], [1, 1], 2, 0.5)


class TestAgainstScalarEstimators:
    @pytest.mark.parametrize("t", [0.0, 2.0])
    def test_rows_match_single_batch_estimators(self, t):
        problem = illustrative_problem(0.8, theta=3.0)
        rng = np.random.default_rng(5150)
        trials, n = 300, 23
        x = problem.sampling.sample(rng, (trials, n))
        w, centered, in_c = problem.batch_terms(x, t=t)
        is_v, us_v, wis_v, k, wis_def = row_estimates(centered, w, in_c, problem.c, t)
        cv = ControlVariate(t)
        for i in range(trials):
            ref = estimate_all(problem, x[i], cv)
            ref_is, ref_us, ref_wis = ref["IS"], ref["US"], ref["WIS"]
            # One kernel: the batched and scalar paths agree bit for bit.
            assert is_v[i].tobytes() == np.float64(ref_is.value).tobytes()
            assert us_v[i].tobytes() == np.float64(ref_us.value).tobytes()
            assert wis_v[i].tobytes() == np.float64(ref_wis.value).tobytes()
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
        _, wh, in_c = problem.batch_terms(x, observed, t=t)
        masked = np.where(in_c, wh, 0.0).sum(axis=1)
        assert masked.tobytes() == wh.sum(axis=1).tobytes()

    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(CONTRACT_PROBLEMS))
    def test_centered_terms_written_into_scratch(self, name, t):
        """batch_terms returns w (h - t), h evaluated or observed, in the
        scratch array it is given."""
        problem = CONTRACT_PROBLEMS[name]
        rng = np.random.default_rng(8)
        x = problem.sampling.sample(rng, (64, 9))
        observed = None if problem.surface is None else problem.surface.observe(rng, x)
        h = problem.evaluation(x) if observed is None else observed
        scratch = np.empty(x.shape)
        w, centered, _ = problem.batch_terms(x, observed, t=t, scratch=scratch)
        assert centered is scratch
        assert centered.tobytes() == ((h - t) * w).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("x_out, h_out", [(1.5, np.nan), (1.5, np.inf), (0.75, np.inf)])
    def test_nonfinite_h_outside_c_never_reaches_the_kernel(self, x_out, h_out):
        """f = U[0, 1], g = U[0, 2], C = [0, 0.5]: w = 0 at 1.5 and 2 at 0.75."""
        f, g = PiecewiseUniform.uniform(0.0, 1.0), PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 0.5, 1.0)])
        problem = EstimationProblem(f, g, h, [(0.0, 0.5)])
        x = np.array([[0.25, x_out]])
        with pytest.raises(PruningCoverageError):
            problem.batch_terms(x, np.array([[1.0, h_out]]))

    def test_underflowing_f_h_is_still_rejected(self):
        """f = g = U[0, 1e10] and h = 1e-320 outside C = [0, 5e9]: f h
        underflows to 0 there, but the summed term w h does not."""
        g = PiecewiseUniform.uniform(0.0, 1e10)
        h = EvaluationFunction.piecewise_constant([(0.0, 5e9, 1.0), (5e9, 1e10, 1e-320)])
        problem = EstimationProblem(g, g, h, [(0.0, 5e9)])
        plain = EstimationProblem(g, g, EvaluationFunction(h.fn, h.support), problem.pruning)
        with pytest.raises(PruningCoverageError):
            estimate_all(problem, draw(g, 0, 20))
        for each in (problem, plain):  # the cell and the sample paths
            with pytest.raises(PruningCoverageError):
                simulate_estimates(each, 20, 100, seed=0)
