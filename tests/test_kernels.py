"""The batched kernel against a per-row reference and the scalar estimator."""

import math

import numpy as np
import pytest

from unequal_support._kernels import batch_estimates
from unequal_support.densities import SampleBatch
from unequal_support.estimators import ControlVariate, estimate_all
from unequal_support.experiments import illustrative_problem


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
        w, hv, in_c = random_inputs(11)
        in_c &= hv > -1.0  # some weighted samples outside C
        w[0] = 0.0  # k = 0 and every weight zero
        in_c[0] = False
        in_c[1] = False  # k = 0 with positive weights
        # Non-finite h outside C reaches IS and WIS but never US.
        in_c[2:4, 0] = False
        hv[2, 0], w[2, 0] = np.nan, 0.0
        hv[3, 0], w[3, 0] = np.inf, 1.0
        got = batch_estimates(w, hv, in_c, 0.4, t)
        ref = fsum_oracle(w, hv, in_c, 0.4, t)
        assert ref[3][0] == ref[3][1] == 0 and not ref[4][0] and ref[4][1]
        assert np.isnan(ref[0][2]) and ref[0][3] == np.inf
        assert np.isfinite(got[1][2:4]).all() and (got[3][2:4] > 0).all()
        for x, y in zip(got, ref):
            np.testing.assert_allclose(
                np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                rtol=1e-12, atol=1e-12,
            )

    def test_undefined_rows_conventions(self):
        w = np.array([[0.0, 0.0], [1.0, 0.0]])
        hv = np.array([[3.0, 3.0], [2.0, 1.0]])
        in_c = w > 0
        is_v, us_v, wis_v, k, wis_def = batch_estimates(w, hv, in_c, 0.5, 0.0)
        assert us_v[0] == 0.0 and k[0] == 0
        assert wis_v[0] == 0.0 and not wis_def[0]
        assert us_v[1] == pytest.approx(0.5 * 2.0, rel=1e-14)
        assert wis_v[1] == pytest.approx(2.0, rel=1e-14)

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
        is_v, us_v, wis_v, k, wis_def = batch_estimates(w, hv, in_c, problem.c, t)
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
