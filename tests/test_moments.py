"""Closed-form moment catalog against exact-rational and algebraic oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from unequal_support import moments
from unequal_support.experiments import illustrative_problem
from unequal_support.moments import (
    _INV_MOMENT_EPS,
    MomentInputs,
    _inv_moment_window,
    binom_inv_moment,
    moment_report,
    property3_margin,
    rho,
    us_beats_is,
)

from oracles import illustrative_params


def exact_inv_moment(n: int, c: Fraction) -> Fraction:
    """E[1/K | K > 0] for K ~ Binomial(n, c) in exact rational arithmetic."""
    pmf = [Fraction(math.comb(n, k)) * c**k * (1 - c) ** (n - k) for k in range(n + 1)]
    conditional_mass = 1 - pmf[0]
    return sum(pmf[k] / k for k in range(1, n + 1)) / conditional_mass


class TestRho:
    def test_degenerate_cases(self):
        assert rho(7, 1.0) == 1.0
        assert rho(1, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_against_naive_power_form(self):
        for n, c in [(50, 0.25), (5, 0.9), (200, 0.01), (1, 0.5)]:
            naive = 1.0 - (1.0 - c) ** n
            assert rho(n, c) == pytest.approx(naive, rel=1e-12)

    def test_precise_for_tiny_c(self):
        # Naive form loses all precision here; the log-space form must not.
        n, c = 3, 1e-12
        assert rho(n, c) == pytest.approx(3e-12, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            rho(0, 0.5)
        with pytest.raises(ValueError):
            rho(5, 0.0)
        with pytest.raises(ValueError):
            rho(5, 1.5)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), c=st.floats(1e-6, 1.0))
    def test_range_and_monotonicity(self, n, c):
        r = rho(n, c)
        assert c - 1e-12 <= r <= 1.0
        assert rho(n + 1, c) >= r - 1e-15


class TestBinomInvMoment:
    def test_single_draw(self):
        assert binom_inv_moment(1, 0.37) == pytest.approx(1.0, rel=1e-14)

    def test_two_draw_enumeration(self):
        assert binom_inv_moment(2, 0.5) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_certain_containment(self):
        assert binom_inv_moment(10, 1.0) == pytest.approx(0.1, rel=1e-14)

    def test_headline_anchor(self):
        # c^2 v = 1 at (c=1/4, v=16), so E[1/K | K > 0] at n=50 is itself
        # the dominant term of the 0.086 headline MSE.
        value = binom_inv_moment(50, 0.25)
        assert abs(value - 0.086) <= 0.002

    @pytest.mark.parametrize(
        "n,c",
        [
            (n, c)
            for n in (1, 2, 3, 5, 10, 30, 50, 100)
            for c in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
        ],
    )
    def test_against_exact_rational_oracle(self, n, c):
        oracle = float(exact_inv_moment(n, c))
        assert binom_inv_moment(n, float(c)) == pytest.approx(oracle, rel=1e-12)

    def test_frozen_headline_value(self):
        oracle = float(exact_inv_moment(50, Fraction(1, 4)))
        assert oracle == pytest.approx(0.08567569595881125, rel=1e-15)
        assert binom_inv_moment(50, 0.25) == pytest.approx(oracle, rel=1e-13)

    def test_range_and_monotone_in_n(self):
        for c in (0.1, 0.25, 0.5, 0.75, 1.0):
            previous = None
            for n in range(1, 60):
                value = binom_inv_moment(n, c)
                assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12
                if previous is not None:
                    assert value <= previous + 1e-12
                previous = value

    def test_large_n_stays_finite_and_sane(self):
        value = binom_inv_moment(10_000, 0.015)
        # For large n, E[1/K | K>0] approaches 1/E[K].
        assert value == pytest.approx(1.0 / 150.0, rel=0.05)

    @pytest.mark.parametrize("c", [1e-6, 0.015, 0.25, 0.75, 1.0 - 1e-6])
    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5, 10**6])
    def test_large_n_against_full_sum(self, n, c):
        k = np.arange(1, n + 1)
        pmf = binom.pmf(k, n, c)
        oracle = math.fsum(pmf / k) / math.fsum(pmf)
        assert binom_inv_moment(n, c) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("c", [1e-300, 1e-6, 0.015, 0.25, 0.75, 1.0 - 1e-6])
    @pytest.mark.parametrize("n", [1, 30, 10**3, 10**6])
    def test_window_leaves_out_at_most_the_stated_mass(self, n, c):
        lo, hi = _inv_moment_window(n, c)
        outside = binom.cdf(lo - 1, n, c) + binom.sf(hi, n, c)
        assert outside <= 2.0 * _INV_MOMENT_EPS * rho(n, c) / n
        # O(sqrt(n)) wide: ln(n / (eps rho)) < 800 for every double rho > 0
        # and n <= 10^6, so the half-width is below sqrt(400 n).
        assert hi - lo <= 40.0 * math.sqrt(n) + 2.0

    @pytest.mark.parametrize("c", [1e-300, 1e-6, 0.015, 0.5, 1.0 - 1e-6, 1.0 - 1e-12])
    @pytest.mark.parametrize("n", [1, 2, 3, 30, 10**3, 10**6])
    def test_one_buffer_sum_equals_three_array_reference(self, n, c):
        """The one-buffer sum does the reference's operations in the same
        order, so the bits agree. The grid puts the mode at each window
        edge (c = 1e-300 at lo = 0, c near 1 at hi = n)."""
        lo, hi = _inv_moment_window(n, c)
        mode = min(n, math.floor((n + 1) * c))
        odds = c / (1.0 - c)
        up = np.arange(mode, hi)
        down = np.arange(mode, lo, -1)
        u = np.concatenate([
            np.cumprod(down / (n - down + 1.0) / odds)[::-1],
            [1.0],
            np.cumprod((n - up) / (up + 1.0) * odds),
        ])
        k = np.arange(lo, hi + 1)
        if lo == 0:
            u, k = u[1:], k[1:]
        assert binom_inv_moment(n, c) == float(np.sum(u / k) / np.sum(u))

    def test_window_is_small_at_large_n(self):
        lo, hi = _inv_moment_window(10**6, 0.25)
        assert hi - lo + 1 <= 11_000


class TestMomentReport:
    def test_is_unconditional_headline(self):
        rep = moment_report("IS", "unconditional", MomentInputs(50, 0.25, 16.0, 10.0))
        assert rep.mean == 10.0 and rep.bias == 0.0
        assert rep.variance == pytest.approx(6.08, abs=1e-10)
        assert rep.mse == pytest.approx(6.08, abs=1e-10)

    def test_us_conditioned_positive_unbiased(self):
        rep = moment_report(
            "US", "conditioned-positive", MomentInputs(12, 0.3, 2.0, -4.0)
        )
        assert rep.bias == 0.0 and rep.mean == -4.0
        assert rep.mse == rep.variance

    def test_exact_regime_zero_bias_at_integral_cn(self):
        rep = moment_report(
            "IS", "conditioned-exact", MomentInputs(10, 0.5, 1.0, 3.0, kappa=5)
        )
        assert rep.bias == 0.0
        assert rep.variance is None and rep.mse is None

    def test_us_exact_regime_mean_theta(self):
        rep = moment_report(
            "US", "conditioned-exact", MomentInputs(10, 0.5, 1.0, 3.0, kappa=2)
        )
        assert rep.mean == 3.0 and rep.bias == 0.0

    def test_degenerate_c_one_matches_is(self):
        inputs = MomentInputs(20, 1.0, 5.0, 0.0)
        us = moment_report("US", "unconditional", inputs)
        is_ = moment_report("IS", "unconditional", inputs)
        assert us.variance == pytest.approx(5.0 / 20.0, rel=1e-12)
        assert us.variance == pytest.approx(is_.variance, rel=1e-12)

    def test_kappa_requirement_is_two_sided(self):
        with pytest.raises(ValueError, match="kappa"):
            moment_report("IS", "conditioned-exact", MomentInputs(10, 0.5, 1.0, 3.0))
        with pytest.raises(ValueError, match="kappa"):
            moment_report("IS", "unconditional", MomentInputs(10, 0.5, 1.0, 3.0, kappa=3))

    @pytest.mark.parametrize(
        "inputs",
        [MomentInputs(10, 1e-300, 1.0, 1.0), MomentInputs(10, 1.0, 1.0, 1e200)],
    )
    def test_overflow_is_an_error(self, inputs):
        """1e598 and 1e400 are not doubles; at c = 1 the second once gave
        inf * 0 = NaN."""
        regime = "conditioned-positive" if inputs.c < 1 else "unconditional"
        with pytest.raises(ValueError, match="overflow the double range"):
            moment_report("IS", regime, inputs)

    def test_unknown_labels_rejected(self):
        with pytest.raises(ValueError):
            moment_report("WIS", "unconditional", MomentInputs(10, 0.5, 1.0, 3.0))
        with pytest.raises(ValueError):
            moment_report("IS", "sometimes", MomentInputs(10, 0.5, 1.0, 3.0))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 100),
        c=st.floats(0.01, 1.0),
        v=st.floats(0.0, 50.0),
        theta=st.floats(-20.0, 20.0),
    )
    def test_report_internal_invariants(self, n, c, v, theta):
        inputs = MomentInputs(n, c, v, theta)
        for estimator in ("IS", "US"):
            for regime in ("unconditional", "conditioned-positive"):
                rep = moment_report(estimator, regime, inputs)
                assert abs(rep.bias - (rep.mean - theta)) <= 1e-12
                scale = max(1.0, abs(rep.mse))
                assert abs(rep.mse - (rep.variance + rep.bias**2)) <= 1e-12 * scale
                assert rep.variance >= -1e-12

    def test_exact_regime_means_average_to_positive_regime(self):
        # Averaging the exact-regime mean over K | K > 0 gives the k>0 mean.
        n, c, theta = 30, 0.2, 7.0
        r = rho(n, c)
        kappas = np.arange(1, n + 1)
        weights = binom.pmf(kappas, n, c) / r
        means = [
            moment_report(
                "IS", "conditioned-exact", MomentInputs(n, c, 1.0, theta, kappa=int(k))
            ).mean
            for k in kappas
        ]
        bridged = float(np.dot(weights, means))
        direct = moment_report(
            "IS", "conditioned-positive", MomentInputs(n, c, 1.0, theta)
        ).mean
        assert abs(bridged - direct) <= 1e-10

    def test_positive_regime_mean_averages_to_unconditional(self):
        inputs = MomentInputs(25, 0.35, 2.0, 4.5)
        us_pos = moment_report("US", "conditioned-positive", inputs)
        us_unc = moment_report("US", "unconditional", inputs)
        assert rho(25, 0.35) * us_pos.mean == us_unc.mean

    @pytest.mark.parametrize(
        "estimator, regime, calls",
        [
            ("IS", "unconditional", 0),
            ("IS", "conditioned-positive", 0),
            ("US", "unconditional", 1),
            ("US", "conditioned-positive", 1),
        ],
    )
    def test_inverse_moment_computed_only_for_us_cells(
        self, monkeypatch, estimator, regime, calls
    ):
        seen = []

        def counting(n, c):
            seen.append((n, c))
            return binom_inv_moment(n, c)

        monkeypatch.setattr(moments, "binom_inv_moment", counting)
        moment_report(estimator, regime, MomentInputs(50, 0.25, 16.0, 10.0))
        assert seen == [(50, 0.25)] * calls

    def test_averaged_cells_of_one_input_share_one_inverse_moment(self, monkeypatch):
        seen = []

        def counting(n, c):
            seen.append((n, c))
            return binom_inv_moment(n, c)

        monkeypatch.setattr(moments, "binom_inv_moment", counting)
        inputs = MomentInputs(50, 0.25, 16.0, 10.0)
        for estimator in ("IS", "US"):
            for regime in ("unconditional", "conditioned-positive"):
                moment_report(estimator, regime, inputs)
        assert seen == [(50, 0.25)]

    def test_us_variances_match_formulas_bit_for_bit(self):
        n, c, v, theta = 50, 0.25, 16.0, 10.0
        r, e_inv = rho(n, c), binom_inv_moment(n, c)
        inputs = MomentInputs(n, c, v, theta)
        assert moment_report("US", "unconditional", inputs).variance == (
            r * c * c * v * e_inv + theta * theta * r * (1.0 - r)
        )
        assert moment_report("US", "conditioned-positive", inputs).variance == (
            c * c * v * e_inv
        )


class TestUsBeatsIs:
    def test_single_draw_always_true(self):
        for c in (0.05, 0.3, 0.99, 1.0):
            assert us_beats_is(1, c)

    def test_equality_at_full_coverage(self):
        assert us_beats_is(17, 1.0)

    def test_agrees_with_variance_sign(self):
        for n in (1, 2, 5, 10, 50):
            for c in (0.1, 0.25, 0.5, 1.0):
                inputs = MomentInputs(n, c, 1.0, 0.0)
                is_var = moment_report("IS", "conditioned-positive", inputs).variance
                us_var = moment_report("US", "conditioned-positive", inputs).variance
                assert us_beats_is(n, c) == (us_var <= is_var + 1e-15)

    def test_flags_the_exception_region(self):
        assert not us_beats_is(10, 0.5)


class TestIllustrativeParams:
    """The tests' closed-form oracle and the problem it describes."""

    def test_examples(self):
        assert illustrative_params(2.0) == (1.0, 1.0)
        assert illustrative_params(0.5) == (0.25, 16.0)
        for f_max, theta in ((2.0, 0.0), (0.5, 0.0), (1.0, 5.0)):
            c, _ = illustrative_params(f_max)
            assert illustrative_problem(f_max, theta).c == c

    def test_domain(self):
        with pytest.raises(ValueError):
            illustrative_problem(0.0)
        with pytest.raises(ValueError):
            illustrative_problem(2.5)


class TestProperty3:
    def test_exact_zeros(self):
        assert property3_margin(1, 0.37) == 0.0
        assert property3_margin(14, 1.0) == 0.0

    def test_nonnegative_on_grid(self):
        for n in range(1, 201):
            for c100 in range(1, 101):
                assert property3_margin(n, c100 / 100.0) >= -1e-12

    def test_positive_interior_point(self):
        assert property3_margin(10, 0.3) > 0.0

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    @pytest.mark.parametrize("c", [0.9, 0.3, 1e-3, 1e-8, 1e-20, 1e-150])
    def test_is_positive_variance_exact_at_any_c(self, n, c):
        """Against exact rational arithmetic on the same double c. The
        direct difference rho - c n lost every digit of the variance by
        c = 1e-20, and its denominator c n rho^2 underflowed below
        c = 1e-103."""
        cq = Fraction(c)
        r = 1 - (1 - cq) ** n
        margin = cq * r * (n - 1) + r - cq * n
        want = cq / (n * r) + 9 * margin / (cq * n * r * r)
        got = moment_report("IS", "conditioned-positive", MomentInputs(n, c, 1.0, 3.0))
        assert got.variance == pytest.approx(float(want), rel=1e-13)
        assert property3_margin(n, c) == pytest.approx(float(margin), rel=1e-13)


class TestConvergenceRates:
    def test_us_quadratic_is_linear(self):
        n, v = 20, 3.0
        for i in range(1, 101):
            c = 1.0 / i
            inputs = MomentInputs(n, c, v, 0.0)
            us_var = moment_report("US", "conditioned-positive", inputs).variance
            is_var = moment_report("IS", "conditioned-positive", inputs).variance
            assert us_var <= v / i**2 + 1e-12
            assert is_var >= v / (n * i) - 1e-12


class TestMomentInputs:
    def test_validation(self):
        with pytest.raises(ValueError):
            MomentInputs(0, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            MomentInputs(5, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            MomentInputs(5, 0.5, -1.0, 0.0)
        with pytest.raises(ValueError):
            MomentInputs(5, 0.5, 1.0, 0.0, kappa=6)

    def test_nan_variance_rejected(self):
        with pytest.raises(ValueError, match="v must be nonnegative"):
            MomentInputs(10, 0.5, math.nan, 1.0)

    @pytest.mark.parametrize(
        "v, theta, message",
        [
            (math.inf, 1.0, "v must be finite"),
            (1.0, math.nan, "theta must be finite"),
            (1.0, math.inf, "theta must be finite"),
            (1.0, -math.inf, "theta must be finite"),
        ],
    )
    def test_non_finite_inputs_rejected(self, v, theta, message):
        with pytest.raises(ValueError, match=message):
            MomentInputs(10, 0.5, v, theta)
