"""Monte Carlo harness: problems, simulation, sweeps, and emission."""

import dataclasses
import functools
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from unequal_support import densities, experiments
from unequal_support._kernels import segment_estimates
from unequal_support.bounds import hoeffding_is, hoeffding_margin, hoeffding_us, weighted_range
from unequal_support.cli import DEFAULT_F_MAX_GRID, DEFAULT_THETA_GRID
from unequal_support.config import load_problem
from unequal_support.densities import (
    ControlVariateCoverageError,
    EstimationProblem,
    EvaluationFunction,
    IntervalUnion,
    PiecewiseUniform,
    PruningCoverageError,
    TruncatedNormal,
)
from unequal_support.estimators import ControlVariate
from unequal_support.experiments import (
    SyntheticReturnSurface,
    TrialStats,
    TrialWeights,
    analytic_reports,
    coverage_experiment,
    derive_seed,
    emit,
    illustrative_problem,
    moment_inputs,
    outcome_table,
    render,
    run_trials,
    sampling_mean,
    simulate_estimates,
    summarize_trials,
    sweep_bounds,
    sweep_illustrative,
    sweep_treatment_surrogate,
    treatment_problem,
)
from unequal_support.moments import rho

from oracles import illustrative_params


class TestIllustrativeProblem:
    def test_pruning_mass(self):
        for f_max in (0.2, 0.5, 1.0, 2.0):
            assert illustrative_problem(f_max).c == pytest.approx(f_max / 2, rel=1e-14)

    def test_true_value_is_theta(self):
        problem = illustrative_problem(0.8, theta=3.0)
        # E_f[h] averages the two equally likely values theta -/+ 1.
        xs = np.array([0.2, 0.6])
        hv = problem.evaluation(xs)
        assert hv.tolist() == [2.0, 4.0]

    def test_domain(self):
        with pytest.raises(ValueError):
            illustrative_problem(2.4)

    def test_sampling_mean_control_variate(self):
        problem = illustrative_problem(1.0, theta=0.0)
        # E_g[h] = 0.25 * (-1) + 0.75 * (+1) = 0.5
        assert sampling_mean(problem) == pytest.approx(0.5, rel=1e-14)


class TestSimulateEstimates:
    def test_rerun_is_identical(self):
        problem = illustrative_problem(0.5, 1.0)
        a = simulate_estimates(problem, 7, 5000, seed=99)
        b = simulate_estimates(problem, 7, 5000, seed=99)
        assert np.array_equal(a.is_values, b.is_values)
        assert np.array_equal(a.us_values, b.us_values)
        assert np.array_equal(a.wis_values, b.wis_values)
        assert np.array_equal(a.k, b.k)
        assert np.array_equal(a.count, b.count)

    def test_seed_changes_stream(self):
        problem = illustrative_problem(0.5, 1.0)
        a = simulate_estimates(problem, 7, 1000, seed=1)
        b = simulate_estimates(problem, 7, 1000, seed=2)
        assert not (
            np.array_equal(a.is_values, b.is_values) and np.array_equal(a.count, b.count)
        )

    def test_chunk_streams_are_keyed_by_seed_and_chunk(self):
        keys = [(0, 0), (0, 1), (1, 0), (1, 1), (2**64 - 1, 0), (7, 2**20)]
        draws = [experiments._chunk_rng(s, c).random(8).tobytes() for s, c in keys]
        assert len(set(draws)) == len(keys)
        again = [experiments._chunk_rng(s, c).random(8).tobytes() for s, c in keys]
        assert again == draws
        # The stream is PCG64DXSM seeded by the SeedSequence of the key.
        rng = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([7, 2**20])))
        assert rng.random(8).tobytes() == draws[-1]

    def test_spans_chunk_boundary(self):
        problem = illustrative_problem(1.0)
        sim = simulate_estimates(problem, 3, 4096 + 7, seed=5)
        assert sim.count.sum() == 4103

    def test_validation(self):
        problem = illustrative_problem(1.0)
        with pytest.raises(ValueError):
            simulate_estimates(problem, 0, 10, seed=1)
        with pytest.raises(ValueError):
            simulate_estimates(problem, 10, 0, seed=1)

    def test_overflowing_centered_terms_raise_without_warning(self):
        """At t = 1e308, w (h - t) overflows wherever w > 1.8: the kernel's
        finiteness check, not NumPy, reports it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow the double range"):
                simulate_estimates(treatment_problem(9.5), 30, 100, 1, t=1e308)


class HEvaluated(Exception):
    pass


def _surrogate_with(surface, evaluation=None, pruning=None):
    """The surrogate problem at cr_min = 9.5 under ``surface``, with parts
    swapped in."""
    base = treatment_problem(9.5, surface)
    return dataclasses.replace(
        base, evaluation=evaluation or base.evaluation, pruning=pruning or base.pruning
    )


class TestSurfacePath:
    """With a return surface on the problem, observations stand in for h(x)."""

    def test_h_is_not_evaluated(self):
        surface = SyntheticReturnSurface()
        armed = []

        def fn(x):
            if armed:
                raise HEvaluated
            return surface.marginal_return(x)

        base = treatment_problem(9.5, surface).evaluation
        evaluation = EvaluationFunction(fn, base.support)
        problem = _surrogate_with(surface, evaluation=evaluation)
        plain = dataclasses.replace(problem, surface=None)
        armed.append(True)  # construction checks h once; batches must not
        sim = simulate_estimates(problem, 6, 300, seed=3)
        assert np.isfinite(sim.is_values).all()
        with pytest.raises(HEvaluated):
            simulate_estimates(plain, 6, 300, seed=3)

    def test_pruning_check_reads_observed_values(self):
        surface = SyntheticReturnSurface()
        problem = _surrogate_with(surface, pruning=[(10.0, 11.0)])
        for t in (0.0, 0.3):
            with pytest.raises(PruningCoverageError):
                simulate_estimates(problem, 6, 300, seed=3, t=t)
        # Observations of 0 give f(x) R = 0 outside C although h != 0
        # there, so only the control-variate check, which reads f alone,
        # can fail.
        flat = SyntheticReturnSurface(
            base_level=0.0, base_gain=0.0, tilt_amplitude=0.0, noise_scale=0.0
        )
        problem = dataclasses.replace(problem, surface=flat)
        simulate_estimates(problem, 6, 300, seed=3)
        with pytest.raises(ControlVariateCoverageError):
            simulate_estimates(problem, 6, 300, seed=3, t=0.3)

    def test_matches_terms_rebuilt_in_draw_order(self):
        # sigma = 0.05 and 0.01 at cr_min = 10.95 and 10.99: the
        # narrowest targets, where F is one short cell.
        for cr_min in (9.75, 10.95, 10.99):
            problem = treatment_problem(cr_min)
            for t in (0.3, sampling_mean(problem)):
                assert_matches_rebuilt(problem, 123, t)


# (n, rows of each chunk): n = 7 keeps 4096-row chunks; n = 100 takes
# 2**17 // 100 = 1310 rows, two full chunks and a short last one; n above
# CHUNK_ELEMENTS takes one row per chunk.
CHUNKINGS = [(7, [4096, 50]), (100, [1310, 1310, 50]), (2**17 + 1, [1, 1])]
# observe folds the surface's constants into one affine map of its
# uniforms, so its values, and the IS, US and WIS sums over them, differ
# from the textbook expression by roundoff alone: a few ulp of each w h,
# at most SURFACE_RTOL times |t| plus the estimate's sum of w |h|.
SURFACE_RTOL = 1e-14


def segment_sum(values):
    """A nonempty segment's sum in the order np.add.reduceat takes: its
    first value plus the pairwise sum of the rest."""
    return values[0] + values[1:].sum()


def rebuilt_estimates(problem, n, chunk_rows, seed, t):
    """simulate_estimates rebuilt in plain allocating NumPy for a
    piecewise-uniform g: each chunk draws the trials' counts over the
    support cells, then the samples of each cell in F, uniform on the
    cell, then, with a surface on the problem, CF and then the day noise
    of those samples. A trial sums its segments cell by cell, each in
    np.add.reduceat's order."""
    g, surface = problem.sampling, problem.surface
    assert isinstance(g, PiecewiseUniform)
    lows, highs = problem.support_cells()
    masses = [g.interval_mass([(a, b)]) for a, b in zip(lows, highs)]
    mid = 0.5 * (lows + highs)
    f_cells = np.flatnonzero(problem.target.support.contains(mid))
    in_c = problem.pruning.contains(mid)
    parts = []
    for chunk, rows in enumerate(chunk_rows):
        rng = experiments._chunk_rng(seed, chunk)
        counts = rng.multinomial(n, masses, size=rows)
        x = np.concatenate(
            [rng.uniform(lows[j], highs[j], size=counts[:, j].sum()) for j in f_cells]
        )
        if surface is None:
            hv = problem.evaluation(x)
        else:
            cf = rng.uniform(surface.cf_low, surface.cf_high, size=x.shape)
            noise = rng.uniform(-surface.noise_scale, surface.noise_scale, size=x.shape)
            cf_mid = 0.5 * (surface.cf_low + surface.cf_high)
            cf_half = 0.5 * (surface.cf_high - surface.cf_low)
            tilt = surface.tilt_amplitude * (cf - cf_mid) / cf_half
            hv = surface.marginal_return(x) + tilt + noise
        w = problem.target.pdf(x) / problem.sampling.pdf(x)
        wh = w * (hv - t)
        row_sum, sum_w = np.zeros(rows), np.zeros(rows)
        start = 0
        for j in f_cells:
            for i, size in enumerate(counts[:, j].tolist()):
                if size:
                    row_sum[i] += segment_sum(wh[start : start + size])
                    sum_w[i] += segment_sum(w[start : start + size])
                    start += size
        k = counts[:, in_c].sum(axis=1)
        us, wis = np.zeros(rows), np.zeros(rows)
        us[k > 0] = t + problem.c * row_sum[k > 0] / k[k > 0]
        wis_defined = sum_w > 0.0
        wis[wis_defined] = t + row_sum[wis_defined] / sum_w[wis_defined]
        parts.append((t + row_sum / n, us, wis, k, wis_defined))
    return [np.concatenate([p[i] for p in parts]) for i in range(5)]


def assert_matches_rebuilt(problem, seed, t):
    """k, WIS-defined and the counts bit for bit; IS, US and WIS bit for
    bit without a surface, and within SURFACE_RTOL with one."""
    for n, chunk_rows in CHUNKINGS:
        sim = simulate_estimates(problem, n, sum(chunk_rows), seed, t=t)
        want = rebuilt_estimates(problem, n, chunk_rows, seed, t)
        got = (sim.is_values, sim.us_values, sim.wis_values, sim.k, sim.wis_defined)
        for column, expected in zip(got[3:], want[3:]):
            assert np.array_equal(column, expected)
        assert sim.count.tolist() == [1] * sum(chunk_rows)
        if problem.surface is None:
            for column, expected in zip(got[:3], want[:3]):
                assert np.array_equal(column, expected)
            continue
        # The returns are positive, so the t = 0 estimates sum w |h|.
        scales = rebuilt_estimates(problem, n, chunk_rows, seed, 0.0)[:3]
        for column, expected, scale in zip(got[:3], want[:3], scales):
            assert np.all(np.abs(column - expected) <= SURFACE_RTOL * (abs(t) + scale))


def two_piece_problem():
    """Truncated-normal f, two-piece g, a smooth h and C = F, whose mass
    under g is c = 0.75: no surface and not piecewise-constant, so the
    sample path runs, and F holds two support cells."""
    target = TruncatedNormal(0.25, 1.75, mean=1.0, stddev=0.4)
    sampling = PiecewiseUniform([(0.0, 1.0), (1.0, 2.0)], weights=[0.4, 0.6])
    evaluation = EvaluationFunction(lambda x: 1.0 + np.sin(3.0 * x), [(0.0, 2.0)])
    return EstimationProblem(target, sampling, evaluation, IntervalUnion([(0.25, 1.75)]))


class TestSamplePathWithoutSurface:
    def test_matches_terms_rebuilt_in_draw_order(self):
        """The two-piece problem: its F cells, [0.25, 1] and [1, 1.75],
        each draw their own samples."""
        problem = two_piece_problem()
        assert problem.c == 0.75
        assert not problem.piecewise_constant
        assert_matches_rebuilt(problem, 321, 0.5)


class TestSamplePathKernelInput:
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_kernel_sums_the_workspace_scratch(self, t, monkeypatch):
        """Each chunk hands the segment kernel the scratch array of its
        workspace, into which batch_terms wrote the centered terms, not a
        copy, with its trials' in-F counts as the segments."""
        scratches, kernel_args = [], []
        batch_terms = EstimationProblem.batch_terms

        def spy_terms(self, *args, **kwargs):
            scratches.append(kwargs["scratch"])
            return batch_terms(self, *args, **kwargs)

        def spy_kernel(*args):
            kernel_args.append(args)
            return segment_estimates(*args)

        monkeypatch.setattr(EstimationProblem, "batch_terms", spy_terms)
        monkeypatch.setattr(experiments, "segment_estimates", spy_kernel)
        sim = simulate_estimates(treatment_problem(9.5), 30, 5000, seed=3, t=t)
        assert len(kernel_args) == len(scratches) == 2
        assert all(args[0] is work for args, work in zip(kernel_args, scratches))
        # One F cell, [9.5, 11], which is C: every in-C sample is drawn.
        for wh, w, sizes, k, *_ in kernel_args:
            assert sizes.shape == (1, len(k)) and sizes.sum() == wh.size == w.size
            assert np.array_equal(sizes[0], k)
        assert np.array_equal(np.concatenate([args[3] for args in kernel_args]), sim.k)


class TestSamplePathMemory:
    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    def test_peak_does_not_grow_with_n(self, n):
        """The sample-path twin of the cell-path memory test.

        A chunk holds at most CHUNK_ELEMENTS = 2**17 samples, so the
        workspace (x, observations, weights, one scratch) and the
        temporaries of one chunk stay under a few times 2**17 float64
        values, plus O(trials) for the per-trial results. Only n > 2**17
        holds more: one row of n samples.
        """
        problem = treatment_problem(9.5)
        trials = 40
        tracemalloc.start()
        sim = simulate_estimates(problem, n, trials, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * experiments.CHUNK_ELEMENTS * 8 + 1024 * trials
        assert np.isfinite(sim.is_values).all()

    def test_one_workspace_per_call(self):
        """Every chunk runs in the workspace of its call: four float64
        arrays of 4096 x 30 values (x, the observations, the weights, one
        scratch), 8 bytes a sample each, beside one chunk's boolean masks
        of its drawn samples, 1 byte a sample each. The rest is the result
        columns, 74 bytes a trial: 33 (IS, US, WIS, k, WIS-defined) in
        each chunk's part, 33 as the parts are joined, and the 8-byte
        counts; each chunk's part also holds five array headers, under
        1 kB."""
        problem = treatment_problem(9.0)
        samples = experiments.CHUNK_TRIALS * 30
        workspace, masks, per_trial, per_chunk = 4 * 8 * samples, 4 * samples, 74, 1024
        peaks = {}
        for trials in (8192, 32768):
            tracemalloc.start()
            simulate_estimates(problem, 30, trials, seed=8)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peaks[trials] < workspace + masks + per_trial * trials
        extra_chunks = (32768 - 8192) // experiments.CHUNK_TRIALS
        assert peaks[32768] - peaks[8192] <= per_trial * (32768 - 8192) + per_chunk * extra_chunks


class TestSamplesOnlyInF:
    @pytest.mark.parametrize("name", ["surface", "plain", "two-piece"])
    def test_no_x_outside_f_is_observed_or_evaluated(self, name, monkeypatch):
        """observe, h and f's pdf see only samples in F = supp f: a sample
        outside F has w = 0, and its cell's count alone gives whether it
        lies in C."""
        problem = two_piece_problem() if name == "two-piece" else treatment_problem(9.75)
        if name == "plain":
            problem = dataclasses.replace(problem, surface=None)
        in_f = problem.target.support.contains
        seen = []
        observe = SyntheticReturnSurface.observe
        evaluate = EvaluationFunction.__call__
        pdf = TruncatedNormal.pdf

        def spy_observe(self, rng, cr, out=None, scratch=None):
            seen.append(("observe", np.asarray(cr).copy()))
            return observe(self, rng, cr, out=out, scratch=scratch)

        def spy_evaluate(self, x, out=None):
            seen.append(("h", np.asarray(x).copy()))
            return evaluate(self, x, out=out)

        def spy_pdf(self, x, out=None):
            if self is problem.target:
                seen.append(("f", np.asarray(x).copy()))
            return pdf(self, x, out=out)

        monkeypatch.setattr(SyntheticReturnSurface, "observe", spy_observe)
        monkeypatch.setattr(EvaluationFunction, "__call__", spy_evaluate)
        monkeypatch.setattr(TruncatedNormal, "pdf", spy_pdf)
        sim = simulate_estimates(problem, 30, 5000, seed=4, t=0.3)
        want = {"f", "observe"} if problem.surface is not None else {"f", "h"}
        assert {call for call, _ in seen} == want
        # Every in-C sample lies in F here, so k counts the samples drawn.
        assert sum(x.size for call, x in seen if call == "f") == sim.k.sum()
        assert all(in_f(x).all() for _, x in seen)

    def test_f_cell_of_no_g_mass_is_never_drawn(self):
        """g's mass on F = [50, 60] underflows to 0, so g cannot be
        restricted there; no sample lands in it, and every w is 0."""
        g = TruncatedNormal(0.0, 100.0, mean=0.0, stddev=0.1)
        h = EvaluationFunction(lambda x: 1.0 + 0.0 * x, [(0.0, 100.0)])
        problem = EstimationProblem(PiecewiseUniform.uniform(50.0, 60.0), g, h, [(0.0, 100.0)])
        assert g.interval_mass([(50.0, 60.0)]) == 0.0
        sim = simulate_estimates(problem, 5, 100, seed=1)
        assert np.all(sim.is_values == 0.0) and not sim.wis_defined.any()
        assert np.all(sim.k == 5)


def binomial_pmf(n, c):
    return np.array([math.comb(n, j) * c**j * (1.0 - c) ** (n - j) for j in range(n + 1)])


def reference_wis(problem, n, trials, seed):
    """WIS over batches drawn the textbook way, every sample from g and
    observed, in plain allocating NumPy: Var and E of Sum w R / Sum w,
    0 where every w is 0."""
    rng = np.random.default_rng(seed)
    x = problem.sampling.sample(rng, (trials, n))
    r = problem.surface.observe(rng, x)
    w = problem.target.pdf(x) / problem.sampling.pdf(x)
    sum_w = w.sum(axis=1)
    return np.where(sum_w > 0.0, (w * r).sum(axis=1) / np.where(sum_w > 0.0, sum_w, 1.0), 0.0)


def mean_and_variance_ses(values):
    """(mean, variance, se of the mean, se of the variance) of a sample."""
    mean, var = values.mean(), values.var(ddof=1)
    fourth = ((values - mean) ** 4).mean()
    size = values.size
    return mean, var, math.sqrt(var / size), math.sqrt(max(fourth - var * var, 0.0) / size)


class TestCountsFirstDistribution:
    TRIALS = 40_000
    N = 30

    @pytest.mark.parametrize("cr_min", [8.5, 9.75, 10.9])
    def test_k_is_binomial_and_moments_match_the_catalog(self, cr_min):
        """Drawing each trial's cell counts first and then its samples in
        F is exact in distribution: k follows Binomial(n, c), and the IS
        and US means and variances, over all trials and over those with
        k > 0, match analytic_reports within 4 standard errors. The
        catalog has no WIS cell, so WIS's mean and variance are held to a
        textbook full-sample draw within 4 combined standard errors."""
        n, trials = self.N, self.TRIALS
        problem = treatment_problem(cr_min)
        c = problem.c
        theta, v = moment_inputs(problem)
        sim = simulate_estimates(problem, n, trials, seed=12)
        freq = np.bincount(sim.k, minlength=n + 1) / trials
        pmf = binomial_pmf(n, c)
        assert np.all(np.abs(freq - pmf) <= 4.0 * np.sqrt(pmf * (1.0 - pmf) / trials) + 1e-12)

        stats = run_trials(problem, n, trials, theta, seed=12)
        reports = analytic_reports(n, c, v, theta)
        for cell, label in [
            ("is_unconditional", "IS"), ("is_positive", "IS"),
            ("us_unconditional", "US"), ("us_positive", "US"),
        ]:
            prefix = "cond_" if cell.endswith("positive") else ""
            for stat in ("mean", "variance"):
                empirical = getattr(stats[label], prefix + stat)
                se = getattr(stats[label], prefix + "se_" + stat)
                analytic = getattr(reports[cell], stat)
                assert abs(empirical - analytic) <= 4.0 * se + 1e-15, (cell, stat)

        got = mean_and_variance_ses(sim.wis_values)
        want = mean_and_variance_ses(reference_wis(problem, n, trials, seed=13))
        for i in (0, 1):
            assert abs(got[i] - want[i]) <= 4.0 * math.hypot(got[i + 2], want[i + 2]), i


class TestSummarize:
    def test_against_direct_formulas(self):
        values = np.array([1.0, 2.0, 4.0, 0.0, 3.0])
        theta = 2.0
        positive = np.array([True, True, False, True, True])
        defined = np.ones(5, dtype=bool)
        stats = summarize_trials(
            "IS", values, theta, defined, TrialWeights(np.ones(5), positive)
        )
        assert stats.mean == pytest.approx(values.mean())
        assert stats.variance == pytest.approx(values.var(ddof=1))
        assert stats.mse == pytest.approx(((values - theta) ** 2).mean())
        assert stats.se_mean == pytest.approx(
            math.sqrt(values.var(ddof=1) / values.size)
        )
        sub = values[positive]
        assert stats.cond_mean == pytest.approx(sub.mean())
        assert stats.positive_trials == 4
        assert stats.undefined_rate == 0.0

    def test_undefined_rate(self):
        values = np.array([0.0, 1.0, 0.0, 1.0])
        defined = np.array([False, True, False, True])
        stats = summarize_trials(
            "US", values, 1.0, defined, TrialWeights(np.ones(4), defined)
        )
        assert stats.undefined_rate == 0.5
        assert stats.se_undefined_rate == pytest.approx(math.sqrt(0.25 / 4))


def per_trial_summary(label, values, theta, defined, positive) -> TrialStats:
    """The summary of one value per trial that the count-weighted
    summaries replace, kept as their reference."""

    def block(values):
        count = values.size
        if count < 2:
            only = float(values[0]) if count == 1 else math.nan
            return only, math.nan, (only - theta) ** 2 if count else math.nan, *(math.nan,) * 3
        mean = float(values.mean())
        centered = values - mean
        variance = float(centered.dot(centered) / (count - 1))
        sq = centered * centered
        fourth = float(sq.dot(sq) / count)
        sq_err = (values - theta) ** 2
        return (
            mean,
            variance,
            float(sq_err.mean()),
            math.sqrt(variance / count),
            math.sqrt(max(fourth - variance * variance, 0.0) / count),
            float(sq_err.std(ddof=1)) / math.sqrt(count),
        )

    p_undef = float(1.0 - np.mean(defined))
    return TrialStats(
        label,
        values.size,
        *block(values),
        int(np.count_nonzero(positive)),
        *block(values[positive]),
        p_undef,
        math.sqrt(max(p_undef * (1.0 - p_undef), 0.0) / values.size),
    )


def per_trial(sim) -> list:
    """(IS, US, WIS, k, WIS-defined), one entry per trial: each row
    repeated as many times as it was drawn."""
    cols = (sim.is_values, sim.us_values, sim.wis_values, sim.k, sim.wis_defined)
    return [np.repeat(col, sim.count) for col in cols]


def assert_close(got, want, what=None):
    """Equal, both NaN, or within 1e-10 relative: the summation order
    of a count-weighted sum differs from a per-trial one."""
    if isinstance(want, (int, str)) or not (math.isfinite(got) or math.isfinite(want)):
        assert got == want or (math.isnan(got) and math.isnan(want)), what
    else:
        assert abs(got - want) <= 1e-10 * max(abs(got), abs(want)), (what, got, want)


def _summary_points():
    """(name, problem, n, theta): the acceptance grid on the
    outcome table, then two per-trial-count and two sample-path points."""
    for f_max in (0.2, 0.5, 1.0, 2.0):
        for theta in (0.0, 1.0, 10.0):
            for n in (5, 10, 50):
                problem = illustrative_problem(f_max, theta)
                yield f"table-{f_max}-{theta}-{n}", problem, n, theta
    two_cells = EstimationProblem(
        PiecewiseUniform([(0.0, 0.5), (0.5, 1.0)], [0.8, 0.2]),
        PiecewiseUniform.uniform(0.0, 2.0),
        EvaluationFunction.piecewise_constant([(0.0, 0.25, -1.0), (0.25, 1.0, 2.0)]),
        [(0.0, 1.0)],
    )
    yield "cell-counts-two-weights", two_cells, 120, 0.4
    yield "cell-counts-illustrative", illustrative_problem(0.5, 10.0), 200, 10.0
    treatment = treatment_problem(9.5)
    yield "samples-surface", treatment, 30, moment_inputs(treatment)[0]
    plain = illustrative_problem(1.0, 1.0)
    plain_h = EvaluationFunction(plain.evaluation.fn, plain.evaluation.support)
    plain = EstimationProblem(plain.target, plain.sampling, plain_h, plain.pruning)
    yield "samples-plain-h", plain, 10, 1.0


SUMMARY_POINTS = list(_summary_points())


class TestCountWeightedSummaries:
    """Summaries and bound rows of the outcome-table, per-trial-count
    and sample paths against the per-trial formulas on the same trials."""

    @pytest.mark.parametrize("cv", [0.0, 0.75])
    def test_trial_stats_match_per_trial_summary(self, cv):
        for name, problem, n, theta in SUMMARY_POINTS:
            trials, seed = 20_000 if name.startswith("table") else 3000, 23
            sim = simulate_estimates(problem, n, trials, seed, t=cv)
            assert (sim.count == 1).all() != name.startswith("table")
            stats = run_trials(problem, n, trials, theta, ControlVariate(cv), seed)
            is_v, us_v, wis_v, k, wis_defined = per_trial(sim)
            positive = k > 0
            want = {
                "IS": per_trial_summary("IS", is_v, theta, np.ones(trials, bool), positive),
                "US": per_trial_summary("US", us_v, theta, positive, positive),
                "WIS": per_trial_summary("WIS", wis_v, theta, wis_defined, positive),
            }
            for label, expected in want.items():
                for field, value in expected.to_record().items():
                    assert_close(getattr(stats[label], field), value, (name, label, field))

    def test_weighted_rows_equal_repeated_unit_rows(self):
        values = np.array([3.0, -1.0, 0.5, 7.0])
        count = np.array([2, 1, 0, 5])
        positive = np.array([True, False, True, True])
        defined = np.array([True, True, False, True])
        got = summarize_trials("US", values, 1.5, defined, TrialWeights(count, positive))
        want = summarize_trials(
            "US",
            np.repeat(values, count),
            1.5,
            np.repeat(defined, count),
            TrialWeights(np.ones(count.sum()), np.repeat(positive, count)),
        )
        assert got.trials == 8 and got.positive_trials == 7
        for field, value in want.to_record().items():
            assert_close(getattr(got, field), value, field)

    @pytest.mark.parametrize("t", [0.0, 0.75])
    @pytest.mark.parametrize(
        "name", ["table-0.5-10.0-10", "cell-counts-illustrative", "samples-plain-h"]
    )
    def test_shared_weights_equal_independent_summaries(self, name, t):
        """run_trials' three summaries share one TrialWeights and equal,
        field by field, summaries that each form their own."""
        _, problem, n, theta = next(p for p in SUMMARY_POINTS if p[0] == name)
        trials, seed = 3000, 31
        stats = run_trials(problem, n, trials, theta, ControlVariate(t), seed)
        sim = simulate_estimates(problem, n, trials, seed, t=t)
        assert (sim.count == 1).all() != name.startswith("table")
        positive = sim.us_defined
        columns = {
            "IS": (sim.is_values, np.ones(positive.size, dtype=bool)),
            "US": (sim.us_values, positive),
            "WIS": (sim.wis_values, sim.wis_defined),
        }
        for label, (values, defined) in columns.items():
            weights = TrialWeights(sim.count, positive)
            want = summarize_trials(label, values, theta, defined, weights)
            for field, value in want.to_record().items():
                got = getattr(stats[label], field)
                assert got == value or (math.isnan(got) and math.isnan(value)), (
                    label, field, got, value,
                )

    @pytest.mark.parametrize("n, trials", [(10, 20_000), (200, 2000)])
    def test_bound_rows_match_per_trial_formulas(self, n, trials):
        """n = 10 takes the outcome table, n = 200 per-trial counts."""
        check_bound_rows(0.5, [n], 0.1, trials, 9, 1.0)

    @pytest.mark.parametrize("f_max, theta", [(0.1, 0.0), (1.0, 10.0), (2.0, 1.0)])
    def test_each_row_recomputed_through_the_bound_functions(self, f_max, theta):
        """Several rows per sweep, each at its own point seed; at n = 1
        and 2 most trials have k = 0 and undefined US bounds."""
        check_bound_rows(f_max, [1, 2, 10, 128], 0.05, 3000, 7, theta)


def check_bound_rows(f_max, n_grid, delta, trials, seed, theta):
    """Every sweep_bounds and coverage_experiment row against its
    simulation, expanded to one entry per trial, with each bound and
    margin taken from the public functions of ``bounds``. The shares and
    mean k are exact sums of whole numbers, so they match bit for bit."""
    problem = illustrative_problem(f_max, theta)
    c, b = problem.c, weighted_range(problem)
    bound_rows = sweep_bounds(f_max, n_grid, delta, trials, seed, theta)
    coverage_rows = coverage_experiment(f_max, n_grid, delta, trials, theta, seed)
    for index, (n, row, cov) in enumerate(zip(n_grid, bound_rows, coverage_rows, strict=True)):
        sim = simulate_estimates(problem, n, trials, derive_seed(seed, index))
        is_v, us_v, _, k, _ = per_trial(sim)
        defined = k > 0
        is_lower, is_upper = hoeffding_is(is_v, b, n, delta)
        us_lower, us_upper = (bound[defined] for bound in hoeffding_us(us_v, b, c, k, delta))
        is_margin = hoeffding_margin(b, n, delta)
        us_margin = hoeffding_margin(c * b, k[defined], delta)
        mean = lambda values: float(np.mean(values)) if values.size else math.nan

        assert row.seed == cov.seed == derive_seed(seed, index)
        assert_close(row.mean_is_lower, mean(is_lower))
        assert_close(row.mean_is_upper, mean(is_upper))
        assert_close(row.mean_us_lower, mean(us_lower))
        assert_close(row.mean_us_upper, mean(us_upper))
        assert row.empirical_rho == float(np.mean(defined))

        assert cov.coverage_is == float(np.mean(is_lower <= theta))
        assert cov.coverage_us == mean(us_lower <= theta)
        assert cov.mean_k == float(k.mean())
        assert cov.undefined_rate == float(1.0 - np.mean(defined))
        assert cov.mean_margin_is == is_margin
        assert_close(cov.mean_margin_us, mean(us_margin))
        assert_close(cov.margin_ratio, mean(us_margin) / is_margin)
        if k.any():
            assert_close(cov.predicted_ratio, c * math.sqrt(n / float(k.mean())))
        else:
            assert math.isnan(cov.predicted_ratio)


class TestRunTrials:
    def test_on_distribution_all_unbiased(self):
        f = PiecewiseUniform.uniform(0.0, 1.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 0.5, 2.0), (0.5, 1.0, 0.5)])
        prune = [(0.0, 1.0)]
        problem = EstimationProblem(f, f, h, prune)
        theta = 1.25
        stats = run_trials(problem, 20, 30_000, theta, seed=7)
        for label in ("IS", "US", "WIS"):
            s = stats[label]
            assert abs(s.mean - theta) <= 3.0 * s.se_mean
            assert s.undefined_rate == 0.0


class TestAnalyticReports:
    def test_matches_plain_catalog_when_uncentered(self):
        from unequal_support.moments import MomentInputs, moment_report

        reports = analytic_reports(10, 0.25, 16.0, 10.0)
        direct = moment_report("IS", "unconditional", MomentInputs(10, 0.25, 16.0, 10.0))
        assert reports["is_unconditional"] == direct

    def test_centered_is_mean_recovers_theta(self):
        reports = analytic_reports(10, 0.5, 4.0, 3.0, t=2.0)
        assert reports["is_unconditional"].mean == pytest.approx(3.0)
        assert reports["is_unconditional"].bias == pytest.approx(0.0, abs=1e-14)
        r = rho(10, 0.5)
        assert reports["is_positive"].mean == pytest.approx(2.0 + 1.0 / r, rel=1e-14)
        assert reports["us_unconditional"].mean == pytest.approx(r * 3.0, rel=1e-14)
        assert reports["us_positive"].mean == 3.0

    def test_centered_moments_match_simulation(self):
        theta, f_max, n, t = 3.0, 0.5, 10, 1.5
        problem = illustrative_problem(f_max, theta)
        c = problem.c
        reports = analytic_reports(n, c, 16.0, theta, t=t)
        stats = run_trials(problem, n, 120_000, theta, ControlVariate(t), seed=41)
        for cell, label, attr in [
            ("is_unconditional", "IS", "mean"),
            ("is_unconditional", "IS", "variance"),
            ("is_positive", "IS", "cond_mean"),
            ("is_positive", "IS", "cond_variance"),
            ("us_unconditional", "US", "mean"),
            ("us_unconditional", "US", "variance"),
            ("us_positive", "US", "cond_mean"),
            ("us_positive", "US", "cond_variance"),
        ]:
            analytic = getattr(
                reports[cell], attr.replace("cond_", "")
            )
            empirical = getattr(stats[label], attr)
            se = getattr(stats[label], ("cond_se_" if "cond" in attr else "se_") + attr.replace("cond_", ""))
            assert abs(empirical - analytic) <= 3.0 * se, (cell, attr)


class TestSweepIllustrative:
    def test_full_coverage_rows_have_equal_columns(self):
        rows = sweep_illustrative([2.0], [1.0], [10], trials=2000, seed=1)
        rec = rows[0].record()
        assert rec["analytic_is_var_u"] == pytest.approx(rec["analytic_us_var_u"], rel=1e-12)
        assert rec["analytic_is_var_c"] == pytest.approx(rec["analytic_us_var_c"], rel=1e-12)
        assert rec["undefined_rate"] == 0.0

    def test_exception_region_ordering(self):
        rows = sweep_illustrative([1.0], [0.0], [10], trials=2000, seed=1)
        rec = rows[0].record()
        assert rec["analytic_is_var_c"] < rec["analytic_us_var_c"]

    def test_small_target_large_gap(self):
        rows = sweep_illustrative([0.2], [10.0], [50], trials=2000, seed=1)
        rec = rows[0].record()
        assert rec["analytic_us_var_u"] * 10.0 < rec["analytic_is_var_u"]

    def test_wis_equals_us_per_batch(self):
        problem = illustrative_problem(0.5, theta=3.0)
        sim = simulate_estimates(problem, 20, 1000, seed=17)
        pos = sim.k > 0
        assert sim.count[pos].sum() > 900
        np.testing.assert_allclose(
            sim.wis_values[pos], sim.us_values[pos], rtol=1e-12
        )

    def test_empty_grid_rejected(self, monkeypatch):
        """All four sweeps walk one grid, so each raises the same error for
        an empty point grid or an empty n grid, before any trial runs."""

        def fail(*args, **kwargs):
            raise AssertionError("an empty grid must be rejected before any trial runs")

        monkeypatch.setattr(experiments, "simulate_estimates", fail)
        calls = [
            lambda: sweep_illustrative([], [0.0], [10], 100, 0),
            lambda: sweep_illustrative([0.5], [0.0], [], 100, 0),
            lambda: sweep_illustrative([0.5], [], [10], 100, 0),
            lambda: sweep_treatment_surrogate([], n=10, trials=100),
            lambda: sweep_bounds(0.5, [], 0.1, 100, 0),
            lambda: coverage_experiment(0.5, [], 0.1, 100),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^grids must be nonempty$"):
                call()

    def test_rows_take_point_seeds_in_point_then_n_order(self):
        """The i-th row over (f_max, theta, n), n varying fastest, carries
        derive_seed(seed, i)."""
        f_max_grid, theta_grid, n_grid = [0.5, 2.0], [0.0, 10.0], [5, 200]
        rows = sweep_illustrative(f_max_grid, theta_grid, n_grid, 300, 13)
        grid = [(f, th, n) for f in f_max_grid for th in theta_grid for n in n_grid]
        assert [(row.coord, row.theta, row.n) for row in rows] == grid
        assert [row.seed for row in rows] == [derive_seed(13, i) for i in range(len(grid))]

    def test_record_schema(self):
        rows = sweep_illustrative([0.5], [10.0], [50], trials=1000, seed=3)
        expected = (
            "f_max,theta,n,c,v,analytic_is_var_u,analytic_is_var_c,"
            "analytic_us_var_u,analytic_us_var_c,analytic_us_mse_u,"
            "emp_is_mean,emp_is_var,emp_is_mse,emp_us_mean,emp_us_var,"
            "emp_us_mse,emp_wis_mean,emp_wis_var,emp_wis_mse,undefined_rate,seed"
        )
        assert list(rows[0].record().keys()) == expected.split(",")


class TestSweepBounds:
    def test_mean_bounds_stay_finite_near_the_double_range(self):
        """b = 4e306: every per-row bound is finite, but their sum over
        100 trials is not."""
        (row,) = sweep_bounds(0.5, [10], delta=0.1, trials=100, seed=0, theta=1e306)
        means = (row.mean_is_lower, row.mean_is_upper, row.mean_us_lower, row.mean_us_upper)
        assert all(math.isfinite(m) for m in means)
        assert row.mean_is_lower < row.theta < row.mean_is_upper

    def test_pruned_interval_narrower(self):
        rows = sweep_bounds(0.5, [10, 50, 100], delta=0.1, trials=4000, seed=2)
        for row in rows:
            is_width = row.mean_is_upper - row.mean_is_lower
            us_width = row.mean_us_upper - row.mean_us_lower
            assert us_width < is_width

    def test_rho_column(self):
        rows = sweep_bounds(0.5, [5, 20], delta=0.1, trials=20_000, seed=8)
        for row in rows:
            se = math.sqrt(row.analytic_rho * (1 - row.analytic_rho) / 20_000)
            assert abs(row.empirical_rho - row.analytic_rho) <= max(3.0 * se, 1e-12)

    def test_delta_one_collapses(self):
        rows = sweep_bounds(0.5, [10], delta=1.0, trials=500, seed=3)
        assert rows[0].mean_is_lower == rows[0].mean_is_upper
        assert rows[0].mean_us_lower == rows[0].mean_us_upper


class TestTermsBuiltOnce:
    @staticmethod
    def count_builds(monkeypatch) -> list:
        """The problems whose terms are built from here on, one entry per
        node_terms call."""
        built = []
        node_terms = EstimationProblem.node_terms

        def counting(problem, x, q):
            built.append(problem)
            return node_terms(problem, x, q)

        monkeypatch.setattr(EstimationProblem, "node_terms", counting)
        return built

    @pytest.mark.parametrize("sweep", ["bounds", "coverage"])
    def test_one_build_per_sweep(self, monkeypatch, sweep):
        built = self.count_builds(monkeypatch)
        if sweep == "bounds":
            sweep_bounds(0.5, [10, 20], delta=0.1, trials=500, seed=2)
        else:
            coverage_experiment(0.5, [10, 20], delta=0.1, trials=500, seed=2)
        assert len(built) == 1

    def test_cached_on_the_problem(self, monkeypatch):
        """Both cell paths, the outcome table, b and the analytic inputs
        all read one build of the problem's terms."""
        built = self.count_builds(monkeypatch)
        problem = illustrative_problem(0.5)
        simulate_estimates(problem, 5, 1000, seed=1)  # 21 outcomes: the table
        simulate_estimates(problem, 200, 100, seed=1)  # per-trial counts
        outcome_table(problem, 10)
        weighted_range(problem)
        sampling_mean(problem)
        moment_inputs(problem, 0.5)
        assert len(built) == 1 and built[0] is problem
        assert problem.terms is problem.terms


class TestCoverage:
    def test_lower_bound_coverage(self):
        rows = coverage_experiment(1.0, [10, 50], delta=0.1, trials=4000, theta=1.0, seed=4)
        for row in rows:
            assert row.coverage_is >= 0.89
            assert row.coverage_us >= 0.89
            assert row.mean_margin_us <= row.mean_margin_is


def _pieces_mean(problem):
    """E_g[h] of a step evaluation from the exact interval masses under g."""
    return math.fsum(
        value * problem.sampling.interval_mass([(lo, hi)])
        for lo, hi, value in problem.evaluation.pieces
    )


def _without_pieces(problem):
    """The same problem with h as a plain function: not piecewise-constant,
    so its terms come from Gauss-Legendre nodes."""
    h = problem.evaluation
    evaluation = EvaluationFunction(h.fn, h.support)
    return EstimationProblem(problem.target, problem.sampling, evaluation, problem.pruning)


class TestDerivedInputs:
    """sampling_mean and moment_inputs, read off a problem's terms."""

    @pytest.mark.parametrize("f_max", DEFAULT_F_MAX_GRID)
    def test_cli_grid_matches_closed_form(self, f_max):
        for theta in DEFAULT_THETA_GRID:
            problem = illustrative_problem(f_max, theta)
            mean = sampling_mean(problem)
            assert mean == pytest.approx(_pieces_mean(problem), rel=1e-14, abs=0.0)
            _, v_closed = illustrative_params(f_max)
            for t in (0.0, mean):
                derived_theta, v = moment_inputs(problem, t)
                assert derived_theta == pytest.approx(theta, rel=1e-14, abs=0.0)
                assert v == pytest.approx(v_closed, rel=1e-14, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        cuts=st.lists(st.floats(0.05, 0.95), min_size=4, max_size=4, unique=True),
        weights=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
        values=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        h_cut=st.floats(0.1, 3.9),
        c_ends=st.tuples(st.floats(0.0, 0.45), st.floats(0.55, 1.0)),
        t=st.floats(-3.0, 3.0),
    )
    def test_gauss_legendre_terms_agree_with_cell_table(
        self, cuts, weights, values, h_cut, c_ends, t
    ):
        a, b, fa, fb = sorted(4.0 * x for x in cuts)
        g = PiecewiseUniform([(0.0, b), (b, 4.0)], [weights[0], 1.0 - weights[0]])
        f = PiecewiseUniform([(a, fa), (fb, 4.0)], [weights[1], 1.0 - weights[1]])
        h = EvaluationFunction.piecewise_constant(
            [(0.0, h_cut, values[0]), (h_cut, 4.0, values[1])]
        )
        cells = EstimationProblem(f, g, h, [(4.0 * c_ends[0], 4.0 * c_ends[1])])
        nodes = _without_pieces(cells)
        assert cells.piecewise_constant and not nodes.piecewise_constant
        close = functools.partial(pytest.approx, rel=1e-10, abs=1e-10)
        assert sampling_mean(nodes) == close(sampling_mean(cells))
        assert moment_inputs(nodes, t) == close(moment_inputs(cells, t))

    def test_truncated_normal_config_sampling_mean(self, tmp_path):
        config = tmp_path / "problem.yaml"
        config.write_text(
            "problem:\n"
            "  target: {kind: uniform, low: 0.0, high: 1.0}\n"
            "  sampling: {kind: truncated-normal, lower: 0.0, upper: 2.0,"
            " mean: 0.8, stddev: 0.6}\n"
            "  evaluation:\n"
            "    pieces: [[0.0, 0.5, -1.0], [0.5, 2.0, 1.0]]\n"
            "  pruning:\n"
            "    intervals: [[0.0, 1.0]]\n"
        )
        problem = load_problem(config)
        assert not problem.piecewise_constant
        assert sampling_mean(problem) == pytest.approx(_pieces_mean(problem), rel=1e-12, abs=0.0)


class TestTreatmentSurrogate:
    def test_pruning_mass_matches_formula(self):
        surface = SyntheticReturnSurface()
        for cr_min in (8.5, 9.75, 10.375):
            problem = treatment_problem(cr_min, surface)
            assert problem.c == pytest.approx((11.0 - cr_min) / 2.5, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            treatment_problem(11.0)
        with pytest.raises(ValueError):
            treatment_problem(8.4)

    def test_full_coverage_analytics_degenerate(self):
        rows = sweep_treatment_surrogate([8.5], n=10, trials=2000, seed=5)
        rec = rows[0].record()
        assert rec["c"] == 1.0
        assert rec["analytic_is_var_u"] == pytest.approx(rec["analytic_us_var_u"], rel=1e-12)

    def test_ground_truth_quadrature_consistency(self):
        problem = treatment_problem(10.375)
        theta, v = moment_inputs(problem)
        assert 0.85 <= theta <= 0.91
        assert v > 0.0
        # with the control variate at the sampling mean, v shrinks a lot
        t = sampling_mean(problem)
        theta_t, v_centered = moment_inputs(problem, t)
        assert theta_t == theta
        assert v_centered < v / 10.0

    @pytest.mark.parametrize("cr_min", [8.5, 9.0, 9.5, 10.375, 10.9, 10.99])
    def test_gauss_legendre_rule_matches_scipy_quad(self, cr_min):
        """theta, v (with the surface's extra variance, at t = 0 and at
        E_g[h]) and E_g[h] from the Gauss-Legendre terms against adaptive
        quadrature at its tightest relative tolerance. At cr_min = 10.99
        the target's stddev is 0.01."""
        surface = SyntheticReturnSurface()
        problem = treatment_problem(cr_min, surface)
        f, g, base = problem.target.pdf, problem.sampling.pdf, surface.marginal_return
        c = problem.c

        def integral(fn, lo=cr_min):
            return quad(lambda x: float(fn(np.array(x))), lo, 11.0, epsabs=0.0,
                        epsrel=1.2e-14, limit=200)[0]

        close = functools.partial(pytest.approx, rel=1e-13, abs=0.0)
        mean = integral(lambda x: g(x) * base(x), lo=8.5)
        assert sampling_mean(problem) == close(mean)
        theta = integral(lambda x: f(x) * base(x))
        for t in (0.0, mean):
            # f vanishes outside C, so the in-C mean of w (h - t) is
            # (theta - t) / c; v integrates the centred square directly.
            m = (theta - t) / c
            spread = integral(lambda x: g(x) * (f(x) / g(x) * (base(x) - t) - m) ** 2)
            weight_sq = integral(lambda x: f(x) ** 2 / g(x))
            v = (spread + surface.extra_variance * weight_sq) / c
            assert moment_inputs(problem, t) == close((theta, v))

    def test_terms_hold_quad_nodes_per_support_cell(self):
        problem = treatment_problem(10.375)
        lows, _ = problem.support_cells()
        assert len(lows) == 2
        for array in problem.terms:
            assert array.shape == (len(lows) * densities._QUAD_NODES,)

    def test_one_quadrature_pass_per_point(self, monkeypatch):
        """One terms build per sweep point, and E_g[h], theta and v of the
        row all come from those same terms."""
        built = []
        node_terms = EstimationProblem.node_terms

        def counting(problem, x, q):
            built.append(node_terms(problem, x, q))
            return built[-1]

        monkeypatch.setattr(EstimationProblem, "node_terms", counting)
        grid = [9.0, 10.0, 10.5]
        rows = sweep_treatment_surrogate(grid, n=5, trials=100, cv_mode="sampling-mean")
        assert len(built) == len(grid)
        for row, terms in zip(rows, list(built)):
            p, w, h, in_c = terms
            assert row.t == float((p * h).sum())
            assert row.theta == float((p * w * h).sum())
            problem = treatment_problem(row.coord)
            assert (row.theta, row.v) == moment_inputs(problem, row.t)

    def test_one_cell_table_build_per_illustrative_point(self, monkeypatch):
        """A cell problem's terms, one per cell, are built once per point
        and shared by the analytic inputs and the simulation."""
        built = []
        node_terms = EstimationProblem.node_terms

        def counting(problem, x, q):
            built.append(x.size)
            return node_terms(problem, x, q)

        monkeypatch.setattr(EstimationProblem, "node_terms", counting)
        sweep_illustrative([0.5, 2.0], [0.0, 1.0], [5, 200], 300, 3, "sampling-mean")
        # One node per cell: [0, f_max/2], [f_max/2, f_max], and [f_max, 2]
        # unless f_max = 2.
        assert built == [3, 3, 2, 2]

    @pytest.mark.parametrize("cr_min", [8.5, 10.375, 10.99])
    def test_surface_adds_its_extra_variance_to_v(self, cr_min):
        problem = treatment_problem(cr_min)
        plain = dataclasses.replace(problem, surface=None)
        p, w, _, in_c = problem.terms
        p_c, w_c = p[in_c], w[in_c]
        extra = problem.surface.extra_variance * (p_c * w_c * w_c).sum() / problem.c
        for t in (0.0, sampling_mean(problem)):
            theta, v = moment_inputs(problem, t)
            theta_plain, v_plain = moment_inputs(plain, t)
            assert theta == theta_plain
            assert v == v_plain + float(extra)

    def test_sampling_mean_value(self):
        # mean of base + gain*(1 - rel^2) over the CR range: E[rel^2] = 1/3.
        surface = SyntheticReturnSurface()
        expected = surface.base_level + surface.base_gain * (2.0 / 3.0)
        for cr_min in (8.5, 10.375):
            problem = treatment_problem(cr_min, surface)
            assert sampling_mean(problem) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("cr_min", [8.5, 9.5, 10.375])
    def test_v_unmoved_by_a_large_common_shift(self, cr_min):
        """Raising every return and t by 1e3 leaves v; a difference of
        nearly equal integrals would lose it to cancellation."""
        surface = SyntheticReturnSurface()
        shifted = SyntheticReturnSurface(base_level=surface.base_level + 1e3)
        problem = treatment_problem(cr_min, surface)
        t = sampling_mean(problem)
        _, v = moment_inputs(problem, t)
        _, v_shifted = moment_inputs(treatment_problem(cr_min, shifted), t + 1e3)
        assert v_shifted == pytest.approx(v, rel=1e-12, abs=0.0)

    def test_surface_observation_brackets(self):
        surface = SyntheticReturnSurface()
        rng = np.random.default_rng(6)
        cr = rng.uniform(8.5, 11.0, (100, 10))
        obs = surface.observe(rng, cr)
        # base(CR) lies in [base_level, base_level + base_gain], and the
        # tilt and noise add at most their amplitudes either way.
        slack = surface.tilt_amplitude + surface.noise_scale
        lo, hi = surface.base_level - slack, surface.base_level + surface.base_gain + slack
        assert (obs >= lo).all() and (obs <= hi).all()

    def test_empirical_matches_quadrature_analytics(self):
        rows = sweep_treatment_surrogate([10.0], n=30, trials=60_000, seed=77)
        row = rows[0]
        a, e = row.analytic, row.empirical
        checks = [
            (a["is_unconditional"].mean, e["IS"].mean, e["IS"].se_mean),
            (a["is_unconditional"].variance, e["IS"].variance, e["IS"].se_variance),
            (a["us_positive"].mean, e["US"].cond_mean, e["US"].cond_se_mean),
            (a["us_positive"].variance, e["US"].cond_variance, e["US"].cond_se_variance),
        ]
        for analytic, empirical, se in checks:
            assert abs(empirical - analytic) <= 3.0 * se


class TestEmission:
    def test_round_trip_json(self, tmp_path):
        rows = sweep_illustrative([0.5], [1.0], [5], trials=600, seed=11)
        out = tmp_path / "rows.json"
        emit(rows, "json", out)
        parsed = json.loads(out.read_text())
        assert parsed == [row.to_record() for row in rows]

    def test_json_writes_nested_nonfinite_values_as_null(self):
        """One trial leaves every standard error NaN, deep in the nested
        empirical records; JSON, which has no NaN, reads null there."""
        rows = sweep_illustrative([1.0], [0.0], [5], trials=1, seed=0)

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        (record,) = json.loads(render(rows, "json"), parse_constant=reject)
        assert math.isnan(rows[0].empirical["IS"].se_mean)
        assert record["empirical"]["IS"]["se_mean"] is None
        assert record["empirical"]["IS"]["mean"] == rows[0].empirical["IS"].mean

    def test_same_rows_same_bytes(self, tmp_path):
        rows = sweep_illustrative([0.5], [1.0], [5], trials=600, seed=11)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(rows, "csv", a)
        emit(rows, "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            render([], "csv")

    def test_unknown_format_rejected(self):
        rows = sweep_illustrative([0.5], [1.0], [5], trials=600, seed=11)
        with pytest.raises(ValueError):
            render(rows, "parquet")

    def test_unwritable_path(self, tmp_path):
        rows = sweep_illustrative([0.5], [1.0], [5], trials=600, seed=11)
        with pytest.raises(OSError):
            emit(rows, "csv", tmp_path)  # a directory, not a file

    def test_csv_uses_17_significant_digits(self):
        rows = sweep_illustrative([0.5], [1.0], [5], trials=600, seed=11)
        text = render(rows, "csv")
        line = text.splitlines()[1]
        # the analytic US variance column must round-trip exactly
        value = rows[0].record()["analytic_us_var_c"]
        assert f"{value:.17g}" in line


class TestSeedDerivation:
    def test_stable_values(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(0, 0) != derive_seed(0, 1)
        assert derive_seed(1, 0) != derive_seed(0, 0)


class TestImportCost:
    def test_cli_import_loads_neither_scipy_nor_numpy_polynomial(self):
        """The Gauss-Legendre nodes are computed on first use, pyyaml is
        imported by the first ``load_problem`` call and statistics by the
        first truncated-normal draw, so importing the package and its CLI
        loads numpy.polynomial, yaml and statistics no more than scipy."""
        probe = (
            "import sys, unequal_support, unequal_support.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'yaml', '_yaml', 'statistics')\n"
            "             or m.startswith('numpy.polynomial')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_package_and_piecewise_commands_load_no_scipy(self):
        config = Path(__file__).resolve().parent.parent / "configs" / "illustrative.yaml"
        probe = (
            "import contextlib, io, sys\n"
            "import unequal_support\n"
            "from unequal_support import cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    argv = ['moments', '--n', '50', '--c', '0.5', '--v', '4', '--theta', '0']\n"
            "    assert cli.main(argv) == 0\n"
            "    assert cli.main(['estimate', '--example', 'illustrative']) == 0\n"
            f"    assert cli.main(['estimate', '--config', {str(config)!r}]) == 0\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['estimate', '--example', 'treatment']) == 0\n"
            "print(loaded())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines() == ["[]", "[]", "[]"]

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        """With every scipy import raising, the truncated-normal paths (the
        treatment target's normaliser, and a truncated-normal sampling
        density's masses and draws) still run."""
        config = tmp_path / "normal-sampling.yaml"
        config.write_text(
            "problem:\n"
            "  target: {kind: uniform, low: 0.0, high: 1.0}\n"
            "  sampling: {kind: truncated-normal, lower: 0.0, upper: 2.0, "
            "mean: 1.0, stddev: 0.8}\n"
            "  evaluation: {pieces: [[0.0, 0.5, -1.0], [0.5, 2.0, 1.0]]}\n"
            "  pruning: {intervals: [[0.0, 1.0]]}\n"
        )
        commands = [
            ["estimate", "--example", "treatment", "--cv", "sampling-mean"],
            ["sweep-treatment", "--cr-min-grid", "9", "--trials", "2000"],
            ["estimate", "--config", str(config), "--cv", "sampling-mean"],
        ]
        probe = (
            "import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "from unequal_support import cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    print(code)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines() == ["0", "0", "0"]
        assert out.stderr == ""
