"""Cell tables and the cell-count simulation path.

Problems built from piecewise-uniform densities and a step evaluation
are simulated from per-cell sample counts; all other problems from
samples. The same h given as a plain function forces the sample path on
an otherwise identical problem, which is how these tests compare the two
paths.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unequal_support._kernels import batch_estimates, cell_estimates
from unequal_support.config import build_problem
from unequal_support.densities import (
    CellTable,
    ControlVariateCoverageError,
    EstimationProblem,
    EvaluationFunction,
    PiecewiseUniform,
    PruningCoverageError,
    PruningSet,
    SampleBatch,
    TruncatedNormal,
)
from unequal_support.estimators import ControlVariate, us_estimate
from unequal_support.experiments import (
    illustrative_problem,
    run_trials,
    simulate_estimates,
)
from unequal_support.moments import rho


def with_plain_h(problem: EstimationProblem) -> EstimationProblem:
    """The same problem with h as a plain function (sample path)."""
    h = problem.evaluation
    evaluation = EvaluationFunction(h.fn, h.support)
    return EstimationProblem(problem.target, problem.sampling, evaluation, problem.pruning)


def forbid_sampling(monkeypatch, density):
    def fail(*args, **kwargs):
        raise AssertionError("the cell path must not draw samples")

    monkeypatch.setattr(density, "sample", fail)


def mixed_problem() -> EstimationProblem:
    """Two sampling intervals of unequal weight, a three-step h, and C
    strictly between F and G, so every column of the table varies."""
    g = PiecewiseUniform([(0.0, 1.0), (1.5, 3.0)], [0.4, 0.6])
    f = PiecewiseUniform([(0.2, 0.8), (1.6, 2.0)], [0.7, 0.3])
    h = EvaluationFunction.piecewise_constant(
        [(0.0, 0.5, -2.0), (0.5, 1.8, 1.0), (1.8, 3.0, 4.0)]
    )
    return EstimationProblem(f, g, h, PruningSet.from_intervals([(0.1, 2.2)], g))


def uncovered_cv_problem(plain_h: bool) -> EstimationProblem:
    """f = U[0, 1], g = U[0, 2], h = 1 on [0, 0.5], C = [0, 0.5].

    C covers F ∩ H but not F, so any nonzero control variate is refused.
    """
    f = PiecewiseUniform.uniform(0.0, 1.0)
    g = PiecewiseUniform.uniform(0.0, 2.0)
    h = EvaluationFunction.piecewise_constant([(0.0, 0.5, 1.0)])
    problem = EstimationProblem(f, g, h, PruningSet.from_intervals([(0.0, 0.5)], g))
    return with_plain_h(problem) if plain_h else problem


class TestCellTable:
    def test_illustrative_cells(self):
        table = CellTable.from_problem(illustrative_problem(0.5, theta=10.0))
        assert table.lows.tolist() == [0.0, 0.25, 0.5]
        assert table.highs.tolist() == [0.25, 0.5, 2.0]
        assert table.p.tolist() == [0.125, 0.125, 0.75]
        assert table.w.tolist() == [4.0, 4.0, 0.0]
        assert table.h.tolist() == [9.0, 11.0, 11.0]
        assert table.in_c.tolist() == [True, True, False]

    def test_cells_outside_sampling_support_left_out(self):
        table = CellTable.from_problem(mixed_problem())
        assert np.all(table.p > 0.0)
        assert not np.any((table.lows >= 1.0) & (table.highs <= 1.5))
        assert math.fsum(table.p) == pytest.approx(1.0, abs=1e-12)

    def test_none_unless_piecewise_with_interval_c(self):
        g = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        normal = TruncatedNormal(0.0, 1.0, 1.0, 1.0)
        c_set = PruningSet.from_intervals([(0.0, 1.0)], g)
        smooth_h = EvaluationFunction(lambda x: x, [(0.0, 2.0)])
        assert CellTable.from_problem(EstimationProblem(normal, g, h, c_set)) is None
        assert CellTable.from_problem(EstimationProblem(g, normal, h, c_set)) is None
        assert CellTable.from_problem(EstimationProblem(g, g, smooth_h, c_set)) is None
        assert CellTable.from_problem(with_plain_h(illustrative_problem(1.0))) is None

    @settings(max_examples=60, deadline=None)
    @given(
        first_weight=st.floats(0.1, 0.9),
        cut=st.floats(0.3, 2.5),
        values=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        split=st.sampled_from(["h", "g0", "g1"]),
        frac=st.floats(0.05, 0.95),
    )
    def test_splitting_a_piece_leaves_sums_unchanged(
        self, first_weight, cut, values, split, frac
    ):
        g_ivs = [(0.0, 1.0), (1.5, 3.0)]
        g_weights = [first_weight, 1.0 - first_weight]
        pieces = [(0.0, cut, values[0]), (cut, 3.0, values[1])]
        if split == "h":
            lo, hi, value = pieces[0]
            mid = lo + frac * (hi - lo)
            split_pieces = [(lo, mid, value), (mid, hi, value), pieces[1]]
            split_g = (g_ivs, g_weights)
        else:
            j = int(split[1])
            lo, hi = g_ivs[j]
            mid = lo + frac * (hi - lo)
            ivs = g_ivs[:j] + [(lo, mid), (mid, hi)] + g_ivs[j + 1:]
            weights = (
                g_weights[:j]
                + [g_weights[j] * frac, g_weights[j] * (1.0 - frac)]
                + g_weights[j + 1:]
            )
            split_pieces, split_g = pieces, (ivs, weights)

        def sums(g_spec, h_pieces):
            g = PiecewiseUniform(*g_spec)
            h = EvaluationFunction.piecewise_constant(h_pieces)
            pruning = PruningSet.from_intervals([(0.1, 2.2)], g)
            table = CellTable.from_problem(EstimationProblem(f, g, h, pruning))
            return (
                math.fsum(table.p),
                math.fsum(table.p * table.w * table.h),
                math.fsum(table.p[table.in_c]),
            )

        f = PiecewiseUniform([(0.2, 0.8), (1.6, 2.0)])
        before = sums((g_ivs, g_weights), pieces)
        after = sums(split_g, split_pieces)
        for a, b in zip(before, after):
            assert a == pytest.approx(b, abs=1e-12)
        assert before[0] == pytest.approx(1.0, abs=1e-12)
        # F lies inside G, so sum p w h is theta = E_f[h]
        theta = math.fsum(v * f.interval_mass([(lo, hi)]) for lo, hi, v in pieces)
        assert before[1] == pytest.approx(theta, abs=1e-12)


class TestCellEstimates:
    def test_matches_batch_kernel_on_expanded_samples(self):
        w = np.array([0.0, 2.0, 0.5, 3.0])
        hv = np.array([7.0, -1.0, 4.0, 2.0])
        in_c = np.array([False, True, True, False])
        counts = np.array([[3, 0, 0, 0], [0, 1, 1, 1], [1, 0, 2, 0], [0, 0, 0, 3]])
        n = 3
        for t in (0.0, 1.5):
            got = cell_estimates(counts, n, w, hv, in_c, 0.4, t)
            rows = [np.repeat(np.arange(4), row) for row in counts]
            want = batch_estimates(w[rows], hv[rows], in_c[rows], 0.4, t)
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)
            # first row: no weight and no sample in C, both conventions apply
            assert got[1][0] == 0.0 and got[2][0] == 0.0 and not got[4][0]
            assert got[3].dtype == np.int64


class TestCellPathMatchesSamplePath:
    N = 10
    TRIALS = 40_000

    def test_distributions_agree(self, monkeypatch):
        problem = mixed_problem()
        n, trials, c = self.N, self.TRIALS, problem.c
        sample_sim = simulate_estimates(with_plain_h(problem), n, trials, seed=5)
        forbid_sampling(monkeypatch, problem.sampling)
        cell_sim = simulate_estimates(problem, n, trials, seed=6)

        for sim in (cell_sim, sample_sim):
            se_k = math.sqrt(n * c * (1.0 - c) / trials)
            assert abs(sim.k.mean() - n * c) <= 4.0 * se_k
            assert abs(sim.us_defined.mean() - rho(n, c)) <= 4.0 * math.sqrt(
                rho(n, c) * (1.0 - rho(n, c)) / trials
            )
        for name in ("is_values", "us_values", "wis_values"):
            a, b = getattr(cell_sim, name), getattr(sample_sim, name)
            se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            assert abs(a.mean() - b.mean()) <= 4.0 * se, name
        hist_cell = np.bincount(cell_sim.k, minlength=n + 1)
        hist_sample = np.bincount(sample_sim.k, minlength=n + 1)
        for kappa in range(n + 1):
            pooled = (hist_cell[kappa] + hist_sample[kappa]) / (2.0 * trials)
            se = math.sqrt(2.0 * pooled * (1.0 - pooled) / trials)
            assert abs(hist_cell[kappa] - hist_sample[kappa]) / trials <= max(
                4.0 * se, 1e-12
            ), kappa

    def test_cell_path_memory_does_not_grow_with_n(self):
        problem = illustrative_problem(0.5, theta=1.0)
        tracemalloc.start()
        sim = simulate_estimates(problem, 10**9, 4096, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4 * 2**20
        assert abs(sim.k.mean() / 10**9 - problem.c) < 1e-3

    def test_reruns_identical(self):
        a = simulate_estimates(mixed_problem(), 7, 5000, seed=99, t=0.0)
        b = simulate_estimates(mixed_problem(), 7, 5000, seed=99, t=0.0)
        for name in ("is_values", "us_values", "wis_values", "k", "wis_defined"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestCoverageErrorsOnBothPaths:
    @pytest.mark.parametrize("plain_h", [False, True], ids=["cells", "plain-h"])
    def test_control_variate_needs_c_to_cover_f(self, plain_h):
        problem = uncovered_cv_problem(plain_h)
        batch = SampleBatch(np.array([0.1, 0.7]), seed=None, n=2)
        with pytest.raises(ControlVariateCoverageError):
            us_estimate(problem, batch, ControlVariate(1.0))
        with pytest.raises(ControlVariateCoverageError):
            simulate_estimates(problem, 10, 100, seed=1, t=1.0)
        with pytest.raises(ControlVariateCoverageError):
            run_trials(problem, 10, 100, 0.5, ControlVariate(1.0), seed=1)

    @pytest.mark.parametrize("plain_h", [False, True], ids=["cells", "plain-h"])
    def test_without_control_variate_the_same_problem_runs(self, plain_h):
        stats = run_trials(uncovered_cv_problem(plain_h), 10, 4000, 0.5, seed=1)
        assert abs(stats["US"].cond_mean - 0.5) <= 4.0 * stats["US"].cond_se_mean

    @pytest.mark.parametrize("plain_h", [False, True], ids=["cells", "plain-h"])
    def test_c_missing_part_of_f_and_h_raises(self, plain_h):
        g = PiecewiseUniform.uniform(0.0, 2.0)
        f = PiecewiseUniform.uniform(0.0, 1.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        problem = EstimationProblem(f, g, h, PruningSet.from_intervals([(0.0, 0.6)], g))
        if plain_h:
            problem = with_plain_h(problem)
        with pytest.raises(PruningCoverageError):
            simulate_estimates(problem, 10, 100, seed=1)

    @pytest.mark.parametrize("plain_h", [False, True], ids=["cells", "plain-h"])
    def test_cells_no_trial_hits_never_raise(self, plain_h):
        # The second sampling interval violates both coverage conditions
        # but carries mass 1e-12, so no sample of these trials reaches it.
        g = PiecewiseUniform([(0.0, 1.0), (2.0, 3.0)], [1.0 - 1e-12, 1e-12])
        f = PiecewiseUniform([(0.0, 1.0), (2.0, 3.0)], [0.5, 0.5])
        h = EvaluationFunction.piecewise_constant([(0.0, 3.0, 1.0)])
        problem = EstimationProblem(f, g, h, PruningSet.from_intervals([(0.0, 1.0)], g))
        if plain_h:
            problem = with_plain_h(problem)
        sim = simulate_estimates(problem, 20, 1000, seed=2, t=0.5)
        assert np.all(sim.k == 20)

    def test_config_problem_with_short_c_raises(self):
        problem = build_problem(
            {
                "problem": {
                    "target": {"kind": "uniform", "low": 0.0, "high": 0.5},
                    "sampling": {"kind": "uniform", "low": 0.0, "high": 2.0},
                    "evaluation": {"pieces": [[0.0, 0.25, -1.0], [0.25, 2.0, 1.0]]},
                    "pruning": {"intervals": [[0.0, 0.4]]},
                }
            }
        )
        assert CellTable.from_problem(problem) is not None
        with pytest.raises(PruningCoverageError):
            run_trials(problem, 10, 1000, 0.0, seed=3)
