"""The cells of a piecewise-constant problem and the cell-count simulation path.

Problems built from piecewise-uniform densities and a step evaluation
are simulated from per-cell sample counts, drawn as outcomes of their
enumerated outcome table when it has at most one row per trial and as
per-trial Multinomial counts otherwise; all other problems from
samples. The same h given as a plain function forces the sample path on
an otherwise identical problem, which is how these tests compare the
paths. The outcome table is also the exact distribution of a batch, so
its pmf-weighted moments are checked against the analytic catalog.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unequal_support import experiments
from unequal_support._kernels import cell_estimates, segment_estimates
from unequal_support.cli import DEFAULT_F_MAX_GRID, DEFAULT_THETA_GRID
from unequal_support.config import build_problem
from unequal_support.densities import (
    ControlVariateCoverageError,
    EstimationProblem,
    EvaluationFunction,
    PiecewiseUniform,
    PruningCoverageError,
    TruncatedNormal,
    place_rule,
)
from unequal_support.estimators import ControlVariate, estimate_all
from unequal_support.experiments import (
    SimulationResult,
    analytic_reports,
    illustrative_problem,
    moment_inputs,
    outcome_table,
    run_trials,
    sampling_mean,
    simulate_estimates,
)
from unequal_support.moments import rho

from oracles import surface_step_problem


def with_plain_h(problem: EstimationProblem) -> EstimationProblem:
    """The same problem with h as a plain function (sample path)."""
    h = problem.evaluation
    evaluation = EvaluationFunction(h.fn, h.support)
    return EstimationProblem(problem.target, problem.sampling, evaluation, problem.pruning)


def per_trial(sim: SimulationResult) -> SimulationResult:
    """The simulation with one row per trial: each row repeated as many
    times as it was drawn."""
    cols = (sim.is_values, sim.us_values, sim.wis_values, sim.k, sim.wis_defined)
    expanded = [np.repeat(col, sim.count) for col in cols]
    return SimulationResult(*expanded, np.ones(expanded[0].size, dtype=np.int64))


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
    return EstimationProblem(f, g, h, [(0.1, 2.2)])


def two_weight_problem() -> EstimationProblem:
    """A target of two weights inside C = [0, 1], g = U[0, 2] and a
    two-step h, so WIS differs from US (on the illustrative problem w is
    constant on C and the two agree on every batch)."""
    g = PiecewiseUniform.uniform(0.0, 2.0)
    f = PiecewiseUniform([(0.0, 0.5), (0.5, 1.0)], [0.8, 0.2])
    h = EvaluationFunction.piecewise_constant([(0.0, 0.25, -1.0), (0.25, 1.0, 2.0)])
    return EstimationProblem(f, g, h, [(0.0, 1.0)])


def outcome_table_calls(monkeypatch) -> list:
    """Record each outcome_table call that simulate_estimates makes."""
    calls = []
    original = experiments.outcome_table

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "outcome_table", spy)
    return calls


def exact_moments(values, pmf, theta, given) -> tuple[float, float, float]:
    """(mean, variance, MSE) of ``values`` under ``pmf``, restricted to
    the outcomes ``given``."""
    p = pmf[given] / math.fsum(pmf[given])
    x = values[given]
    mean = float(p @ x)
    return mean, float(p @ (x - mean) ** 2), float(p @ (x - theta) ** 2)


def zero_pmf_problem() -> EstimationProblem:
    """Cells of g-mass 1e-200, 1 and 1e-200 at n = 2: the outcomes
    (0, 0, 2), (1, 0, 1) and (2, 0, 0), first, inner and last in the
    table, have pmf 1e-400 or less, which underflows to 0."""
    g = PiecewiseUniform([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)], [1e-200, 1.0, 1e-200])
    h = EvaluationFunction.piecewise_constant(
        [(0.0, 1.0, 1.0), (1.0, 2.0, 10.0), (2.0, 3.0, 100.0)]
    )
    return EstimationProblem(g, g, h, [(0.0, 3.0)])


def uncovered_cv_problem(plain_h: bool) -> EstimationProblem:
    """f = U[0, 1], g = U[0, 2], h = 1 on [0, 0.5], C = [0, 0.5].

    C covers F ∩ H but not F, so any nonzero control variate is refused.
    """
    f = PiecewiseUniform.uniform(0.0, 1.0)
    g = PiecewiseUniform.uniform(0.0, 2.0)
    h = EvaluationFunction.piecewise_constant([(0.0, 0.5, 1.0)])
    problem = EstimationProblem(f, g, h, [(0.0, 0.5)])
    return with_plain_h(problem) if plain_h else problem


class TestCellTable:
    """A piecewise-constant problem's terms: one per cell, read at its midpoint."""

    def test_illustrative_cells(self):
        problem = illustrative_problem(0.5, theta=10.0)
        p, w, h, in_c = problem.terms
        lows, highs = problem.support_cells()
        assert lows.tolist() == [0.0, 0.25, 0.5]
        assert highs.tolist() == [0.25, 0.5, 2.0]
        assert p.tolist() == [0.125, 0.125, 0.75]
        assert w.tolist() == [4.0, 4.0, 0.0]
        assert h.tolist() == [9.0, 11.0, 11.0]
        assert in_c.tolist() == [True, True, False]

    @pytest.mark.parametrize("make", [mixed_problem, two_weight_problem])
    def test_midpoint_terms_bit_for_bit(self, make):
        """The cells are the breakpoint cells of f, g, h and C whose
        midpoints lie in G, and each cell's terms are read at its midpoint:
        p = g(mid) (high - low) and w = f(mid) / g(mid), bit for bit."""
        problem = make()
        p, w, h, in_c = problem.terms
        supports = (
            problem.target.support,
            problem.sampling.support,
            problem.evaluation.support,
            problem.pruning,
        )
        edges = sorted({float(e) for s in supports for iv in s for e in iv})
        cells = [
            (lo, hi) for lo, hi in zip(edges, edges[1:])
            if problem.sampling.support.contains(0.5 * (lo + hi))
        ]
        lows, highs = problem.support_cells()
        assert list(zip(lows.tolist(), highs.tolist())) == cells
        mid = 0.5 * (lows + highs)
        gv = problem.sampling.pdf(mid)
        assert p.tobytes() == (gv * (highs - lows)).tobytes()
        assert w.tobytes() == (problem.target.pdf(mid) / gv).tobytes()
        assert h.tobytes() == problem.evaluation(mid).tobytes()
        assert in_c.tolist() == problem.pruning.contains(mid).tolist()

    @staticmethod
    def assert_one_node_rule_is_the_midpoint_rule(problem):
        """place_rule's one-node rule (node 0, weight 2) puts each node at
        its cell's midpoint with the cell's length as weight, and the
        problem's terms are the terms read there, bit for bit."""
        lows, highs = problem.support_cells()
        x, q = place_rule(lows, highs, np.zeros(1), np.full(1, 2.0))
        mid, length = 0.5 * (lows + highs), highs - lows
        assert x.tobytes() == mid.tobytes() and q.tobytes() == length.tobytes()
        want = problem.node_terms(mid, length)
        for got, expected in zip(problem.terms, want):
            assert got.tobytes() == expected.tobytes()

    def test_one_node_rule_on_the_illustrative_grid(self):
        for f_max in DEFAULT_F_MAX_GRID:
            for theta in DEFAULT_THETA_GRID:
                self.assert_one_node_rule_is_the_midpoint_rule(
                    illustrative_problem(f_max, theta)
                )

    @settings(max_examples=60, deadline=None)
    @given(
        cuts=st.lists(st.floats(0.01, 0.99), min_size=5, max_size=5, unique=True),
        weights=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
        values=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        c_ends=st.tuples(st.floats(0.0, 0.45), st.floats(0.55, 1.0)),
        scale=st.floats(0.1, 100.0),
    )
    # A first cell [0, 5e-324], whose half-length underflows to 0.
    @example(
        cuts=[0.5, 0.75, 0.875, 0.25, 0.375], weights=(0.5, 0.5), values=(0.0, 0.0),
        c_ends=(5e-324, 1.0), scale=1.0,
    )
    def test_one_node_rule_on_random_piecewise_problems(
        self, cuts, weights, values, c_ends, scale
    ):
        a, b, fa, fb, h_cut = (scale * x for x in cuts)
        a, b, fa, fb = sorted((a, b, fa, fb))
        g = PiecewiseUniform([(0.0, b), (b, scale)], [weights[0], 1.0 - weights[0]])
        f = PiecewiseUniform([(a, fa), (fb, scale)], [weights[1], 1.0 - weights[1]])
        h = EvaluationFunction.piecewise_constant(
            [(0.0, h_cut, values[0]), (h_cut, scale, values[1])]
        )
        c_set = [(scale * c_ends[0], scale * c_ends[1])]
        self.assert_one_node_rule_is_the_midpoint_rule(EstimationProblem(f, g, h, c_set))

    def test_cells_outside_sampling_support_left_out(self):
        problem = mixed_problem()
        p = problem.terms[0]
        lows, highs = problem.support_cells()
        assert np.all(p > 0.0) and len(p) == len(lows)
        assert not np.any((lows >= 1.0) & (highs <= 1.5))
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)

    def test_piecewise_constant_needs_uniform_pieces_step_h_and_no_surface(self):
        g = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        normal = TruncatedNormal(0.0, 1.0, 1.0, 1.0)
        c_set = [(0.0, 1.0)]
        smooth_h = EvaluationFunction(lambda x: x, [(0.0, 2.0)])
        assert EstimationProblem(g, g, h, c_set).piecewise_constant
        assert not EstimationProblem(normal, g, h, c_set).piecewise_constant
        assert not EstimationProblem(g, normal, h, c_set).piecewise_constant
        assert not EstimationProblem(g, g, smooth_h, c_set).piecewise_constant
        assert not with_plain_h(illustrative_problem(1.0)).piecewise_constant
        assert not surface_step_problem().piecewise_constant

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
            p, w, hv, in_c = EstimationProblem(f, g, h, [(0.1, 2.2)]).terms
            return math.fsum(p), math.fsum(p * w * hv), math.fsum(p[in_c])

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
            # Each trial's n samples as one segment.
            idx = np.concatenate([np.repeat(np.arange(4), row) for row in counts])
            want = segment_estimates(
                w[idx] * (hv[idx] - t), w[idx], [[n] * len(counts)],
                (counts * in_c).sum(axis=1), n, 0.4, t,
            )
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)
            # first row: no weight and no sample in C, both conventions apply
            assert got[1][0] == 0.0 and got[2][0] == 0.0 and not got[4][0]
            assert got[3].dtype == np.int64


class TestOutcomeTable:
    @pytest.mark.parametrize(
        "problem, n",
        [
            (illustrative_problem(0.5, 10.0), 5),
            (illustrative_problem(0.9, 1.0), 50),
            (illustrative_problem(2.0, 0.0), 10),
            (mixed_problem(), 4),
            (two_weight_problem(), 7),
        ],
    )
    def test_rows_are_every_count_vector_and_pmf_sums_to_one(self, problem, n):
        table = outcome_table(problem, n)
        m = problem.terms[0].size
        assert table.counts.shape == (math.comb(n + m - 1, m - 1), m)
        assert np.all(table.counts.sum(axis=1) == n) and np.all(table.counts >= 0)
        rows = [tuple(row) for row in table.counts.tolist()]
        assert rows == sorted(set(rows))  # distinct, in lexicographic order
        assert abs(math.fsum(table.pmf) - 1.0) <= 1e-12
        in_c_counts = table.counts[:, problem.terms[3]].sum(axis=1)
        assert table.values.k.tolist() == in_c_counts.tolist()

    def test_one_cell_has_one_outcome_at_any_n(self):
        g = PiecewiseUniform.uniform(0.0, 1.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 3.0)])
        problem = EstimationProblem(g, g, h, [(0.0, 1.0)])
        table = outcome_table(problem, 10**9)
        assert table.counts.tolist() == [[10**9]] and table.pmf.tolist() == [1.0]
        sim = simulate_estimates(problem, 10**9, 5, seed=1)
        assert per_trial(sim).us_values.tolist() == [3.0] * 5

    def test_needs_a_cell_table(self):
        with pytest.raises(ValueError):
            outcome_table(with_plain_h(illustrative_problem(1.0)), 5)
        # A step h under a return surface: its simulation observes the
        # surface's returns, never these h-outcomes.
        with pytest.raises(ValueError):
            outcome_table(surface_step_problem(), 5)

    def test_outcomes_of_zero_pmf_are_never_drawn(self):
        """Zero-pmf outcomes first, inside and last in the table, at 10**9
        trials: every row is an outcome of positive pmf, and the rows'
        counts sum to the trials."""
        problem, trials = zero_pmf_problem(), 10**9
        table = outcome_table(problem, 2)
        assert (table.pmf == 0.0).tolist() == [True, False, False, True, False, True]
        sim = simulate_estimates(problem, 2, trials, seed=0)
        # w = 1, so IS is the mean of h over the batch: unique per outcome.
        positive = table.values.is_values[table.pmf > 0.0]
        assert np.isin(sim.is_values, positive).all()
        assert sim.count.sum() == trials

    # (problem, n, trials, seed): trial counts of one to four per-trial
    # chunks of 4096, 21 to 1326 outcomes.
    HISTOGRAMS = [
        (illustrative_problem(0.5, 1.0), 10, 3 * 4096 + 5, 4),
        (illustrative_problem(0.2, 10.0), 50, 20_000, 11),
        (illustrative_problem(2.0, 0.0), 5, 4096, 2),
        (mixed_problem(), 4, 9000, 7),
    ]

    @pytest.mark.parametrize("problem, n, trials, seed", HISTOGRAMS)
    def test_histogram_bins_the_per_trial_picks(self, problem, n, trials, seed, monkeypatch):
        """The histogram of the trials' picks is one Multinomial(trials,
        pmf) draw over the outcomes of positive pmf, from the point's
        chunk-0 stream whatever the trial count."""
        calls = []
        original = experiments._chunk_rng

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(experiments, "_chunk_rng", spy)
        sim = simulate_estimates(problem, n, trials, seed)
        assert calls == [(seed, 0)]
        assert np.all(sim.count > 0) and sim.count.sum() == trials
        table = outcome_table(problem, n)
        positive = np.flatnonzero(table.pmf)
        p = table.pmf[positive]
        want = original(seed, 0).multinomial(trials, p / p.sum())
        assert sim.count.tolist() == want[want > 0].tolist()
        assert sim.k.tolist() == table.values.k[positive[want > 0]].tolist()

    def test_histogram_fits_the_pmf(self):
        """At 10**7 trials every outcome's count lies within 5 binomial
        standard errors of trials x pmf. f = g, so w = 1, and h = 1, 10,
        100 and 1000 on four cells of mass 1/4, so IS, the batch mean of
        h, names its count vector at n = 9: 220 outcomes, the least
        likely expected 38 times."""
        g = PiecewiseUniform.uniform(0.0, 4.0)
        h = EvaluationFunction.piecewise_constant(
            [(float(j), j + 1.0, 10.0**j) for j in range(4)]
        )
        problem, n, trials = EstimationProblem(g, g, h, [(0.0, 4.0)]), 9, 10**7
        table = outcome_table(problem, n)
        outcome = {value: i for i, value in enumerate(table.values.is_values.tolist())}
        assert len(outcome) == table.pmf.size == 220
        sim = simulate_estimates(problem, n, trials, seed=2)
        hist = np.zeros(table.pmf.size)
        hist[[outcome[value] for value in sim.is_values.tolist()]] = sim.count
        expected = trials * table.pmf
        se = np.sqrt(expected * (1.0 - table.pmf))
        assert np.all(np.abs(hist - expected) <= 5.0 * se)

    @pytest.mark.parametrize("cv", ["none", "sampling-mean"])
    def test_exact_moments_match_catalog_on_acceptance_grid(self, cv):
        for f_max in (0.2, 0.5, 1.0, 2.0):
            for theta in (0.0, 1.0, 10.0):
                problem = illustrative_problem(f_max, theta)
                t = sampling_mean(problem) if cv == "sampling-mean" else 0.0
                _, v = moment_inputs(problem, t)
                for n in (5, 10, 50):
                    table = outcome_table(problem, n, t)
                    reports = analytic_reports(n, problem.c, v, theta, t)
                    everywhere = np.ones(table.pmf.size, dtype=bool)
                    positive = table.values.k > 0
                    for key, values, given in [
                        ("is_unconditional", table.values.is_values, everywhere),
                        ("is_positive", table.values.is_values, positive),
                        ("us_unconditional", table.values.us_values, everywhere),
                        ("us_positive", table.values.us_values, positive),
                    ]:
                        got = exact_moments(values, table.pmf, theta, given)
                        report = reports[key]
                        want = (report.mean, report.variance, report.mse)
                        assert got == pytest.approx(want, rel=1e-10, abs=1e-12), (
                            f_max, theta, n, key,
                        )

    def test_two_weight_wis_column(self):
        problem = two_weight_problem()
        table, n = outcome_table(problem, 3), 3
        values = table.values
        positive = values.k > 0
        assert np.any(values.wis_values[positive] != values.us_values[positive])
        want = cell_estimates(table.counts, n, *problem.terms[1:], problem.c)
        assert np.array_equal(values.wis_values, want[2])
        # The same batches as samples at the cell midpoints, through the
        # scalar estimators.
        lows, highs = problem.support_cells()
        mid = 0.5 * (lows + highs)
        for row, wis in zip(table.counts, values.wis_values):
            assert estimate_all(problem, np.repeat(mid, row))["WIS"].value == pytest.approx(
                wis, rel=1e-13, abs=1e-13
            )

    def test_sample_path_wis_agrees_with_exact_moments(self):
        problem, n, trials = two_weight_problem(), 3, 40_000
        table = outcome_table(problem, n)
        theta, _ = moment_inputs(problem)
        everywhere = np.ones(table.pmf.size, dtype=bool)
        wis = table.values.wis_values
        mean, variance, _ = exact_moments(wis, table.pmf, theta, everywhere)
        sim = simulate_estimates(with_plain_h(problem), n, trials, seed=12)
        se = math.sqrt(variance / trials)
        assert abs(per_trial(sim).wis_values.mean() - mean) <= 4.0 * se

    @pytest.mark.parametrize(
        "problem, n",
        [
            (illustrative_problem(0.5, 10.0), 5),
            (illustrative_problem(0.9, 1.0), 50),
            (mixed_problem(), 4),
            (zero_pmf_problem(), 2),
        ],
    )
    def test_repeated_calls_keep_the_uncached_bits(self, problem, n):
        """Twice in one process, and against the table built afresh by
        the formula the cached count tables replace."""
        p, w, h, in_c = problem.terms
        counts = experiments._compositions(n, p.size)
        log_pmf = counts @ np.log(p)
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
        log_pmf += log_fact[n] - log_fact[counts].sum(axis=1)
        values = cell_estimates(counts, n, w, h, in_c, problem.c)
        first, second = outcome_table(problem, n), outcome_table(problem, n)
        for table in (first, second):
            assert table.pmf.tobytes() == np.exp(log_pmf).tobytes()
            assert table.counts.tobytes() == counts.tobytes()
            v = table.values
            got = (v.is_values, v.us_values, v.wis_values, v.k, v.wis_defined)
            for column, want in zip(got, values):
                assert column.tobytes() == want.tobytes()


def lexicographic_counts(n: int, m: int) -> list:
    """Every count vector of n samples over m cells, sorted: the cell
    multisets of itertools, each counted."""
    return sorted(
        tuple(np.bincount(cells, minlength=m).tolist())
        for cells in itertools.combinations_with_replacement(range(m), n)
    )


class TestCountTables:
    @pytest.mark.parametrize("n, m", [(5, 2), (10, 3), (50, 3), (4, 10)])
    def test_rows_are_the_itertools_enumeration(self, n, m):
        counts, coefficients = experiments._count_tables(n, m)
        assert [tuple(row) for row in counts.tolist()] == lexicographic_counts(n, m)
        want = [
            math.lgamma(n + 1.0) - math.fsum(math.lgamma(c + 1.0) for c in row)
            for row in counts.tolist()
        ]
        assert coefficients == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_one_cell_has_one_row_and_no_factorial_table(self, monkeypatch):
        def no_lgamma(x):
            raise AssertionError("one cell needs no log-factorial table")

        monkeypatch.setattr(experiments.math, "lgamma", no_lgamma)
        counts, coefficients = experiments._CountTables(2**10)(10**9, 1)
        assert counts.tolist() == [[10**9]] and coefficients.tolist() == [0.0]

    def test_cached_arrays_are_read_only(self):
        table = outcome_table(illustrative_problem(0.5), 10)
        for array in (table.counts, *experiments._count_tables(10, 3)):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_memory_stays_under_the_bound(self):
        """40 sizes at m = 3, from 180 901 down to 136 rows (32 B each):
        the larger ones are never kept, and the least recently used go
        first."""
        bound = experiments._COUNT_TABLE_BYTES
        tables = experiments._CountTables(bound)
        kept = []
        for n in range(600, 0, -15):
            counts, coefficients = tables(n, 3)
            size = counts.nbytes + coefficients.nbytes
            kept = [k for k in kept if k != n] + [n] * (size <= bound)
            while sum(math.comb(k + 2, 2) * 32 for k in kept) > bound:
                kept.pop(0)
            assert tables.nbytes == sum(math.comb(k + 2, 2) * 32 for k in kept)
            assert tables.nbytes <= bound
            assert list(tables._tables) == [(k, 3) for k in kept]
        assert 1 < len(kept) < 40
        # A hit is the most recently used, and returns the kept arrays.
        again = tables(kept[0], 3)
        assert list(tables._tables)[-1] == (kept[0], 3)
        assert again[0] is tables(kept[0], 3)[0]


class TestCellPathMatchesSamplePath:
    TRIALS = 40_000

    # The mixed problem has ten cells: at n = 10 its 92 378 outcomes take
    # the per-trial Multinomial path, at n = 4 its 715 the table path.
    def test_distributions_agree(self, monkeypatch):
        self.assert_distributions_agree(monkeypatch, 10, table_path=False)

    def test_distributions_agree_on_outcome_table(self, monkeypatch):
        self.assert_distributions_agree(monkeypatch, 4, table_path=True)

    def assert_distributions_agree(self, monkeypatch, n, table_path):
        problem = mixed_problem()
        trials, c = self.TRIALS, problem.c
        sample_sim = per_trial(simulate_estimates(with_plain_h(problem), n, trials, seed=5))
        forbid_sampling(monkeypatch, problem.sampling)
        calls = outcome_table_calls(monkeypatch)
        cell_sim = per_trial(simulate_estimates(problem, n, trials, seed=6))
        assert bool(calls) == table_path

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
        assert abs(per_trial(sim).k.mean() / 10**9 - problem.c) < 1e-3

    def test_reruns_identical(self):
        a = simulate_estimates(mixed_problem(), 7, 5000, seed=99, t=0.0)
        b = simulate_estimates(mixed_problem(), 7, 5000, seed=99, t=0.0)
        for name in ("is_values", "us_values", "wis_values", "k", "wis_defined", "count"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_table_used_exactly_when_outcomes_fit_in_trials(self, monkeypatch):
        problem = illustrative_problem(0.5, 1.0)  # three cells: 66 outcomes at n = 10
        calls = outcome_table_calls(monkeypatch)
        for trials, table_path in [(65, False), (66, True), (3 * 4096 + 5, True)]:
            calls.clear()
            sim = simulate_estimates(problem, 10, trials, seed=4)
            assert bool(calls) == table_path, trials
            assert sim.count.sum() == trials


class TestCoverageErrorsOnBothPaths:
    # The raising problems have three cells, so 66 outcomes at n = 10:
    # 100 trials take the outcome table, 50 the per-trial cell counts.
    # Per path: (h as a plain function, trials).
    PATHS = {"cells": (False, 100), "cell-counts": (False, 50), "plain-h": (True, 100)}

    @pytest.mark.parametrize("path", PATHS)
    def test_control_variate_needs_c_to_cover_f(self, path, monkeypatch):
        plain_h, trials = self.PATHS[path]
        problem = uncovered_cv_problem(plain_h)
        with pytest.raises(ControlVariateCoverageError):
            estimate_all(problem, np.array([0.1, 0.7]), ControlVariate(1.0))
        calls = outcome_table_calls(monkeypatch)
        with pytest.raises(ControlVariateCoverageError):
            simulate_estimates(problem, 10, trials, seed=1, t=1.0)
        assert bool(calls) == (path == "cells")
        with pytest.raises(ControlVariateCoverageError):
            run_trials(problem, 10, trials, 0.5, ControlVariate(1.0), seed=1)

    @pytest.mark.parametrize("plain_h", [False, True], ids=["cells", "plain-h"])
    def test_without_control_variate_the_same_problem_runs(self, plain_h):
        stats = run_trials(uncovered_cv_problem(plain_h), 10, 4000, 0.5, seed=1)
        assert abs(stats["US"].cond_mean - 0.5) <= 4.0 * stats["US"].cond_se_mean

    @pytest.mark.parametrize("path", PATHS)
    def test_c_missing_part_of_f_and_h_raises(self, path, monkeypatch):
        plain_h, trials = self.PATHS[path]
        g = PiecewiseUniform.uniform(0.0, 2.0)
        f = PiecewiseUniform.uniform(0.0, 1.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        problem = EstimationProblem(f, g, h, [(0.0, 0.6)])
        if plain_h:
            problem = with_plain_h(problem)
        calls = outcome_table_calls(monkeypatch)
        with pytest.raises(PruningCoverageError):
            simulate_estimates(problem, 10, trials, seed=1)
        assert bool(calls) == (path == "cells")

    @pytest.mark.parametrize("plain_h", [False, True], ids=["cells", "plain-h"])
    def test_cells_no_trial_hits_never_raise(self, plain_h):
        # The second sampling interval violates both coverage conditions
        # but carries mass 1e-12, so no sample of these trials reaches it.
        g = PiecewiseUniform([(0.0, 1.0), (2.0, 3.0)], [1.0 - 1e-12, 1e-12])
        f = PiecewiseUniform([(0.0, 1.0), (2.0, 3.0)], [0.5, 0.5])
        h = EvaluationFunction.piecewise_constant([(0.0, 3.0, 1.0)])
        problem = EstimationProblem(f, g, h, [(0.0, 1.0)])
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
        assert problem.piecewise_constant
        with pytest.raises(PruningCoverageError):
            run_trials(problem, 10, 1000, 0.0, seed=3)


class TestOverflowOnCellPaths:
    @pytest.mark.parametrize("n", [5, 200])
    def test_overflowing_terms_raise_without_warning(self, n):
        """theta = 1e308 and w = 20 in C, so w h overflows: at n = 5 on
        the outcome table (21 outcomes <= 100 trials), at n = 200 on the
        per-trial counts. The kernel's finiteness check, not NumPy,
        reports it."""
        problem = illustrative_problem(0.1, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow the double range"):
                simulate_estimates(problem, n, 100, 1)
