"""Acceptance suite: one test per stated criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion. Monte Carlo criteria use pinned seeds so the suite
is deterministic; the 3-standard-error tolerances are the stated ones.
"""

import math
import time

import numpy as np
import pytest

from unequal_support.cli import main
from unequal_support.densities import (
    EstimationProblem,
    EvaluationFunction,
    PiecewiseUniform,
    draw,
)
from unequal_support.estimators import estimate_all
from unequal_support.experiments import (
    coverage_experiment,
    illustrative_problem,
    simulate_estimates,
    sweep_illustrative,
    sweep_treatment_surrogate,
)
from unequal_support.moments import (
    MomentInputs,
    moment_report,
    property3_margin,
    rho,
    us_beats_is,
)

from oracles import illustrative_params

GRID_F_MAX = [0.2, 0.5, 1.0, 2.0]
GRID_THETA = [0.0, 1.0, 10.0]
GRID_N = [5, 10, 50]
TRIALS = 200_000


def test_criterion_01_headline_mse_reproduction():
    c, v = illustrative_params(0.5)
    inputs = MomentInputs(n=50, c=c, v=v, theta=10.0)
    is_var = moment_report("IS", "unconditional", inputs).variance
    us_mse = moment_report("US", "unconditional", inputs).mse
    assert is_var == pytest.approx(6.08, abs=1e-10)
    assert us_mse == pytest.approx(0.086, abs=0.002)


def test_criterion_02_analytic_vs_empirical_grid():
    start = time.monotonic()
    rows = sweep_illustrative(GRID_F_MAX, GRID_THETA, GRID_N, TRIALS, seed=2024)
    failures = []
    for row in rows:
        cells = [
            ("is_unconditional", "IS", ""),
            ("is_positive", "IS", "cond_"),
            ("us_unconditional", "US", ""),
            ("us_positive", "US", "cond_"),
        ]
        for cell, label, prefix in cells:
            report = row.analytic[cell]
            emp = row.empirical[label]
            for stat in ("mean", "variance", "mse"):
                analytic = getattr(report, stat)
                observed = getattr(emp, prefix + stat)
                se = getattr(emp, ("cond_se_" if prefix else "se_") + stat)
                if abs(observed - analytic) > 3.0 * se:
                    failures.append(
                        (row.coord, row.theta, row.n, cell, stat,
                         observed, analytic, se)
                    )
    elapsed = time.monotonic() - start
    assert not failures, failures
    assert elapsed < 300.0, f"grid took {elapsed:.1f}s"


def test_criterion_03_exact_identities():
    # First identity: choosing C = G makes US coincide with IS batch by batch.
    f = PiecewiseUniform.uniform(0.0, 0.5)
    g = PiecewiseUniform.uniform(0.0, 2.0)
    h = EvaluationFunction.piecewise_constant([(0.0, 0.25, -1.0), (0.25, 2.0, 1.0)])
    full = EstimationProblem(f, g, h, [(0.0, 2.0)])
    for batch_index in range(1000):
        batch = draw(full.sampling, seed=batch_index, count=25)
        results = estimate_all(full, batch)
        a, b = results["IS"].value, results["US"].value
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)

    # Second identity: the empirical-mass variant recovers IS on any pruning set.
    pruned = illustrative_problem(0.5, theta=10.0)
    for batch_index in range(1000):
        batch = draw(pruned.sampling, seed=batch_index, count=25)
        results = estimate_all(pruned, batch)
        a, us = results["IS"].value, results["US"]
        b = us.k / (len(batch) * pruned.c) * us.value
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)


def test_criterion_04_unbiasedness_set():
    theta, n, f_max = 10.0, 10, 0.5
    problem = illustrative_problem(f_max, theta)
    c = problem.c
    r = rho(n, c)
    sim = simulate_estimates(problem, n, TRIALS, seed=77)
    # One entry per trial: each row repeated as many times as it was drawn.
    is_values, us_values, k = (
        np.repeat(col, sim.count) for col in (sim.is_values, sim.us_values, sim.k)
    )
    pos = k > 0

    # conditional mean of US is theta
    us_pos = us_values[pos]
    se = us_pos.std(ddof=1) / math.sqrt(us_pos.size)
    assert abs(us_pos.mean() - theta) <= 3.0 * se

    # conditional mean of IS is theta / rho
    is_pos = is_values[pos]
    se = is_pos.std(ddof=1) / math.sqrt(is_pos.size)
    assert abs(is_pos.mean() - theta / r) <= 3.0 * se

    # unconditional mean of US is rho * theta
    se = us_values.std(ddof=1) / math.sqrt(us_values.size)
    assert abs(us_values.mean() - r * theta) <= 3.0 * se

    # stratified by k: mean of IS given k = kappa is (kappa / (c n)) theta
    checked = 0
    for kappa in range(0, n + 1):
        stratum = is_values[k == kappa]
        if stratum.size < 500:
            continue
        expect = (kappa / (c * n)) * theta
        if stratum.size > 1 and stratum.std(ddof=1) > 0.0:
            se = stratum.std(ddof=1) / math.sqrt(stratum.size)
            assert abs(stratum.mean() - expect) <= 3.0 * se, kappa
        else:
            assert stratum.mean() == pytest.approx(expect, rel=1e-12)
        checked += 1
    assert checked >= 5


def test_criterion_05_property3_margin():
    for n in range(1, 201):
        for i in range(1, 101):
            c = i / 100.0
            assert property3_margin(n, c) >= -1e-12, (n, c)
    assert all(property3_margin(1, i / 100.0) == 0.0 for i in range(1, 101))
    assert all(property3_margin(n, 1.0) == 0.0 for n in range(1, 201))


def test_criterion_06_pruning_wins_predictor():
    for f_max in GRID_F_MAX:
        c, v = illustrative_params(f_max)
        for n in GRID_N:
            inputs = MomentInputs(n=n, c=c, v=v, theta=0.0)
            is_var = moment_report("IS", "conditioned-positive", inputs).variance
            us_var = moment_report("US", "conditioned-positive", inputs).variance
            tol = 1e-12 * max(is_var, us_var)
            if us_beats_is(n, c):
                assert is_var - us_var >= -tol, (n, c)
            else:
                assert is_var - us_var < tol, (n, c)
    # the documented exception: theta = 0, n = 10, F_max = 1.0 favors IS
    assert not us_beats_is(10, 0.5)
    c, v = illustrative_params(1.0)
    inputs = MomentInputs(n=10, c=c, v=v, theta=0.0)
    assert (
        moment_report("IS", "conditioned-positive", inputs).variance
        < moment_report("US", "conditioned-positive", inputs).variance
    )


def test_criterion_07_convergence_rate():
    n, v = 20, 3.0
    for i in range(1, 101):
        c = 1.0 / i
        inputs = MomentInputs(n=n, c=c, v=v, theta=0.0)
        us_var = moment_report("US", "conditioned-positive", inputs).variance
        is_var = moment_report("IS", "conditioned-positive", inputs).variance
        assert us_var <= (v / i**2) * (1.0 + 1e-12), i
        assert is_var >= (v / (n * i)) * (1.0 - 1e-12), i


def test_criterion_08_hoeffding_coverage():
    start = time.monotonic()
    rows = coverage_experiment(
        1.0, [10, 50], delta=0.1, trials=10_000, theta=1.0, seed=321
    )
    elapsed = time.monotonic() - start
    for row in rows:
        assert row.coverage_is >= 0.89, row.n
        assert row.coverage_us >= 0.89, row.n
        assert row.c < 1.0
        assert row.mean_margin_us <= row.mean_margin_is, row.n
        assert row.margin_ratio == pytest.approx(row.predicted_ratio, rel=0.08)
    assert elapsed < 60.0, f"coverage took {elapsed:.1f}s"


def test_criterion_09_wis_us_equivalence():
    problem = illustrative_problem(0.5, theta=3.0)
    sim = simulate_estimates(problem, 10, 1000, seed=13)
    pos = sim.k > 0
    assert sim.count[pos].sum() >= 900
    us, wis = sim.us_values[pos], sim.wis_values[pos]
    rel = np.abs(wis - us) / np.maximum(np.abs(us), 1e-300)
    assert rel.max() <= 1e-12


def test_criterion_10_treatment_surrogate_trends():
    cr_grid = [10.0, 10.375, 10.75]  # c = 0.4, 0.25, 0.1, all <= 0.5
    plain = sweep_treatment_surrogate(cr_grid, n=30, trials=TRIALS, seed=55)
    centered = sweep_treatment_surrogate(
        cr_grid, n=30, trials=TRIALS, cv_mode="sampling-mean", seed=55
    )
    for row, row_cv in zip(plain, centered):
        rec, rec_cv = row.record(), row_cv.record()
        assert rec["c"] <= 0.5
        # pruning wins outright without a control variate
        assert rec["emp_us_mse"] < rec["emp_is_mse"], rec["cr_min"]
        # the sampling-mean control variate closes most of the gap
        gap = rec["emp_is_mse"] - rec["emp_us_mse"]
        gap_cv = abs(rec_cv["emp_is_mse"] - rec_cv["emp_us_mse"])
        assert gap_cv < gap, rec["cr_min"]
        # undefined rate matches 1 - rho within 3 binomial SE
        miss = 1.0 - rho(row.n, rec["c"])
        se = math.sqrt(miss * (1.0 - miss) / TRIALS)
        assert abs(rec["undefined_rate"] - miss) <= 3.0 * se, rec["cr_min"]


def test_criterion_11_cli_determinism(tmp_path):
    commands = [
        [
            "sweep-illustrative", "--f-max-grid", "0.5,2.0", "--theta-grid", "1.0",
            "--n-grid", "10", "--trials", "2000", "--seed", "17",
        ],
        [
            "sweep-illustrative", "--f-max-grid", "0.5", "--theta-grid", "0.0",
            "--n-grid", "5", "--trials", "1000", "--seed", "17",
            "--format", "json",
        ],
        [
            "sweep-treatment", "--cr-min-grid", "10.375", "--n", "10",
            "--trials", "1000", "--seed", "17",
        ],
        ["bounds", "--n-grid", "10,50", "--trials", "1000", "--seed", "17"],
        ["coverage", "--n-grid", "10", "--trials", "1000", "--seed", "17"],
    ]
    for index, argv in enumerate(commands):
        first = tmp_path / f"first_{index}.out"
        second = tmp_path / f"second_{index}.out"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv[0]
