"""Monte Carlo harness: trial simulation, sweeps, and table emission.

Reproduces the quantitative pictures at desk scale: variance/MSE sweeps
of the two-uniform example across (F_max, theta, n), Hoeffding-bound
width and coverage sweeps, and a treatment-policy example over a fully
declared synthetic return surface (its numbers characterize the
surrogate itself, not any real system).

Every sweep's inputs come from its problem alone: ``sampling_mean``
(E_g[h]) and ``moment_inputs`` ((theta, v)) sum over its ``terms``,
built once, and its return surface, if any, gives the simulated
observations and v's extra variance. All four sweeps walk their
(point, n) grid through one function, which also numbers the grid
points for their sub-seeds, and the bound and coverage sweeps share one
bound-trial loop on the problem their caller builds.

Reproducibility contract: every sweep derives one sub-seed per grid
point from the master seed, and each point draws from PCG64DXSM streams
seeded by the SeedSequence of (point seed, chunk index): an outcome-table
point draws all its trials at once from chunk 0's stream, and the
per-trial paths generate theirs in fixed-size chunks, one stream each.
Statistics are reduced in a fixed order, so a rerun with the same flags
yields byte-identical output, and a future parallel runner could own one
chunk per worker without changing any number.

A point takes one of three paths, chosen from its problem, n and trial
count alone:

- **Outcome table.** A problem that is ``piecewise_constant``, whose
  ``terms`` then hold one term per cell, and whose m cells admit at
  most ``trials`` count vectors, math.comb(n + m - 1, m - 1), lists
  them with their Multinomial(n, p) probabilities and estimates
  (:func:`outcome_table`). The count vectors and their log multinomial
  coefficients depend on (n, m) alone: they are enumerated once per
  (n, m) per process and kept, read-only, while all kept tables total
  at most 4 MiB (the least recently used go first, and a larger table
  is enumerated at every call). The trials' histogram over the outcomes
  is then one Multinomial(trials, pmf) draw over the outcomes of
  positive pmf, so an outcome of pmf 0 is never drawn: one
  :class:`SimulationResult` row per drawn outcome, with its count. The
  rule compares the table's O(outcomes) cost with the O(trials) cost of
  the per-trial draws it replaces, so it needs no setting.
- **Per-trial counts.** Any other piecewise-constant problem draws each
  of a chunk's 4096 trials' per-cell sample counts, Multinomial(n, p),
  and never the samples themselves, so a chunk costs O(trials x cells)
  time and memory whatever n is.
- **Samples.** Every other problem draws the samples of min(4096,
  CHUNK_ELEMENTS // n) trials per chunk, at least one, into a workspace
  allocated once per call: four arrays of at most CHUNK_ELEMENTS = 2**17
  float64 values (x, h or the observations, the weights, one scratch)
  whatever n is; only n > 2**17 holds more, one row of n samples.

Both cell paths give each count vector the same estimates, through
:func:`cell_estimates`, and run the same coverage checks on the cells
their trials hit. The two per-trial paths keep one row per trial, with
count 1, and every summary (:func:`summarize_trials`, the bound and
coverage rows) is one count-weighted sum over the rows on all paths,
read from the one :class:`TrialWeights` its point forms.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import batch_estimates, cell_estimates, out_array
from .bounds import hoeffding_is, hoeffding_us, weighted_range
from .densities import (
    EstimationProblem,
    EvaluationFunction,
    PiecewiseUniform,
    TruncatedNormal,
    check_coverage,
)
from .estimators import ControlVariate
from .moments import MomentInputs, MomentReport, moment_report, rho

__all__ = [
    "CHUNK_TRIALS",
    "CHUNK_ELEMENTS",
    "SimulationResult",
    "OutcomeTable",
    "TrialStats",
    "TrialWeights",
    "SweepRow",
    "BoundsSweepRow",
    "CoverageRow",
    "SyntheticReturnSurface",
    "illustrative_problem",
    "treatment_problem",
    "sampling_mean",
    "moment_inputs",
    "outcome_table",
    "simulate_estimates",
    "summarize_trials",
    "run_trials",
    "analytic_reports",
    "sweep_illustrative",
    "sweep_bounds",
    "coverage_experiment",
    "sweep_treatment_surrogate",
    "render",
    "emit",
]

CHUNK_TRIALS = 4096
# Samples per sample-path chunk: 4096 rows of n <= 32 keep CHUNK_TRIALS.
CHUNK_ELEMENTS = 2**17


def derive_seed(master_seed: int, index: int) -> int:
    """Per-grid-point sub-seed, a pure function of (master seed, index)."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The stream of one chunk: PCG64DXSM seeded by (seed, chunk index).
    An outcome-table point draws from chunk 0's stream alone."""
    ss = np.random.SeedSequence([int(seed), int(chunk_index)])
    return np.random.Generator(np.random.PCG64DXSM(ss))


# ---------------------------------------------------------------------------
# Built-in problems


def illustrative_problem(f_max: float, theta: float = 0.0) -> EstimationProblem:
    """Two-uniform example: target U[0, f_max], sampling U[0, 2].

    The evaluation is theta - 1 below f_max/2 and theta + 1 from f_max/2
    up, so the true value is theta for every f_max; the pruning set is
    the target support, giving c = f_max/2 and conditional term variance
    v = 4/f_max^2.
    """
    if not 0.0 < f_max <= 2.0:
        raise ValueError("f_max must lie in (0, 2]")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    target = PiecewiseUniform.uniform(0.0, f_max)
    sampling = PiecewiseUniform.uniform(0.0, 2.0)
    evaluation = EvaluationFunction.piecewise_constant(
        [(0.0, f_max / 2.0, theta - 1.0), (f_max / 2.0, 2.0, theta + 1.0)]
    )
    return EstimationProblem(target, sampling, evaluation, [(0.0, f_max)])


@dataclass(frozen=True)
class SyntheticReturnSurface:
    """Fully declared return surface for the treatment-policy example.

    The expected return given policy parameters (CR, CF) is

        base(CR) + tilt(CF)
        base(CR) = base_level + base_gain * (1 - ((cr_high - CR)/span)^2)
        tilt(CF) = tilt_amplitude * (CF - cf_mid) / cf_half_width

    so returns improve smoothly toward CR = cr_high, and CF carries a
    small mean-zero linear effect. A day's observed return adds uniform
    noise of half-width ``noise_scale``. CF is drawn uniformly over
    [cf_low, cf_high] under both the target and sampling policies, so it
    integrates out of the estimand: the marginal evaluation of CR is
    base(CR), and the CF and noise terms only add a constant
    ``extra_variance`` to the per-sample conditional variance.

    ``marginal_return`` is base(CR), the treatment problem's h, and
    ``observe`` draws the returns a simulation reads in its place,
    computed in place in ``out``, if given.
    """

    cr_low: float = 8.5
    cr_high: float = 11.0
    cf_low: float = 10.0
    cf_high: float = 15.0
    base_level: float = 0.85
    base_gain: float = 0.06
    tilt_amplitude: float = 0.01
    noise_scale: float = 0.03

    def marginal_return(self, cr) -> np.ndarray:
        rel = (self.cr_high - np.asarray(cr, dtype=float)) / (self.cr_high - self.cr_low)
        return self.base_level + self.base_gain * (1.0 - rel * rel)

    def observe(self, rng: np.random.Generator, cr, out=None, scratch=None) -> np.ndarray:
        """Noisy per-day returns base(CR) + tilt(CF) + noise, from uniforms
        u_CF, then u_noise, one each per sample, drawn into ``scratch`` (a
        fresh array when None). CF = cf_low + (cf_high - cf_low) u_CF and
        the noise is noise_scale (2 u_noise - 1), so the terms fold into
        one affine map, equal to their sum up to roundoff: a - base_gain
        (CR - cr_high)^2 / span^2 + 2 tilt_amplitude u_CF + 2 noise_scale
        u_noise, a = base_level + base_gain - tilt_amplitude - noise_scale.
        """
        cr = np.asarray(cr, dtype=float)
        span = self.cr_high - self.cr_low
        obs = np.subtract(cr, self.cr_high, out=out_array(cr.shape, out))
        obs *= obs
        obs *= -self.base_gain / (span * span)
        obs += self.base_level + self.base_gain - self.tilt_amplitude - self.noise_scale
        draws = out_array(cr.shape, scratch)
        for amplitude in (self.tilt_amplitude, self.noise_scale):
            rng.random(out=draws)
            draws *= 2.0 * amplitude
            obs += draws
        return obs

    @property
    def extra_variance(self) -> float:
        """Var(tilt) + Var(noise); both uniform, so amplitude^2 / 3 each."""
        return (self.tilt_amplitude**2 + self.noise_scale**2) / 3.0


def treatment_problem(
    cr_min: float, surface: SyntheticReturnSurface | None = None
) -> EstimationProblem:
    """Surrogate treatment study: uniform sampling, truncated-normal target.

    The sampling policy draws CR uniformly over [8.5, 11]; the target
    policy draws from a normal with mean 11 and standard deviation
    11 - cr_min truncated to [cr_min, 11]. Pruning to the target support
    gives c = (11 - cr_min)/2.5 exactly. The problem carries ``surface``,
    the default one when None is given, and h is its marginal return.
    """
    surface = surface or SyntheticReturnSurface()
    lo, hi = surface.cr_low, surface.cr_high
    if not lo <= cr_min < hi:
        raise ValueError(f"cr_min must lie in [{lo}, {hi})")
    sampling = PiecewiseUniform.uniform(lo, hi)
    target = TruncatedNormal(cr_min, hi, mean=hi, stddev=hi - cr_min)
    evaluation = EvaluationFunction(surface.marginal_return, [(lo, hi)])
    return EstimationProblem(target, sampling, evaluation, [(cr_min, hi)], surface)


def sampling_mean(problem: EstimationProblem) -> float:
    """E_g[h], the natural constant control variate: sum p h over
    ``problem.terms``, its cells' midpoints or its Gauss-Legendre nodes."""
    p, _, h, _ = problem.terms
    return float((p * h).sum())


def moment_inputs(problem: EstimationProblem, t: float = 0.0) -> tuple[float, float]:
    """(theta, v) for the analytic catalog, from ``problem.terms``.

    theta = E_f[h] = sum p w h, whatever t is. v is the variance of one
    centered term w (h - t) given X in C, summed about its mean
    m = sum_C p w (h - t) / c, so it is no difference of nearly equal
    integrals. The problem's return surface, when it has one, adds its
    CF tilt and day noise as extra_variance * sum_C p w^2 / c. Raises
    ValueError if theta or v is not finite.
    """
    p, w, h, in_c = problem.terms
    theta = float((p * w * h).sum())
    p_c, w_c = p[in_c], w[in_c]
    with np.errstate(over="ignore", invalid="ignore"):
        wh = w_c * (h[in_c] - t)
        m = (p_c * wh).sum() / problem.c
        v = (p_c * (wh - m) ** 2).sum() / problem.c
    if problem.surface is not None:
        v += problem.surface.extra_variance * (p_c * w_c * w_c).sum() / problem.c
    if not (math.isfinite(theta) and math.isfinite(v)):
        raise ValueError("the analytic inputs overflow the double range")
    return theta, float(v)


# ---------------------------------------------------------------------------
# Trial simulation and summaries


@dataclass(frozen=True)
class SimulationResult:
    """Estimator values over one grid point's Monte Carlo run.

    Each row holds one (IS, US, WIS, k, WIS-defined) outcome and
    ``count``, how many trials gave it: on the outcome-table path one
    row per outcome of positive count in the trials' Multinomial(trials,
    pmf) histogram, on the other paths one row per trial with count 1.
    Every statistic of the run is a count-weighted sum over the rows,
    and ``count`` sums to the trials.
    """

    is_values: np.ndarray
    us_values: np.ndarray
    wis_values: np.ndarray
    k: np.ndarray
    wis_defined: np.ndarray
    count: np.ndarray

    @property
    def us_defined(self) -> np.ndarray:
        return self.k > 0


def _unit_counts(columns) -> SimulationResult:
    """A SimulationResult of one row per (IS, US, WIS, k, WIS-defined)
    entry of ``columns``, each with count 1."""
    return SimulationResult(*columns, np.ones(len(columns[0]), dtype=np.int64))


def _compositions(n: int, m: int) -> np.ndarray:
    """Every count vector of n samples over m cells, one row each, in
    lexicographic order: math.comb(n + m - 1, m - 1) rows of int64."""
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for _ in range(m - 1):
        # Row r branches into one row per next count 0, ..., left[r].
        parent = np.repeat(np.arange(left.size), left + 1)
        start = np.cumsum(left + 1) - (left + 1)
        nxt = np.arange(parent.size) - start[parent]
        counts = np.column_stack([counts[parent], nxt])
        left = left[parent] - nxt
    return np.column_stack([counts, left])


def _count_table(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, coefficients), read-only: :func:`_compositions` (n, m)
    and each row's log multinomial coefficient log n! - sum_j log c_j!,
    read off one table of log k! for k <= n; one cell has one outcome,
    whose coefficient is 0 and which needs no table."""
    counts = _compositions(n, m)
    if m > 1:
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
        coefficients = log_fact[n] - log_fact[counts].sum(axis=1)
    else:
        coefficients = np.zeros(1)
    counts.flags.writeable = coefficients.flags.writeable = False
    return counts, coefficients


def _nbytes(table: tuple[np.ndarray, np.ndarray]) -> int:
    return table[0].nbytes + table[1].nbytes


class _CountTables:
    """:func:`_count_table` per (n, m), built once and kept while the
    kept tables total at most ``max_bytes``: the least recently used go
    first, and a table larger than the bound is built at every call."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        # From least to most recently used.
        self._tables: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        key = (n, m)
        table = self._tables.pop(key, None)
        if table is None:
            table = _count_table(n, m)
        else:
            self.nbytes -= _nbytes(table)
        if _nbytes(table) <= self.max_bytes:
            self._tables[key] = table
            self.nbytes += _nbytes(table)
            while self.nbytes > self.max_bytes:
                self.nbytes -= _nbytes(self._tables.pop(next(iter(self._tables))))
        return table


# The process's count tables: a sweep's points share their (n, m), and
# 4 MiB holds every table of the default grids many times over.
_COUNT_TABLE_BYTES = 2**22
_count_tables = _CountTables(_COUNT_TABLE_BYTES)


@dataclass(frozen=True)
class OutcomeTable:
    """Every outcome of one batch of n samples on a cell problem.

    ``counts`` holds the per-cell count vectors in lexicographic order,
    read-only and shared by every table of the same (n, cells), ``pmf``
    the Multinomial(n, p) probability of each, and ``values``
    each one's (IS, US, WIS, k, WIS-defined), one row per outcome with
    count 1, computed by :func:`cell_estimates` exactly as for a drawn
    count vector.
    """

    counts: np.ndarray
    pmf: np.ndarray
    values: SimulationResult


def outcome_table(problem: EstimationProblem, n: int, t: float = 0.0) -> OutcomeTable:
    """The problem's :class:`OutcomeTable` at batch size n and control
    variate t. Raises ValueError unless the problem is piecewise-constant."""
    if not problem.piecewise_constant:
        raise ValueError("an outcome table needs a piecewise-constant problem")
    p, w, h, in_c = problem.terms
    counts, coefficients = _count_tables(n, p.size)
    log_pmf = counts @ np.log(p)
    log_pmf += coefficients
    values = cell_estimates(counts, n, w, h, in_c, problem.c, t)
    return OutcomeTable(counts, np.exp(log_pmf, out=log_pmf), _unit_counts(values))


def _check_hit_cells(problem: EstimationProblem, counts: np.ndarray, t: float) -> None:
    """:func:`~unequal_support.densities.check_coverage` on the cells of
    ``problem.terms`` that some row of the (rows, cells) ``counts`` hit."""
    _, w, h, in_c = problem.terms
    hit = counts.any(axis=0)
    w = w[hit]
    check_coverage(w, w * h[hit], in_c[hit], t)


def _draw_outcomes(
    problem: EstimationProblem, n: int, trials: int, seed: int, t: float
) -> SimulationResult:
    """``trials`` outcomes of the problem's table, one row per outcome
    drawn, with how many trials drew it: the histogram of the trials is
    one Multinomial(trials, pmf) draw from the point's chunk-0 stream,
    over the outcomes of positive pmf only, so an outcome of pmf 0 is
    never drawn."""
    table = outcome_table(problem, n, t)
    positive = np.flatnonzero(table.pmf)
    p = table.pmf[positive]
    hist = _chunk_rng(seed, 0).multinomial(trials, p / p.sum())
    hit = hist > 0
    drawn, count = positive[hit], hist[hit]
    # The trials' samples per cell, as one row: a cell is hit when its
    # total is positive.
    _check_hit_cells(problem, (count @ table.counts[drawn])[None, :], t)
    v = table.values
    return SimulationResult(
        v.is_values[drawn], v.us_values[drawn], v.wis_values[drawn],
        v.k[drawn], v.wis_defined[drawn], count,
    )


def simulate_estimates(
    problem: EstimationProblem,
    n: int,
    trials: int,
    seed: int,
    t: float = 0.0,
) -> SimulationResult:
    """All three estimators over ``trials`` independent batches of size n,
    on the path the module docstring describes: one row per drawn
    outcome, with its ``count`` of trials, on the outcome table, else one
    row per trial with count 1.

    The sample path's workspace, allocated once per call, is four
    (rows, n) float64 arrays, rows = min(CHUNK_TRIALS, max(1,
    CHUNK_ELEMENTS // n)), whose prefixes every chunk writes: x; h(x), or
    the surface's observations in its place (CF, then noise, drawn after
    x); the weights; and a scratch for the uniforms, then g(x), then the
    centered terms w (h - t) that ``batch_terms`` forms there and the
    kernel sums. A batch with w h != 0 outside C (h observed on the
    surface path) raises :class:`PruningCoverageError`, and with t != 0
    one with f != 0 outside C raises :class:`ControlVariateCoverageError`.
    """
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    terms = problem.terms if problem.piecewise_constant else None
    m = 0 if terms is None else terms[0].size
    if m and math.comb(n + m - 1, m - 1) <= trials:
        return _draw_outcomes(problem, n, trials, seed, t)
    if terms is None:
        chunk_rows = min(CHUNK_TRIALS, max(1, CHUNK_ELEMENTS // n), trials)
        workspace = np.empty((4, chunk_rows, n))
    else:
        chunk_rows = CHUNK_TRIALS
    parts = []
    n_chunks = -(-trials // chunk_rows)
    for chunk in range(n_chunks):
        rows = min(chunk_rows, trials - chunk * chunk_rows)
        rng = _chunk_rng(seed, chunk)
        if terms is not None:
            counts = rng.multinomial(n, terms[0], size=rows)
            _check_hit_cells(problem, counts, t)
            parts.append(cell_estimates(counts, n, *terms[1:], problem.c, t))
            continue
        x, hv, w, work = workspace[:, :rows]
        problem.sampling.sample(rng, x.shape, out=x)
        if problem.surface is None:
            problem.evaluation(x, out=hv)
        else:
            problem.surface.observe(rng, x, out=hv, scratch=work)
        w, centered, in_c = problem.batch_terms(x, hv, out=w, t=t, scratch=work)
        parts.append(batch_estimates(centered, w, in_c, problem.c, t))
    return _unit_counts([np.concatenate([p[i] for p in parts]) for i in range(5)])


@dataclass(frozen=True)
class TrialStats:
    """Empirical summary of one estimator's trial values.

    The ``cond_*`` fields restrict to trials whose batch put at least
    one sample in C (the k > 0 conditioning event, shared by all
    estimators); ``undefined_rate`` counts this estimator's own
    convention substitutions. Every statistic carries its Monte Carlo
    standard error.
    """

    label: str
    trials: int
    mean: float
    variance: float
    mse: float
    se_mean: float
    se_variance: float
    se_mse: float
    positive_trials: int
    cond_mean: float
    cond_variance: float
    cond_mse: float
    cond_se_mean: float
    cond_se_variance: float
    cond_se_mse: float
    undefined_rate: float
    se_undefined_rate: float

    def to_record(self) -> dict:
        return dict(self.__dict__)


class TrialWeights:
    """How many trials each row of a run stands for, as float64 whole
    numbers, over every row (``weights``) and over the rows with k > 0
    (``positive_weights``), with both sums (``trials`` and
    ``positive_trials``): formed once per run from the rows' ``count``
    and whether each has k > 0, and read by the summary of each of its
    estimators."""

    __slots__ = ("weights", "positive_weights", "trials", "positive_trials")

    def __init__(self, count: np.ndarray, positive: np.ndarray):
        self.weights = np.asarray(count, dtype=float)
        self.positive_weights = self.weights * positive
        self.trials = float(self.weights.sum())
        self.positive_trials = float(self.positive_weights.sum())


def _moment_block(
    values: np.ndarray, weights: np.ndarray, count: float, theta: float
) -> tuple[float, ...]:
    """(mean, variance, MSE, and their standard errors) of the ``count``
    trials that ``values`` holds ``weights`` times each; ``weights`` are
    float64 whole numbers, and zero leaves a value out."""
    if count < 2:
        only = float(values[np.flatnonzero(weights)[0]]) if count else math.nan
        return only, math.nan, (only - theta) ** 2 if count else math.nan, *(math.nan,) * 3
    mean = float(values.dot(weights)) / count
    centered = values - mean
    scratch = centered * weights
    variance = float(centered.dot(scratch)) / (count - 1)
    scratch *= centered
    centered *= centered
    fourth = float(scratch.dot(centered)) / count
    # The squared errors and their deviations from the MSE, in place.
    sq_err = np.subtract(values, theta, out=centered)
    sq_err *= sq_err
    mse = float(sq_err.dot(weights)) / count
    sq_err -= mse
    np.multiply(sq_err, weights, out=scratch)
    var_sq_err = float(sq_err.dot(scratch)) / (count - 1)
    se_mean = math.sqrt(variance / count)
    se_variance = math.sqrt(max(fourth - variance * variance, 0.0) / count)
    se_mse = math.sqrt(var_sq_err / count)
    return mean, variance, mse, se_mean, se_variance, se_mse


def summarize_trials(
    label: str,
    values: np.ndarray,
    theta: float,
    defined: np.ndarray,
    weights: TrialWeights,
) -> TrialStats:
    """Mean/variance/MSE with standard errors, plus the k > 0 restriction,
    over the trials that each row of ``values`` stands for, as
    ``weights`` counts them (one row per trial when every count is 1)."""
    values = np.asarray(values, dtype=float)
    trials = weights.trials
    uncond = _moment_block(values, weights.weights, trials, theta)
    cond = _moment_block(values, weights.positive_weights, weights.positive_trials, theta)
    p_undef = 1.0 - float(weights.weights.dot(defined)) / trials
    se_undef = math.sqrt(max(p_undef * (1.0 - p_undef), 0.0) / trials)
    return TrialStats(
        label, int(trials), *uncond, int(weights.positive_trials), *cond, p_undef, se_undef
    )


def run_trials(
    problem: EstimationProblem,
    n: int,
    trials: int,
    theta_true: float,
    cv: ControlVariate = ControlVariate(0.0),
    seed: int = 0,
) -> dict[str, TrialStats]:
    """TrialStats for IS, US, and WIS over independent seeded batches,
    whose three summaries share one :class:`TrialWeights`."""
    sim = simulate_estimates(problem, n, trials, seed, t=cv.t)
    positive = sim.us_defined
    weights = TrialWeights(sim.count, positive)
    all_defined = np.ones(positive.size, dtype=bool)
    return {
        "IS": summarize_trials("IS", sim.is_values, theta_true, all_defined, weights),
        "US": summarize_trials("US", sim.us_values, theta_true, positive, weights),
        "WIS": summarize_trials("WIS", sim.wis_values, theta_true, sim.wis_defined, weights),
    }


# ---------------------------------------------------------------------------
# Analytic-vs-empirical sweep rows


def _shift_report(report: MomentReport, t: float, theta: float) -> MomentReport:
    """Re-center an IS report computed on h - t back to the h scale."""
    mean = report.mean + t
    bias = mean - theta
    return MomentReport(
        report.estimator, report.regime, mean, bias, report.variance,
        report.variance + bias * bias,
    )


def analytic_reports(
    n: int, c: float, v: float, theta: float, t: float = 0.0
) -> dict[str, MomentReport]:
    """Closed-form reports for both estimators in both averaged regimes.

    ``v`` must already be the conditional variance of the centered term
    w (h - t). The IS cells follow the catalog at the shifted value
    theta - t and are then translated back by t; the US cells keep the
    full theta because the k = 0 convention pins the estimator to 0, not
    to t, which feeds theta (not theta - t) into the unconditional
    variance and bias.
    """
    us_inputs = MomentInputs(n, c, v, theta)
    is_inputs = MomentInputs(n, c, v, theta - t)
    return {
        "is_unconditional": _shift_report(
            moment_report("IS", "unconditional", is_inputs), t, theta
        ),
        "is_positive": _shift_report(
            moment_report("IS", "conditioned-positive", is_inputs), t, theta
        ),
        "us_unconditional": moment_report("US", "unconditional", us_inputs),
        "us_positive": moment_report("US", "conditioned-positive", us_inputs),
    }


@dataclass(frozen=True)
class SweepRow:
    """One grid point: coordinates, analytic cells, empirical summaries."""

    coord_name: str
    coord: float
    theta: float
    n: int
    c: float
    v: float
    t: float
    seed: int
    analytic: dict[str, MomentReport]
    empirical: dict[str, TrialStats]

    def _point(self) -> dict:
        return {
            self.coord_name: self.coord, "theta": self.theta, "n": self.n,
            "c": self.c, "v": self.v,
        }

    def record(self) -> dict:
        a, e = self.analytic, self.empirical
        out = {
            **self._point(),
            "analytic_is_var_u": a["is_unconditional"].variance,
            "analytic_is_var_c": a["is_positive"].variance,
            "analytic_us_var_u": a["us_unconditional"].variance,
            "analytic_us_var_c": a["us_positive"].variance,
            "analytic_us_mse_u": a["us_unconditional"].mse,
        }
        for label in ("is", "us", "wis"):
            stats = e[label.upper()]
            out[f"emp_{label}_mean"] = stats.mean
            out[f"emp_{label}_var"] = stats.variance
            out[f"emp_{label}_mse"] = stats.mse
        out["undefined_rate"] = e["US"].undefined_rate
        out["seed"] = self.seed
        return out

    def to_record(self) -> dict:
        return {
            **self._point(),
            "t": self.t,
            "seed": self.seed,
            "analytic": {key: dict(report.__dict__) for key, report in self.analytic.items()},
            "empirical": {key: stats.to_record() for key, stats in self.empirical.items()},
        }


def _grid_points(points, n_grid, seed) -> list:
    """Every (point, n, point seed) of a sweep's grid, points first, then
    n: the i-th takes ``derive_seed(seed, i)``. Raises ValueError when
    there is no grid point, before any point is simulated."""
    grid = list(itertools.product(points, n_grid))
    if not grid:
        raise ValueError("grids must be nonempty")
    return [(point, n, derive_seed(seed, i)) for i, (point, n) in enumerate(grid)]


def _sweep(coord_name, points, n_grid, trials, seed, cv_mode) -> list[SweepRow]:
    """One SweepRow per (point, n) of :func:`_grid_points`, for
    (coordinate, problem, theta) points.

    Each point's control variate (``none``, ``value:<real>`` or
    ``sampling-mean``, E_g[h] by :func:`sampling_mean`), conditional term
    variance v and, when the point gives None, theta (both by
    :func:`moment_inputs`) come from its problem's terms, built once.
    """
    def inputs(coord, problem, theta):
        cv = ControlVariate.from_spec(cv_mode, lambda: sampling_mean(problem))
        derived, v = moment_inputs(problem, cv.t)
        return coord, problem, derived if theta is None else theta, cv, v

    return [
        SweepRow(
            coord_name, coord, theta, n, problem.c, v, cv.t, point_seed,
            analytic_reports(n, problem.c, v, theta, cv.t),
            run_trials(problem, n, trials, theta, cv, point_seed),
        )
        for (coord, problem, theta, cv, v), n, point_seed in _grid_points(
            (inputs(*point) for point in points), n_grid, seed
        )
    ]


def sweep_illustrative(
    f_max_grid,
    theta_grid,
    n_grid,
    trials: int,
    seed: int,
    cv_mode: str = "none",
) -> list[SweepRow]:
    """One SweepRow per (f_max, theta, n) grid point.

    ``cv_mode`` is ``none``, ``value:<real>``, or ``sampling-mean``
    (E_g[h], recomputed per point). The theta column is the grid value,
    the problem's true value by construction; c and the conditional
    variance v of the centered term come from the problem.
    """
    theta_grid = list(theta_grid)
    points = (
        (f_max, illustrative_problem(f_max, theta), theta)
        for f_max in f_max_grid
        for theta in theta_grid
    )
    return _sweep("f_max", points, n_grid, trials, seed, cv_mode)


def sweep_treatment_surrogate(
    cr_min_grid,
    n: int = 30,
    trials: int = 200_000,
    cv_mode: str = "none",
    seed: int = 0,
) -> list[SweepRow]:
    """One SweepRow per cr_min under the default synthetic return surface.

    Ground truth theta and the conditional term variance come from
    32-node Gauss-Legendre quadrature on each support cell of the
    problem, so the analytic columns are exact for the surrogate itself
    (they describe no external system). ``cv_mode = sampling-mean`` uses the expected return under
    the sampling policy as the control variate.
    """
    points = ((cr, treatment_problem(cr), None) for cr in cr_min_grid)
    return _sweep("cr_min", points, [n], trials, seed, cv_mode)


# ---------------------------------------------------------------------------
# Bound sweeps


def _bound_trials(
    problem: EstimationProblem, theta: float, n_grid, delta: float, trials: int, seed: int
):
    """Per n of :func:`_grid_points` on the one problem: the fields every
    bound row shares (n, delta, theta, c, b, seed), the simulation, its
    :class:`TrialWeights`, and the (lower, upper) one-sided 1 - delta IS
    and US bounds of each simulation row, the US pair NaN where k = 0.
    The range b is checked before any trial is drawn."""
    b, c = weighted_range(problem), problem.c
    for _, n, point_seed in _grid_points([problem], n_grid, seed):
        sim = simulate_estimates(problem, n, trials, point_seed)
        shared = dict(n=n, delta=delta, theta=theta, c=c, b=b, seed=point_seed)
        yield (
            shared, sim, TrialWeights(sim.count, sim.us_defined),
            hoeffding_is(sim.is_values, b, n, delta),
            hoeffding_us(sim.us_values, b, c, sim.k, delta),
        )


def _weighted_mean(values: np.ndarray, weights: TrialWeights, positive: bool = False) -> float:
    """Mean of ``values`` over the trials each row stands for, as
    ``weights`` counts them: every trial, or with ``positive`` only those
    with k > 0; NaN, without a division warning, when no trial counts.
    Rows of weight zero are skipped, so an undefined (NaN) bound there
    does not reach the mean. The sums are taken in float64, exact for
    whole-number values up to 2**53, as a per-trial mean's are; one that
    overflows is taken over weights/total."""
    if positive:
        rows, total = weights.positive_weights, weights.positive_trials
    else:
        rows, total = weights.weights, weights.trials
    if not total:
        return math.nan
    values = np.where(rows > 0, values, 0.0)
    with np.errstate(over="ignore"):
        mean = float(np.dot(values, rows)) / total
    return float(np.dot(values, rows / total)) if math.isinf(mean) else mean


@dataclass(frozen=True)
class BoundsSweepRow:
    """Mean one-sided bounds at one n, plus how often the pruned bound exists.

    ``delta`` is spent per side (two 1 - delta one-sided bounds), the
    reading under which delta = 1 collapses both bounds onto the point
    estimate; delta/2-per-side intervals are available through the
    bounds module directly.
    """

    n: int
    delta: float
    theta: float
    c: float
    b: float
    mean_is_lower: float
    mean_is_upper: float
    mean_us_lower: float
    mean_us_upper: float
    empirical_rho: float
    analytic_rho: float
    seed: int

    def record(self) -> dict:
        return dict(self.__dict__)


def sweep_bounds(
    f_max: float,
    n_grid,
    delta: float,
    trials: int,
    seed: int,
    theta: float = 1.0,
) -> list[BoundsSweepRow]:
    """Mean bound locations per n for the two-uniform example."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    problem = illustrative_problem(f_max, theta)
    return [
        BoundsSweepRow(
            **shared,
            mean_is_lower=_weighted_mean(is_lower, weights),
            mean_is_upper=_weighted_mean(is_upper, weights),
            mean_us_lower=_weighted_mean(us_lower, weights, positive=True),
            mean_us_upper=_weighted_mean(us_upper, weights, positive=True),
            empirical_rho=weights.positive_trials / weights.trials,
            analytic_rho=rho(shared["n"], shared["c"]),
        )
        for shared, _, weights, (is_lower, is_upper), (us_lower, us_upper) in _bound_trials(
            problem, theta, n_grid, delta, trials, seed
        )
    ]


@dataclass(frozen=True)
class CoverageRow:
    """One-sided lower-bound coverage of the true value at one n."""

    n: int
    delta: float
    theta: float
    c: float
    b: float
    coverage_is: float
    coverage_us: float
    mean_margin_is: float
    mean_margin_us: float
    margin_ratio: float
    predicted_ratio: float
    mean_k: float
    undefined_rate: float
    seed: int

    def record(self) -> dict:
        return dict(self.__dict__)


def coverage_experiment(
    f_max: float,
    n_grid,
    delta: float,
    trials: int,
    theta: float = 1.0,
    seed: int = 0,
) -> list[CoverageRow]:
    """Fraction of trials whose 1 - delta lower bound sits at or below theta.

    The pruned estimator's coverage is measured among trials with k > 0,
    the only trials where its bound exists.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    problem = illustrative_problem(f_max, theta)
    rows = []
    for shared, sim, weights, (is_lower, _), (us_lower, _) in _bound_trials(
        problem, theta, n_grid, delta, trials, seed
    ):
        n, c, b = shared["n"], shared["c"], shared["b"]
        # The upper bound around a zero estimate is the margin, exactly.
        _, is_margin = hoeffding_is(0.0, b, n, delta)
        _, us_margin = hoeffding_us(0.0, b, c, sim.k, delta)
        mean_k = _weighted_mean(sim.k, weights)
        mean_margin_us = _weighted_mean(us_margin, weights, positive=True)
        # mean_k is 0 exactly when no trial has k > 0.
        predicted = c * math.sqrt(n / mean_k) if mean_k else math.nan
        rows.append(
            CoverageRow(
                **shared,
                coverage_is=_weighted_mean(is_lower <= theta, weights),
                coverage_us=_weighted_mean(us_lower <= theta, weights, positive=True),
                mean_margin_is=is_margin,
                mean_margin_us=mean_margin_us,
                margin_ratio=mean_margin_us / is_margin,
                predicted_ratio=predicted,
                mean_k=mean_k,
                undefined_rate=1.0 - weights.positive_trials / weights.trials,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Emission


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _null_nonfinite(value):
    """``value`` with every non-finite float in it, nested dicts included, made None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _null_nonfinite(item) for key, item in value.items()}
    return value


def render(rows, format: str) -> str:
    """Deterministic CSV or JSON text for a list of row objects.

    CSV takes each row's flat ``record()``. JSON takes the nested
    ``to_record()`` where a row defines one (:class:`SweepRow`) and the
    flat record otherwise, writing each non-finite float as null (JSON has no NaN).
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to emit")
    if format == "csv":
        records = [row.record() for row in rows]
        header = list(records[0].keys())
        for rec in records:
            if list(rec.keys()) != header:
                raise ValueError("rows disagree on columns")
        lines = [",".join(header)]
        lines += [",".join(_format_cell(rec[key]) for key in header) for rec in records]
        return "\n".join(lines) + "\n"
    if format == "json":
        records = [_null_nonfinite(getattr(row, "to_record", row.record)()) for row in rows]
        return json.dumps(records, indent=2, allow_nan=False) + "\n"
    raise ValueError("format must be csv or json")


def emit(rows, format: str, path) -> None:
    """Write rows to ``path``; same rows and format give identical bytes."""
    text = render(rows, format)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
