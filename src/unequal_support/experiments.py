"""Monte Carlo harness: trial simulation, sweeps, and table emission.

Reproduces the quantitative pictures at desk scale: variance/MSE sweeps
of the two-uniform example across (F_max, theta, n), Hoeffding-bound
width and coverage sweeps, and a treatment-policy example over a fully
declared synthetic return surface (its numbers characterize the
surrogate itself, not any real system).

Every sweep's analytic inputs come from its problem: ``sampling_mean``
(E_g[h]) and ``moment_inputs`` ((theta, v)) sum over the problem's
terms, its cell table or Simpson nodes. The two analytic-vs-empirical
sweeps share one loop over (coordinate, problem, theta) points, and the
bound and coverage sweeps one bound-trial loop.

Reproducibility contract: every sweep derives one sub-seed per grid
point from the master seed, and each point's trials are generated in
fixed-size chunks, each drawing from its own PCG64DXSM stream seeded by
the SeedSequence of (point seed, chunk index). Statistics are reduced
in trial order, so a rerun with the same flags yields byte-identical
output, and a future parallel runner could own one chunk per worker
without changing any number.

A point takes one of three paths, chosen from its problem, n and trial
count alone:

- **Outcome table.** A piecewise-constant problem (one with a
  :class:`CellTable`, simulated without a return surface) whose m cells
  admit at most ``trials`` count vectors, math.comb(n + m - 1, m - 1),
  enumerates them once with their Multinomial(n, p) probabilities and
  estimates (:func:`outcome_table`). Each chunk of 4096 trials then
  draws one uniform per trial and maps it through the outcome CDF. The
  rule compares the table's O(outcomes) cost with the O(trials) cost of
  the per-trial draws it replaces, so it needs no setting.
- **Per-trial counts.** Any other piecewise-constant problem draws each
  of a chunk's 4096 trials' per-cell sample counts, Multinomial(n, p),
  and never the samples themselves, so a chunk costs O(trials x cells)
  time and memory whatever n is.
- **Samples.** Every other problem draws the samples of min(4096,
  CHUNK_ELEMENTS // n) trials per chunk, at least one, into a workspace
  allocated once per call, so its memory is bounded by a few arrays of
  CHUNK_ELEMENTS = 2**17 float64 values whatever n is; only n > 2**17
  holds more, one row of n samples.

Both cell paths give each count vector the same estimates, through
:func:`cell_estimates`, and run the same coverage checks on the cells
their trials hit.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import batch_estimates, cell_estimates, out_array
from .bounds import _margin, weighted_range
from .densities import (
    EstimationProblem,
    EvaluationFunction,
    PiecewiseUniform,
    PruningSet,
    TruncatedNormal,
    check_control_variate_coverage,
)
from .estimators import ControlVariate
from .moments import MomentInputs, MomentReport, moment_report, rho

__all__ = [
    "CHUNK_TRIALS",
    "CHUNK_ELEMENTS",
    "SimulationResult",
    "OutcomeTable",
    "TrialStats",
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
    """The stream of one chunk: PCG64DXSM seeded by (seed, chunk index)."""
    ss = np.random.SeedSequence([int(seed), int(chunk_index)])
    return np.random.Generator(np.random.PCG64DXSM(ss))


def _uniform_into(rng: np.random.Generator, low: float, high: float, out) -> np.ndarray:
    """``rng.uniform(low, high, out.shape)``, bit for bit, drawn into ``out``."""
    rng.random(out=out)
    out *= high - low
    out += low
    return out


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
    target = PiecewiseUniform.uniform(0.0, f_max)
    sampling = PiecewiseUniform.uniform(0.0, 2.0)
    evaluation = EvaluationFunction.piecewise_constant(
        [(0.0, f_max / 2.0, theta - 1.0), (f_max / 2.0, 2.0, theta + 1.0)]
    )
    pruning = PruningSet.from_intervals([(0.0, f_max)], sampling)
    return EstimationProblem(target, sampling, evaluation, pruning)


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

    ``marginal_return`` and ``observe`` compute their chains in place, in
    ``out`` when one is given and in a fresh array otherwise.
    """

    cr_low: float = 8.5
    cr_high: float = 11.0
    cf_low: float = 10.0
    cf_high: float = 15.0
    base_level: float = 0.85
    base_gain: float = 0.06
    tilt_amplitude: float = 0.01
    noise_scale: float = 0.03

    def marginal_return(self, cr, out=None) -> np.ndarray:
        cr = np.asarray(cr, dtype=float)
        span = self.cr_high - self.cr_low
        rel = np.subtract(self.cr_high, cr, out=out_array(cr.shape, out))
        rel /= span
        rel *= rel
        base = np.subtract(1.0, rel, out=rel)
        base *= self.base_gain
        base += self.base_level
        return base

    def _tilt(self, cf: np.ndarray) -> np.ndarray:
        """tilt(CF), computed over the array ``cf`` in place."""
        cf -= 0.5 * (self.cf_low + self.cf_high)
        cf *= self.tilt_amplitude
        cf /= 0.5 * (self.cf_high - self.cf_low)
        return cf

    def expected_return(self, cr, cf) -> np.ndarray:
        base = self.marginal_return(cr)
        base += self._tilt(np.array(cf, dtype=float))
        return base

    def observe(self, rng: np.random.Generator, cr: np.ndarray, out=None) -> np.ndarray:
        """Noisy per-day returns; draw order (CF, noise) is fixed.

        The same floating-point operations, in the same order, as
        ``expected_return(cr, cf) + eps`` with CF and eps drawn by
        ``rng.uniform``, so the values are bit-equal to that expression.
        """
        obs = self.marginal_return(cr, out=out)
        draws = np.empty_like(obs)
        obs += self._tilt(_uniform_into(rng, self.cf_low, self.cf_high, draws))
        obs += _uniform_into(rng, -self.noise_scale, self.noise_scale, draws)
        return obs

    @property
    def extra_variance(self) -> float:
        """Var(tilt) + Var(noise); both uniform, so amplitude^2 / 3 each."""
        return (self.tilt_amplitude**2 + self.noise_scale**2) / 3.0

    @property
    def return_bounds(self) -> tuple[float, float]:
        """Deterministic bounds on any observed return."""
        slack = self.tilt_amplitude + self.noise_scale
        return (self.base_level - slack, self.base_level + self.base_gain + slack)


def treatment_problem(
    cr_min: float, surface: SyntheticReturnSurface | None = None
) -> EstimationProblem:
    """Surrogate treatment study: uniform sampling, truncated-normal target.

    The sampling policy draws CR uniformly over [8.5, 11]; the target
    policy draws from a normal with mean 11 and standard deviation
    11 - cr_min truncated to [cr_min, 11]. Pruning to the target support
    gives c = (11 - cr_min)/2.5 exactly.
    """
    surface = surface or SyntheticReturnSurface()
    lo, hi = surface.cr_low, surface.cr_high
    if not lo <= cr_min < hi:
        raise ValueError(f"cr_min must lie in [{lo}, {hi})")
    sampling = PiecewiseUniform.uniform(lo, hi)
    target = TruncatedNormal(cr_min, hi, mean=hi, stddev=hi - cr_min)
    evaluation = EvaluationFunction(surface.marginal_return, [(lo, hi)])
    pruning = PruningSet.from_intervals([(cr_min, hi)], sampling)
    return EstimationProblem(target, sampling, evaluation, pruning)


# Simpson panels of a problem's terms when it has no cell table.
_QUAD_PANELS = 100_000


def _terms(problem: EstimationProblem):
    """(p, w, h, in_c) arrays: sum p phi(w, h, in_c) is the integral of
    g phi(f/g, h, [x in C]), exact when the problem has a cell table.

    Without one, the terms are read at composite Simpson nodes on each of
    the problem's support cells: an even share, at least 2, of
    ``_QUAD_PANELS`` panels by length, with end nodes one ulp inside so
    that each cell reads its own one-sided limits.
    """
    table = problem.cells
    if table is not None:
        return table.p, table.w, table.h, table.in_c
    lows, highs = problem.support_cells()
    share = (highs - lows) / (highs - lows).sum()
    panels = np.maximum(1, np.round(share * (_QUAD_PANELS // 2)).astype(int)) * 2
    ends = np.cumsum(panels + 1)
    x, q = np.empty(ends[-1]), np.empty(ends[-1])
    for lo, hi, m, b in zip(lows, highs, panels, ends):
        a = b - m - 1
        x[a:b] = np.linspace(lo, hi, m + 1)
        x[a], x[b - 1] = np.nextafter(lo, hi), np.nextafter(hi, lo)
        # Simpson weights (hi - lo)/(3m) times 1, 4, 2, 4, ..., 2, 4, 1.
        q[a:b:2], q[a + 1 : b : 2] = 2.0, 4.0
        q[a] = q[b - 1] = 1.0
        q[a:b] *= (hi - lo) / (3 * m)
    return problem.node_terms(x, q)


def _mean_h(terms) -> float:
    p, _, h, _ = terms
    return float((p * h).sum())


def _theta_v(terms, c: float, t: float, surface) -> tuple[float, float]:
    p, w, h, in_c = terms
    theta = float((p * w * h).sum())
    p_c, w_c = p[in_c], w[in_c]
    wh = w_c * (h[in_c] - t)
    m = (p_c * wh).sum() / c
    v = (p_c * (wh - m) ** 2).sum() / c
    if surface is not None:
        v += surface.extra_variance * (p_c * w_c * w_c).sum() / c
    return theta, float(v)


def sampling_mean(problem: EstimationProblem) -> float:
    """E_g[h], the natural constant control variate: sum p h over the
    problem's terms, its cell table or Simpson nodes."""
    return _mean_h(_terms(problem))


def moment_inputs(
    problem: EstimationProblem,
    t: float = 0.0,
    surface: SyntheticReturnSurface | None = None,
) -> tuple[float, float]:
    """(theta, v) for the analytic catalog, from the problem's terms.

    theta = E_f[h] = sum p w h, whatever t is. v is the variance of one
    centered term w (h - t) given X in C, summed about its mean
    m = sum_C p w (h - t) / c, so it is no difference of nearly equal
    integrals. A return surface adds its CF tilt and day noise as
    extra_variance * sum_C p w^2 / c.
    """
    return _theta_v(_terms(problem), problem.c, t, surface)


# ---------------------------------------------------------------------------
# Trial simulation and summaries


@dataclass(frozen=True)
class SimulationResult:
    """Per-trial estimator values over one grid point's Monte Carlo run."""

    is_values: np.ndarray
    us_values: np.ndarray
    wis_values: np.ndarray
    k: np.ndarray
    wis_defined: np.ndarray

    @property
    def us_defined(self) -> np.ndarray:
        return self.k > 0


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


@dataclass(frozen=True)
class OutcomeTable:
    """Every outcome of one batch of n samples on a cell problem.

    ``counts`` holds the per-cell count vectors in lexicographic order,
    ``pmf`` the Multinomial(n, p) probability of each, and ``values``
    each one's (IS, US, WIS, k, WIS-defined), computed by
    :func:`cell_estimates` exactly as for a drawn count vector.
    """

    counts: np.ndarray
    pmf: np.ndarray
    values: SimulationResult


def outcome_table(problem: EstimationProblem, n: int, t: float = 0.0) -> OutcomeTable:
    """The problem's :class:`OutcomeTable` at batch size n and control
    variate t. Raises ValueError unless the problem has a cell table."""
    table = problem.cells
    if table is None:
        raise ValueError("an outcome table needs a piecewise-constant problem")
    m = table.p.size
    counts = _compositions(n, m)
    log_pmf = counts @ np.log(table.p)
    if m > 1:
        # log n! - sum_j log c_j!, read off one table of log k! for k <= n
        # (one cell has one outcome, whose coefficient is 1).
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
        log_pmf += log_fact[n] - log_fact[counts].sum(axis=1)
    values = cell_estimates(counts, n, table.w, table.h, table.in_c, problem.c, t)
    return OutcomeTable(counts, np.exp(log_pmf), SimulationResult(*values))


def _draw_outcomes(
    problem: EstimationProblem, n: int, trials: int, seed: int, t: float
) -> SimulationResult:
    """``trials`` outcomes of the problem's table, one uniform per trial.

    Each chunk of CHUNK_TRIALS trials maps its uniforms through the
    outcome CDF; an outcome of pmf 0 has an empty CDF step and is never
    drawn, and a uniform that rounds onto the top of the CDF takes the
    last outcome of positive pmf.
    """
    table = outcome_table(problem, n, t)
    cdf = np.cumsum(table.pmf)
    picks = []
    for chunk in range(-(-trials // CHUNK_TRIALS)):
        rows = min(CHUNK_TRIALS, trials - chunk * CHUNK_TRIALS)
        u = _chunk_rng(seed, chunk).random(rows)
        picks.append(np.searchsorted(cdf, u * cdf[-1], side="right"))
    index = np.minimum(np.concatenate(picks), np.flatnonzero(table.pmf)[-1])
    drawn = np.zeros(table.pmf.size, dtype=bool)
    drawn[index] = True
    problem.cells.check_coverage(table.counts[drawn], t)
    v = table.values
    return SimulationResult(
        v.is_values[index], v.us_values[index], v.wis_values[index],
        v.k[index], v.wis_defined[index],
    )


def simulate_estimates(
    problem: EstimationProblem,
    n: int,
    trials: int,
    seed: int,
    t: float = 0.0,
    surface: SyntheticReturnSurface | None = None,
) -> SimulationResult:
    """All three estimators over ``trials`` independent batches of size n.

    A piecewise-constant problem is simulated from its outcome table
    when it has at most ``trials`` outcomes and from per-trial cell
    counts otherwise; any other problem from its samples (see the
    module docstring). The sample path allocates its workspace once per
    call: (rows, n) float64 arrays for x, the observations, the weights
    and one scratch, with rows = min(CHUNK_TRIALS, max(1, CHUNK_ELEMENTS //
    n)), and every chunk writes into prefix views of it. Its peak memory
    is therefore a few times CHUNK_ELEMENTS values plus O(trials) for the
    results, whatever n is; for n > CHUNK_ELEMENTS a chunk is one row of
    n samples. When a return surface is given, its noisy observations
    take the place of the deterministic evaluation (the surrogate-study
    path): each chunk draws x, then the surface's observations (CF, then
    noise), and h is never evaluated. Weights and pruning membership
    still come from the problem. A batch with f(x)h(x) != 0 outside C
    raises :class:`PruningCoverageError`; on the surface path the check
    reads f(x) times the observed value instead. With t != 0 a batch
    with f(x) != 0 outside C raises :class:`ControlVariateCoverageError`.
    """
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    table = problem.cells if surface is None else None
    m = 0 if table is None else table.p.size
    if m and math.comb(n + m - 1, m - 1) <= trials:
        return _draw_outcomes(problem, n, trials, seed, t)
    if table is None:
        chunk_rows = min(CHUNK_TRIALS, max(1, CHUNK_ELEMENTS // n), trials)
        x_buf, obs_buf, w_buf, scratch = np.empty((4, chunk_rows, n))
    else:
        chunk_rows = CHUNK_TRIALS
    parts = []
    n_chunks = -(-trials // chunk_rows)
    for chunk in range(n_chunks):
        rows = min(chunk_rows, trials - chunk * chunk_rows)
        rng = _chunk_rng(seed, chunk)
        if table is not None:
            counts = rng.multinomial(n, table.p, size=rows)
            table.check_coverage(counts, t)
            parts.append(
                cell_estimates(counts, n, table.w, table.h, table.in_c, problem.c, t)
            )
            continue
        x = problem.sampling.sample(rng, (rows, n), out=x_buf[:rows])
        observed = (
            None if surface is None else surface.observe(rng, x, out=obs_buf[:rows])
        )
        w, hv, in_c = problem.batch_terms(x, observed, out=w_buf[:rows])
        check_control_variate_coverage(w, in_c, t)
        parts.append(batch_estimates(w, hv, in_c, problem.c, t, out=scratch[:rows]))
    cols = [np.concatenate([p[i] for p in parts]) for i in range(5)]
    return SimulationResult(*cols)


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


def _moment_block(values: np.ndarray, theta: float) -> tuple[float, ...]:
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
    mse = float(sq_err.mean())
    se_mean = math.sqrt(variance / count)
    se_variance = math.sqrt(max(fourth - variance * variance, 0.0) / count)
    se_mse = float(sq_err.std(ddof=1)) / math.sqrt(count)
    return mean, variance, mse, se_mean, se_variance, se_mse


def summarize_trials(
    label: str,
    values: np.ndarray,
    theta: float,
    defined: np.ndarray,
    positive: np.ndarray,
) -> TrialStats:
    """Mean/variance/MSE with standard errors, plus the k > 0 restriction."""
    values = np.asarray(values, dtype=float)
    trials = values.size
    uncond = _moment_block(values, theta)
    cond = _moment_block(values[positive], theta)
    p_undef = float(1.0 - np.mean(defined))
    se_undef = math.sqrt(max(p_undef * (1.0 - p_undef), 0.0) / trials)
    return TrialStats(
        label,
        trials,
        *uncond,
        int(np.count_nonzero(positive)),
        *cond,
        p_undef,
        se_undef,
    )


def run_trials(
    problem: EstimationProblem,
    n: int,
    trials: int,
    theta_true: float,
    cv: ControlVariate = ControlVariate(0.0),
    seed: int = 0,
    surface: SyntheticReturnSurface | None = None,
) -> dict[str, TrialStats]:
    """TrialStats for IS, US, and WIS over independent seeded batches."""
    sim = simulate_estimates(problem, n, trials, seed, t=cv.t, surface=surface)
    positive = sim.us_defined
    all_defined = np.ones(trials, dtype=bool)
    return {
        "IS": summarize_trials("IS", sim.is_values, theta_true, all_defined, positive),
        "US": summarize_trials("US", sim.us_values, theta_true, positive, positive),
        "WIS": summarize_trials(
            "WIS", sim.wis_values, theta_true, sim.wis_defined, positive
        ),
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

    def record(self) -> dict:
        a, e = self.analytic, self.empirical
        out = {
            self.coord_name: self.coord,
            "theta": self.theta,
            "n": self.n,
            "c": self.c,
            "v": self.v,
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
            self.coord_name: self.coord,
            "theta": self.theta,
            "n": self.n,
            "c": self.c,
            "v": self.v,
            "t": self.t,
            "seed": self.seed,
            "analytic": {
                key: dict(report.__dict__) for key, report in self.analytic.items()
            },
            "empirical": {
                key: stats.to_record() for key, stats in self.empirical.items()
            },
        }


def _sweep(
    coord_name, points, n_grid, trials, seed, cv_mode, surface=None
) -> list[SweepRow]:
    """One SweepRow per (point, n), for (coordinate, problem, theta) points.

    Each point's control variate (``none``, ``value:<real>`` or
    ``sampling-mean``, E_g[h]), conditional term variance v and, when the
    point gives None, theta come from one build of its problem's terms;
    grid points take sub-seeds in (point, n) order. Raises ValueError
    when there is no grid point.
    """
    rows = []
    index = 0
    for coord, problem, theta in points:
        terms = _terms(problem)
        cv = ControlVariate.from_spec(cv_mode, lambda: _mean_h(terms))
        derived, v = _theta_v(terms, problem.c, cv.t, surface)
        theta = derived if theta is None else theta
        # Held across the simulation, a Simpson table's 2.5 MB made the
        # allocator return and re-fault the chunk temporaries' memory.
        del terms
        for n in n_grid:
            point_seed = derive_seed(seed, index)
            index += 1
            analytic = analytic_reports(n, problem.c, v, theta, cv.t)
            empirical = run_trials(
                problem, n, trials, theta, cv, point_seed, surface=surface
            )
            rows.append(
                SweepRow(
                    coord_name, coord, theta, n, problem.c, v, cv.t, point_seed,
                    analytic, empirical,
                )
            )
    if not rows:
        raise ValueError("grids must be nonempty")
    return rows


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
    theta_grid, n_grid = list(theta_grid), list(n_grid)
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
    surface: SyntheticReturnSurface | None = None,
) -> list[SweepRow]:
    """One SweepRow per cr_min under the synthetic return surface.

    Ground truth theta and the conditional term variance come from
    Simpson quadrature over the problem's terms, so the analytic columns
    are exact for the surrogate itself (they describe no external
    system). ``cv_mode = sampling-mean`` uses the expected return under
    the sampling policy as the control variate.
    """
    surface = surface or SyntheticReturnSurface()
    points = ((cr, treatment_problem(cr, surface), None) for cr in cr_min_grid)
    return _sweep("cr_min", points, [n], trials, seed, cv_mode, surface)


# ---------------------------------------------------------------------------
# Bound sweeps


def _bound_trials(
    f_max: float, n_grid, delta: float, trials: int, seed: int, theta: float
):
    """Per n of the two-uniform example: the fields every bound row shares
    (n, delta, theta, c, b, seed), the simulation, the IS margin and the
    per-trial US margins, each margin for one 1 - delta side."""
    n_grid = list(n_grid)
    if not n_grid:
        raise ValueError("n grid must be nonempty")
    problem = illustrative_problem(f_max, theta)
    b = weighted_range(problem)
    c = problem.c
    for index, n in enumerate(n_grid):
        point_seed = derive_seed(seed, index)
        sim = simulate_estimates(problem, n, trials, point_seed)
        shared = dict(n=n, delta=delta, theta=theta, c=c, b=b, seed=point_seed)
        us_margin = _margin(c * b, delta, np.maximum(sim.k, 1))
        yield shared, sim, _margin(b, delta, n), us_margin


def _mean_or_nan(values: np.ndarray) -> float:
    """Mean of a US-side column's values over the trials with k > 0; NaN,
    without numpy's empty-mean warning, when there are none."""
    return float(np.mean(values)) if values.size else math.nan


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
    rows = []
    for shared, sim, is_margin, us_margin in _bound_trials(
        f_max, n_grid, delta, trials, seed, theta
    ):
        defined = sim.us_defined
        us_values = sim.us_values[defined]
        us_margins = us_margin[defined]
        rows.append(
            BoundsSweepRow(
                **shared,
                mean_is_lower=float(np.mean(sim.is_values - is_margin)),
                mean_is_upper=float(np.mean(sim.is_values + is_margin)),
                mean_us_lower=_mean_or_nan(us_values - us_margins),
                mean_us_upper=_mean_or_nan(us_values + us_margins),
                empirical_rho=float(np.mean(defined)),
                analytic_rho=rho(shared["n"], shared["c"]),
            )
        )
    return rows


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
    rows = []
    for shared, sim, is_margin, us_margin in _bound_trials(
        f_max, n_grid, delta, trials, seed, theta
    ):
        defined = sim.us_defined
        cover_is = float(np.mean(sim.is_values - is_margin <= theta))
        cover_us = _mean_or_nan((sim.us_values - us_margin)[defined] <= theta)
        mean_k = float(sim.k.mean())
        mean_margin_us = _mean_or_nan(us_margin[defined])
        # mean_k is 0 exactly when no trial has k > 0.
        predicted = math.nan
        if mean_k:
            predicted = shared["c"] * math.sqrt(shared["n"] / mean_k)
        rows.append(
            CoverageRow(
                **shared,
                coverage_is=cover_is,
                coverage_us=cover_us,
                mean_margin_is=is_margin,
                mean_margin_us=mean_margin_us,
                margin_ratio=mean_margin_us / is_margin,
                predicted_ratio=predicted,
                mean_k=mean_k,
                undefined_rate=float(1.0 - np.mean(defined)),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Emission


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def render(rows, format: str) -> str:
    """Deterministic CSV or JSON text for a list of row objects.

    CSV takes each row's flat ``record()``. JSON takes the nested
    ``to_record()`` where a row defines one (:class:`SweepRow`) and the
    flat record otherwise.
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
        records = [getattr(row, "to_record", row.record)() for row in rows]
        return json.dumps(records, indent=2) + "\n"
    raise ValueError("format must be csv or json")


def emit(rows, format: str, path) -> None:
    """Write rows to ``path``; same rows and format give identical bytes."""
    text = render(rows, format)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
