"""Importance sampling with pruned (unequal) support.

Estimate an expectation under a target distribution from samples drawn
under a different sampling distribution. Alongside ordinary importance
sampling and the weighted (self-normalized) variant, the package
implements an estimator that discards samples outside a chosen pruning
set and rescales by that set's known probability mass, which can cut
variance by orders of magnitude when the target's support is much
smaller than the sampling distribution's.

Modules: ``densities`` (distributions, evaluation functions, estimation
problems), ``estimators`` (the three point estimators), ``moments``
(closed-form bias/variance catalog), ``bounds`` (Hoeffding confidence
bounds), ``experiments`` (seeded Monte Carlo harness and sweeps),
``config`` (YAML problem descriptions), ``cli`` (command line).
"""

from .bounds import (
    confidence_interval,
    hoeffding_is,
    hoeffding_margin,
    hoeffding_us,
    truncate_bound,
    weighted_range,
)
from .densities import (
    ControlVariateCoverageError,
    Density,
    EstimationProblem,
    EvaluationFunction,
    IntervalUnion,
    PiecewiseUniform,
    PruningCoverageError,
    SamplingSupportError,
    TruncatedNormal,
    UnequalSupportError,
    draw,
)
from .estimators import (
    ControlVariate,
    EstimateResult,
    estimate_all,
)
from .experiments import (
    SimulationResult,
    SweepRow,
    SyntheticReturnSurface,
    TrialStats,
    TrialWeights,
    coverage_experiment,
    emit,
    illustrative_problem,
    run_trials,
    simulate_estimates,
    summarize_trials,
    sweep_bounds,
    sweep_illustrative,
    sweep_treatment_surrogate,
    treatment_problem,
)
from .moments import (
    MomentInputs,
    MomentReport,
    binom_inv_moment,
    moment_report,
    property3_margin,
    rho,
    us_beats_is,
)

__version__ = "0.1.0"
