"""Point estimators of E_f[h(X)] from samples drawn under g.

Three estimators are provided:

* ``is_estimate``: ordinary importance sampling,
  t + (1/n) Σ (f(X_i)/g(X_i)) (h(X_i) − t).
* ``us_estimate``: importance sampling restricted to the pruning set C
  and rescaled by its mass c: t + (c/k) Σ_{X_i ∈ C} w_i (h(X_i) − t),
  defined only when k > 0 samples land in C.
* ``wis_estimate``: the self-normalized (weighted) variant,
  Σ w_i h(X_i) / Σ w_i.

Sums are accumulated with ``math.fsum`` so the exact-identity contracts
(C = G degeneracy, empirical-c equivalence) hold to 1e-12 relative error
even for batches of 10^6 samples.
"""

import math
from dataclasses import dataclass

import numpy as np

from .densities import (
    EstimationProblem,
    SampleBatch,
    SamplingSupportError,
    check_control_variate_coverage,
)

__all__ = [
    "ControlVariate",
    "EstimateResult",
    "importance_weight",
    "is_estimate",
    "us_estimate",
    "us_estimate_empirical_c",
    "wis_estimate",
    "count_in_c",
]


@dataclass(frozen=True)
class ControlVariate:
    """Constant subtracted from h before estimation and added back after."""

    t: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("control variate must be finite")


NO_CONTROL_VARIATE = ControlVariate(0.0)


@dataclass(frozen=True)
class EstimateResult:
    """An estimator value plus the in-C count and definedness flag.

    ``defined`` is False exactly when the estimator's convention value
    (zero) was substituted because no informative samples were available.
    """

    value: float
    k: int
    defined: bool


def importance_weight(problem: EstimationProblem, x) -> float | np.ndarray:
    """f(x)/g(x); raises if x is impossible under the sampling density."""
    gv = problem.sampling.pdf(x)
    if np.any(np.asarray(gv) <= 0.0):
        raise SamplingSupportError(
            "importance weight requested at a point with g(x) = 0"
        )
    out = problem.target.pdf(x) / gv
    return float(out) if np.isscalar(x) else out


def _terms(problem: EstimationProblem, batch: SampleBatch):
    return problem.batch_terms(batch.values)


def is_estimate(
    problem: EstimationProblem,
    batch: SampleBatch,
    cv: ControlVariate = NO_CONTROL_VARIATE,
) -> EstimateResult:
    """Ordinary importance sampling with an optional constant control variate."""
    w, h, in_c = _terms(problem, batch)
    t = cv.t
    value = t + math.fsum(w * (h - t)) / batch.n
    return EstimateResult(value=value, k=int(in_c.sum()), defined=True)


def us_estimate(
    problem: EstimationProblem,
    batch: SampleBatch,
    cv: ControlVariate = NO_CONTROL_VARIATE,
) -> EstimateResult:
    """Unequal-support estimate: prune to C, average, rescale by c.

    With a nonzero control variate the centered evaluation h − t is
    nonzero where h is zero, so C must cover all of F, not just F ∩ H;
    a sample outside C with f(x) != 0 raises
    :class:`ControlVariateCoverageError`.
    """
    w, h, in_c = _terms(problem, batch)
    t = cv.t
    check_control_variate_coverage(w, in_c, t)
    k = int(in_c.sum())
    if k == 0:
        return EstimateResult(value=0.0, k=0, defined=False)
    value = t + problem.c * math.fsum(w[in_c] * (h[in_c] - t)) / k
    return EstimateResult(value=value, k=k, defined=True)


def us_estimate_empirical_c(
    problem: EstimationProblem, batch: SampleBatch
) -> EstimateResult:
    """Unequal-support estimate with c replaced by its empirical estimate k/n.

    Algebraically identical to ordinary importance sampling without a
    control variate (the two rescalings cancel).
    """
    w, h, in_c = _terms(problem, batch)
    k = int(in_c.sum())
    if k == 0:
        return EstimateResult(value=0.0, k=0, defined=False)
    c_hat = k / batch.n
    value = c_hat * math.fsum(w[in_c] * h[in_c]) / k
    return EstimateResult(value=value, k=k, defined=True)


def wis_estimate(
    problem: EstimationProblem,
    batch: SampleBatch,
    cv: ControlVariate = NO_CONTROL_VARIATE,
) -> EstimateResult:
    """Weighted (self-normalized) importance sampling.

    The control variate is applied to h − t with t added back; for a
    constant t this is algebraically the plain weighted estimate, kept
    for uniformity with the other estimators. Returns the zero
    convention when every weight vanishes.
    """
    w, h, in_c = _terms(problem, batch)
    k = int(in_c.sum())
    weight_sum = math.fsum(w)
    if weight_sum <= 0.0:
        return EstimateResult(value=0.0, k=k, defined=False)
    t = cv.t
    value = t + math.fsum(w * (h - t)) / weight_sum
    return EstimateResult(value=value, k=k, defined=True)


def count_in_c(problem: EstimationProblem, batch: SampleBatch) -> int:
    """Number of batch samples inside the pruning set."""
    return int(problem.pruning.contains(batch.values).sum())
