"""Point estimators of E_f[h(X)] from samples drawn under g.

Three estimators are provided:

* ``is_estimate``: ordinary importance sampling,
  t + (1/n) Σ (f(X_i)/g(X_i)) (h(X_i) − t).
* ``us_estimate``: importance sampling restricted to the pruning set C
  and rescaled by its mass c: t + (c/k) Σ_{X_i ∈ C} w_i (h(X_i) − t),
  defined only when k > 0 samples land in C.
* ``wis_estimate``: the self-normalized (weighted) variant,
  Σ w_i h(X_i) / Σ w_i.

Each is a view of :func:`unequal_support._kernels.batch_estimates` on
the batch as a single row, so the formulas and their zero conventions
(US is 0 when k = 0, WIS is 0 when every weight vanishes) exist once and
the scalar and batched paths agree by construction. ``estimate_all``
returns all three from one evaluation of the batch.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import batch_estimates
from .densities import (
    EstimationProblem,
    SampleBatch,
    SamplingSupportError,
    check_control_variate_coverage,
)

__all__ = [
    "ControlVariate",
    "EstimateResult",
    "estimate_all",
    "importance_weight",
    "is_estimate",
    "us_estimate",
    "us_estimate_empirical_c",
    "wis_estimate",
]


@dataclass(frozen=True)
class ControlVariate:
    """Constant subtracted from h before estimation and added back after."""

    t: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("control variate must be finite")

    @classmethod
    def from_spec(
        cls, spec: str, sampling_mean: Callable[[], float]
    ) -> "ControlVariate":
        """Parse ``none``, ``value:<real>`` or ``sampling-mean``.

        ``sampling_mean`` returns E_g[h] and is called only for
        ``sampling-mean``; any other spec raises ValueError.
        """
        if spec == "none":
            return cls(0.0)
        if spec == "sampling-mean":
            return cls(sampling_mean())
        if spec.startswith("value:"):
            return cls(float(spec.split(":", 1)[1]))
        raise ValueError("cv must be none, value:<real>, or sampling-mean")


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


def _row(
    problem: EstimationProblem,
    batch: SampleBatch,
    c: float,
    t: float,
    cv_coverage: bool = False,
) -> dict[str, EstimateResult]:
    """``{"IS", "US", "WIS"}`` of the batch as one (1, n) kernel row.

    With ``cv_coverage`` the batch must also pass the control-variate
    coverage check.
    """
    w, hv, in_c = problem.batch_terms(batch.values[None, :])
    if cv_coverage:
        check_control_variate_coverage(w, in_c, t)
    is_value, us_value, wis_value, k, wis_defined = (
        x[0].item() for x in batch_estimates(w, hv, in_c, c, t)
    )
    return {
        "IS": EstimateResult(value=is_value, k=k, defined=True),
        "US": EstimateResult(value=us_value, k=k, defined=k > 0),
        "WIS": EstimateResult(value=wis_value, k=k, defined=wis_defined),
    }


def estimate_all(
    problem: EstimationProblem,
    batch: SampleBatch,
    cv: ControlVariate = NO_CONTROL_VARIATE,
) -> dict[str, EstimateResult]:
    """``{"IS", "US", "WIS"}`` estimates from one evaluation of the batch.

    The batch must pass the control-variate coverage check of
    :func:`us_estimate`, which IS and WIS alone do not need.
    """
    return _row(problem, batch, problem.c, cv.t, cv_coverage=True)


def is_estimate(
    problem: EstimationProblem,
    batch: SampleBatch,
    cv: ControlVariate = NO_CONTROL_VARIATE,
) -> EstimateResult:
    """Ordinary importance sampling with an optional constant control variate."""
    return _row(problem, batch, problem.c, cv.t)["IS"]


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
    return estimate_all(problem, batch, cv)["US"]


def us_estimate_empirical_c(
    problem: EstimationProblem, batch: SampleBatch
) -> EstimateResult:
    """Unequal-support estimate with c replaced by its empirical estimate k/n.

    Algebraically identical to ordinary importance sampling without a
    control variate (the two rescalings cancel): the US row with c = 1
    and t = 0, scaled by k/n.
    """
    us = _row(problem, batch, 1.0, 0.0)["US"]
    return EstimateResult(value=us.k / batch.n * us.value, k=us.k, defined=us.defined)


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
    return _row(problem, batch, problem.c, cv.t)["WIS"]
