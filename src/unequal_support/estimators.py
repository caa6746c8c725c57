"""Point estimators of E_f[h(X)] from samples drawn under g.

``estimate_all`` returns three estimates of one batch, the 1-D array
of draws X_1..X_n from g, with weights w_i = f(X_i)/g(X_i) and a
constant control variate t:

* ``"IS"``: ordinary importance sampling, t + (1/n) Σ w_i (h(X_i) − t).
* ``"US"``: importance sampling restricted to the pruning set C and
  rescaled by c, C's mass under g, which the problem derives:
  t + (c/k) Σ_{X_i ∈ C} w_i (h(X_i) − t), defined only when k > 0
  samples land in C.
* ``"WIS"``: the self-normalized (weighted) variant,
  Σ w_i h(X_i) / Σ w_i.

It is :func:`unequal_support._kernels.segment_estimates` on the batch
as one trial of one segment, and its coverage checks are those of
:meth:`~unequal_support.densities.EstimationProblem.batch_terms`, so the
formulas, their zero conventions (US is 0 when k = 0, WIS is 0 when
every weight vanishes) and the errors they raise exist once, and a
batch summed as one segment gets the same bits on either path. The
checks leave w (h − t) = 0 outside C, so the sum over C is the IS sum;
replacing c by its empirical estimate k/n therefore turns US back into
IS.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import segment_estimates
from .densities import EstimationProblem

__all__ = [
    "ControlVariate",
    "EstimateResult",
    "estimate_all",
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


def estimate_all(
    problem: EstimationProblem,
    values: np.ndarray,
    cv: ControlVariate = NO_CONTROL_VARIATE,
) -> dict[str, EstimateResult]:
    """``{"IS", "US", "WIS"}`` of one batch, the 1-D array ``values`` of
    n >= 1 draws from g, as one kernel segment.

    The batch must pass the coverage checks of
    :meth:`EstimationProblem.batch_terms`. With a nonzero control
    variate the centered evaluation h − t is nonzero where h is zero,
    so C must cover all of F, not just F ∩ H; a sample outside C with
    f(x) != 0 raises :class:`ControlVariateCoverageError`.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise ValueError("values must be a 1-D array of at least one sample")
    n = values.size
    w, centered, in_c = problem.batch_terms(values, t=cv.t)
    is_value, us_value, wis_value, k, wis_defined = (
        x[0].item()
        for x in segment_estimates(
            centered, w, [[n]], [np.count_nonzero(in_c)], n, problem.c, cv.t
        )
    )
    return {
        "IS": EstimateResult(value=is_value, k=k, defined=True),
        "US": EstimateResult(value=us_value, k=k, defined=k > 0),
        "WIS": EstimateResult(value=wis_value, k=k, defined=wis_defined),
    }
