"""High-confidence bounds on the target expectation via Hoeffding's inequality.

For an average of m i.i.d. variables with range b', a 1 - delta
one-sided bound sits b' sqrt(ln(1/delta) / (2m)) away from the
empirical mean (:func:`hoeffding_margin`). The ordinary estimator
averages n variables of range b (the range of f h / g over the sampling
support): :func:`hoeffding_is`. The pruned estimator averages its k
in-C variables, whose range contracts to c b, so its margin tends to be
tighter when c is small even though k <= n: :func:`hoeffding_us`.

Every function takes plain floats or NumPy arrays (estimates and counts
broadcast) and returns the same. With no variables to average (k = 0)
the margin and both bounds are NaN: the bound is undefined, and
:func:`truncate_bound` replaces it with the deterministic endpoint for
its side. :func:`confidence_interval` gives the two-sided interval,
spending delta/2 per side.

``b`` is caller-supplied because no library can bound an arbitrary h;
:func:`weighted_range` computes it exactly, from the cells' terms, for
a problem that is piecewise-constant and has no return surface. It is
the range (max minus min) of f(x)h(x)/g(x), uncentered because the
bound sweeps run without a control variate, and not a magnitude bound;
for sign-changing integrands the two differ by up to a factor of two.
"""

import math

import numpy as np

from .densities import EstimationProblem

__all__ = [
    "hoeffding_margin",
    "hoeffding_is",
    "hoeffding_us",
    "truncate_bound",
    "confidence_interval",
    "weighted_range",
]


def hoeffding_margin(b: float, m, delta: float):
    """b sqrt(ln(1/delta) / (2m)): the one-sided 1 - delta Hoeffding
    margin of a mean of m variables of range b.

    ``m`` may be an array of counts. Where m = 0 there is nothing to
    average and the margin is NaN, the mark of an undefined bound.
    """
    # Not b < 0 or b == inf: NaN must fail too.
    if not 0.0 <= b < math.inf:
        raise ValueError("b must be nonnegative and finite")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    m = np.asarray(m)
    if (m < 0).any():
        raise ValueError("m must be nonnegative")
    # ln(1/delta)/2 is exact, so its quotient by m rounds as ln(1/delta)/(2m).
    return b * np.sqrt(math.log(1.0 / delta) / 2.0 / np.where(m > 0, m, np.nan))


def hoeffding_is(estimate, b: float, n, delta: float):
    """(lower, upper): the two one-sided 1 - delta bounds around the
    ordinary estimate of n samples."""
    margin = hoeffding_margin(b, n, delta)
    return estimate - margin, estimate + margin


def hoeffding_us(estimate, b: float, c: float, k, delta: float):
    """(lower, upper): the two one-sided 1 - delta bounds around the
    pruned estimate of k in-C samples, whose range is c b; NaN where
    k = 0."""
    if not 0.0 < c <= 1.0:
        raise ValueError("c must lie in (0, 1]")
    margin = hoeffding_margin(c * b, k, delta)
    return estimate - margin, estimate + margin


def truncate_bound(lower, upper, h_lo: float, h_hi: float):
    """(lower, upper) clamped into the deterministic range of the evaluation.

    Whatever the samples say, the target expectation lies in
    [h_lo, h_hi]; bounds outside that range are vacuous and are pulled
    back to it. An undefined (NaN) bound becomes the conservative
    endpoint for its side: fmax and fmin return the number when the
    other operand is NaN.
    """
    if not h_lo <= h_hi:
        raise ValueError("h_lo must be <= h_hi")
    return np.fmin(np.fmax(lower, h_lo), h_hi), np.fmax(np.fmin(upper, h_hi), h_lo)


def confidence_interval(
    estimate, b: float, c: float, n, k, delta: float, method: str = "IS"
):
    """Two-sided 1 - delta interval (lower, upper), spending delta/2 per
    side; ``method`` "IS" bounds the ordinary estimate of n samples, "US"
    the pruned estimate of k in-C samples."""
    # Checked before halving: delta/2 lies in (0, 1] for delta up to 2.
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if method == "IS":
        return hoeffding_is(estimate, b, n, delta / 2.0)
    if method == "US":
        return hoeffding_us(estimate, b, c, k, delta / 2.0)
    raise ValueError("method must be 'IS' or 'US'")


def weighted_range(problem: EstimationProblem) -> float:
    """Exact range of f(x)h(x)/g(x) over the sampling support.

    Only a ``piecewise_constant`` problem is supported, whose integrand
    is constant on each cell, one of its ``terms``; a return surface's
    observed returns would stand in for h. Cells where f vanishes
    contribute the value 0, which widens the range of sign-changing
    integrands past any closed form based on max |h| alone; a range
    that is not finite raises ValueError.
    """
    if not problem.piecewise_constant:
        raise TypeError(
            "weighted_range needs piecewise-uniform target and sampling, "
            "a piecewise-constant evaluation and no return surface"
        )
    _, w, h, _ = problem.terms
    with np.errstate(over="ignore", invalid="ignore"):
        values = w * h
        b = float(values.max() - values.min())
    if not math.isfinite(b):
        raise ValueError("b must be nonnegative and finite")
    return b
