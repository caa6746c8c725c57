"""High-confidence bounds on the target expectation via Hoeffding's inequality.

For an average of m i.i.d. variables with range b', a 1 - delta
one-sided bound sits b' sqrt(ln(1/delta) / (2m)) away from the
empirical mean. The ordinary estimator averages n variables of range b
(the range of f h / g over the sampling support); the pruned estimator
averages its k in-C variables, whose range contracts to c b, so its
margin tends to be tighter when c is small even though k <= n.

``b`` is caller-supplied because no library can bound an arbitrary h;
:func:`weighted_range` computes it exactly for the built-in
piecewise-uniform densities with step evaluation functions.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .densities import EstimationProblem
from .estimators import EstimateResult

__all__ = [
    "BoundRequest",
    "BoundResult",
    "SIDES",
    "hoeffding_is",
    "hoeffding_us",
    "truncate_bound",
    "confidence_interval",
    "weighted_range",
]

SIDES = ("lower", "upper")


@dataclass(frozen=True)
class BoundRequest:
    """Inputs for one one-sided bound.

    ``b`` is the range (max minus min) of f(x)h(x)/g(x) over the
    sampling support, not a magnitude bound; for sign-changing
    integrands the two differ by up to a factor of two.
    """

    estimate: EstimateResult
    b: float
    c: float
    n: int
    delta: float
    side: str

    def __post_init__(self):
        # Not b < 0: NaN must fail too.
        if not self.b >= 0.0:
            raise ValueError("b must be nonnegative")
        if not 0.0 < self.c <= 1.0:
            raise ValueError("c must lie in (0, 1]")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")


@dataclass(frozen=True)
class BoundResult:
    """One one-sided bound; ``defined`` is False when no data landed in C.

    An undefined bound carries value NaN until
    :func:`truncate_bound` substitutes the conservative deterministic
    bound for its side.
    """

    value: float
    defined: bool
    method: str
    side: str


def _margin(scale, delta: float, m):
    """Hoeffding margin scale * sqrt(ln(1/delta) / (2m)); scale and m may
    be arrays."""
    return scale * np.sqrt(math.log(1.0 / delta) / (2.0 * m))


def _signed(estimate: float, margin: float, side: str) -> float:
    return estimate - margin if side == "lower" else estimate + margin


def _bound(req: BoundRequest, scale: float, m: int, method: str) -> BoundResult:
    """The defined bound at the Hoeffding margin of m variables of range scale."""
    margin = _margin(scale, req.delta, m)
    return BoundResult(
        value=_signed(req.estimate.value, margin, req.side),
        defined=True,
        method=method,
        side=req.side,
    )


def hoeffding_is(req: BoundRequest) -> BoundResult:
    """One-sided bound from the ordinary estimate over all n samples."""
    return _bound(req, req.b, req.n, "IS-hoeffding")


def hoeffding_us(req: BoundRequest, k: int) -> BoundResult:
    """One-sided bound from the pruned estimate over its k in-C samples.

    The k averaged variables have range c * b, giving margin
    c b sqrt(ln(1/delta)/(2k)). With k = 0 there is nothing to bound;
    the result is undefined and the caller may substitute a known
    deterministic bound via :func:`truncate_bound`.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return BoundResult(
            value=math.nan, defined=False, method="US-hoeffding", side=req.side
        )
    return _bound(req, req.c * req.b, k, "US-hoeffding")


def truncate_bound(res: BoundResult, h_lo: float, h_hi: float) -> BoundResult:
    """Clamp a bound into the deterministic range of the evaluation.

    Whatever the samples say, the target expectation lies in
    [h_lo, h_hi]; bounds outside that range are vacuous and are pulled
    back to it. Undefined bounds become the conservative endpoint for
    their side but keep defined = False so callers can still count them.
    """
    if h_lo > h_hi:
        raise ValueError("h_lo must be <= h_hi")
    if not res.defined:
        return replace(res, value=h_lo if res.side == "lower" else h_hi)
    return replace(res, value=min(max(res.value, h_lo), h_hi))


def confidence_interval(
    estimate: EstimateResult,
    b: float,
    c: float,
    n: int,
    delta: float,
    method: str = "IS",
) -> tuple[BoundResult, BoundResult]:
    """Two-sided 1 - delta interval, spending delta/2 per side."""
    if method not in ("IS", "US"):
        raise ValueError("method must be 'IS' or 'US'")
    half = delta / 2.0
    out = []
    for side in SIDES:
        req = BoundRequest(estimate=estimate, b=b, c=c, n=n, delta=half, side=side)
        if method == "IS":
            out.append(hoeffding_is(req))
        else:
            out.append(hoeffding_us(req, estimate.k))
    return out[0], out[1]


def weighted_range(problem: EstimationProblem, t: float = 0.0) -> float:
    """Exact range of f(x)(h(x) - t)/g(x) over the sampling support.

    Only piecewise-uniform target and sampling densities with a step
    evaluation function are supported; the integrand is then constant on
    each cell of the problem's :class:`CellTable`. Cells where f vanishes contribute the value 0,
    which widens the range of sign-changing integrands past any closed
    form based on max |h| alone.
    """
    table = problem.cells
    if table is None:
        raise TypeError(
            "weighted_range needs piecewise-uniform target and sampling "
            "and a piecewise-constant evaluation"
        )
    values = table.w * (table.h - t)
    return float(values.max() - values.min())
