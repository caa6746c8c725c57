"""Closed-form moments of the IS and US estimators.

Every cell of the bias/variance catalog is available through
:func:`moment_report` under three conditioning regimes:

* ``unconditional``: over all batches, with the US zero convention in force;
* ``conditioned-positive``: given at least one sample landed in C (k > 0);
* ``conditioned-exact``: given exactly k = kappa samples landed in C
  (mean and bias only; no closed-form variance exists in this regime).

The two scalar building blocks are ``rho``, the probability that a batch
is nonempty after pruning, and ``binom_inv_moment``, the conditional
inverse moment E[1/K | K > 0] for K ~ Binomial(n, c).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MomentInputs",
    "MomentReport",
    "ESTIMATORS",
    "REGIMES",
    "rho",
    "binom_inv_moment",
    "moment_report",
    "us_beats_is",
    "property3_margin",
]

ESTIMATORS = ("IS", "US")
REGIMES = ("unconditional", "conditioned-positive", "conditioned-exact")


def _validate_nc(n: int, c: float) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not 0.0 < c <= 1.0:
        raise ValueError("c must lie in (0, 1]")


@dataclass(frozen=True)
class MomentInputs:
    """Problem constants the closed forms depend on.

    ``v`` is the variance of a single importance-sampling term
    f(X)/g(X) h(X) conditioned on X landing in C. ``kappa`` is only
    meaningful for the conditioned-exact regime.

    ``rho`` and ``inv_moment`` are derived from (n, c) on first use and
    kept, so every catalog cell read from one instance shares them.
    """

    n: int
    c: float
    v: float
    theta: float
    kappa: int | None = None

    def __post_init__(self):
        _validate_nc(self.n, self.c)
        # Not v < 0: NaN must fail too.
        if not self.v >= 0.0:
            raise ValueError("v must be nonnegative")
        if not math.isfinite(self.v):
            raise ValueError("v must be finite")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.kappa is not None and not 1 <= self.kappa <= self.n:
            raise ValueError("kappa must lie in [1, n]")

    # cached_property writes the instance __dict__ directly, which a
    # frozen dataclass allows. Both call the module-level functions by
    # name, so a caller that replaces them on the module is seen.
    @functools.cached_property
    def rho(self) -> float:
        """rho(n, c): the probability that a batch is nonempty."""
        return rho(self.n, self.c)

    @functools.cached_property
    def inv_moment(self) -> float:
        """binom_inv_moment(n, c): E[1/K | K > 0] for K ~ Binomial(n, c)."""
        return binom_inv_moment(self.n, self.c)


@dataclass(frozen=True)
class MomentReport:
    """Analytic mean/bias/variance/MSE of one estimator in one regime.

    ``variance`` and ``mse`` are None in the conditioned-exact regime,
    where only the conditional mean has a closed form. Bias and MSE are
    always taken about the true value theta, not about any conditional
    mean.
    """

    estimator: str
    regime: str
    mean: float
    bias: float
    variance: float | None
    mse: float | None

    def record(self) -> dict:
        return dict(self.__dict__)


def rho(n: int, c: float) -> float:
    """Probability that at least one of n draws from g lands in C.

    Evaluated as -expm1(n log1p(-c)), which keeps full precision when c
    is small and n is large; the naive 1 - (1-c)^n form is reserved for
    cross-checking in tests.
    """
    _validate_nc(n, c)
    if c == 1.0:
        return 1.0
    if n == 1:
        return c
    return -math.expm1(n * math.log1p(-c))


# binom_inv_moment's truncation error is at most 2 eps relative, far below
# the 1.1e-16 rounding unit of a double.
_INV_MOMENT_EPS = 1e-20


def _inv_moment_window(n: int, c: float) -> tuple[int, int]:
    """(lo, hi) with P(K < lo or K > hi) <= 2 eps rho(n, c) / n.

    Hoeffding's bound with d = sqrt(n ln(n / (eps rho)) / 2), widened to
    whole k outward so rounding in nc +- d cannot shrink it.
    """
    log_inv = math.log(n) - math.log(_INV_MOMENT_EPS) - math.log(rho(n, c))
    half = math.sqrt(n * log_inv / 2.0)
    return max(0, math.floor(n * c - half)), min(n, math.ceil(n * c + half))


def binom_inv_moment(n: int, c: float) -> float:
    """E[1/K | K > 0] for K ~ Binomial(n, c).

    No closed form exists. The sum of pmf(k)/k over k >= 1, divided by
    the sum of pmf(k), runs only over the window of k in
    [nc - d, nc + d] with d = sqrt(n ln(n / (eps r)) / 2), where
    r = rho(n, c) and eps = 1e-20.

    Truncation bound: Hoeffding's inequality,
    P(|K - nc| >= d) <= 2 exp(-2 d^2 / n), leaves mass m <= 2 eps r / n
    outside the window. Dropping mass m (and at most m from the sum of
    pmf(k)/k, since 1/k <= 1) moves the ratio by a relative
    n m / (r - m) at most, because 1/k >= 1/n makes the ratio at least
    1/n. The truncation error is therefore below 2 eps / (1 - 2 eps),
    far below double rounding.

    Method: inside the window the pmf is built from the mode
    floor((n + 1) c) outward with the ratio
    pmf(k + 1) / pmf(k) = (n - k) / (k + 1) * c / (1 - c). These
    unnormalised terms are at most the mode's 1, so they cannot
    overflow, and a term that underflows is below 1e-308 of the largest.
    The normalising constant cancels in the ratio, so neither the
    absolute pmf nor rho enters the sums.

    The window's k are one float array, and both half-window products
    are written into one buffer u over that window: the lower half
    through a reversed view, so it runs outward from the mode like the
    upper half.

    Cost: O(sqrt(n log(n / r))) terms, about 11 000 at n = 10^6 and
    c = 1/4, in two arrays of that length plus the ratio temporaries.
    Exactly 1/n at c = 1. :class:`MomentInputs` computes it once per
    instance.
    """
    _validate_nc(n, c)
    if c == 1.0:
        return 1.0 / n
    lo, hi = _inv_moment_window(n, c)
    # The mode lies within one of nc, so inside the window (half-width > 4).
    mode = min(n, math.floor((n + 1) * c))
    odds = c / (1.0 - c)
    k = np.arange(lo, hi + 1, dtype=float)
    u = np.empty_like(k)
    i = mode - lo
    down = k[i:0:-1]  # mode, mode - 1, ..., lo + 1
    # u[:i][::-1], not u[i - 1::-1]: at i = 0 the latter is all of u.
    np.cumprod(down / (n - down + 1.0) / odds, out=u[:i][::-1])
    u[i] = 1.0
    up = k[i:-1]
    np.cumprod((n - up) / (up + 1.0) * odds, out=u[i + 1:])
    if lo == 0:
        u, k = u[1:], k[1:]
    return float(np.sum(u / k) / np.sum(u))


def moment_report(estimator: str, regime: str, inputs: MomentInputs) -> MomentReport:
    """Closed-form moments for one (estimator, conditioning regime) cell.

    The formulas, with r = rho(n, c) and e = E[1/K | K > 0]:

    ==========  =======================  =============================================
    cell        mean                     variance
    ==========  =======================  =============================================
    IS uncond.  theta                    (c v + theta^2 (1/c - 1)) / n
    IS k>0      theta / r                v c/(n r) + theta^2 (c r(n-1)+r-c n)/(c n r^2)
    IS k=kappa  (kappa/(c n)) theta      (none)
    US uncond.  r theta                  r c^2 v e + theta^2 r (1 - r)
    US k>0      theta                    c^2 v e
    US k=kappa  theta                    (none)
    ==========  =======================  =============================================

    r and e are read from ``inputs.rho`` and ``inputs.inv_moment``, so
    they are computed once per :class:`MomentInputs`, not once per cell.
    e has no closed form (see :func:`binom_inv_moment`), and only the two
    averaged US cells, the only formulas that use it, read it.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}")
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    n, c, v, theta = inputs.n, inputs.c, inputs.v, inputs.theta

    if regime == "conditioned-exact":
        if inputs.kappa is None:
            raise ValueError("conditioned-exact regime requires kappa")
        kappa = inputs.kappa
        mean = theta if estimator == "US" else (kappa / (c * n)) * theta
        return MomentReport(estimator, regime, mean, mean - theta, None, None)
    if inputs.kappa is not None:
        raise ValueError("kappa is only meaningful in the conditioned-exact regime")

    r = inputs.rho
    if regime == "unconditional":
        if estimator == "IS":
            mean = theta
            variance = (c * v + theta * theta * (1.0 / c - 1.0)) / n
        else:
            mean = r * theta
            variance = (
                r * c * c * v * inputs.inv_moment + theta * theta * r * (1.0 - r)
            )
    else:
        if estimator == "IS":
            mean = theta / r
            # The theta^2 term over c, and divided by one r before the
            # other, so that c n r^2 cannot underflow to zero at tiny c.
            variance = v * c / (n * r) + theta * theta * (
                _property3_over_c(n, c, r) / r / (n * r)
            )
        else:
            mean = theta
            variance = c * c * v * inputs.inv_moment
    bias = mean - theta
    mse = variance + bias * bias
    if not (math.isfinite(mean) and math.isfinite(variance) and math.isfinite(mse)):
        raise ValueError(f"the {estimator} {regime} moments overflow the double range")
    return MomentReport(estimator, regime, mean, bias, variance, mse)


def us_beats_is(n: int, c: float) -> bool:
    """A-priori test that US has no larger k>0 variance than IS.

    True iff c^2 E[1/K | K > 0] <= c/(n rho), which compares the two
    conditioned-positive variances with the theta-dependent terms
    stripped away; computable before seeing any data.
    """
    return c * c * binom_inv_moment(n, c) <= c / (n * rho(n, c))


def _property3_over_c(n: int, c: float, r: float) -> float:
    """property3_margin(n, c) / c = r (n - 1) - (n - r / c), r = rho(n, c).

    The difference n - r/c = (n c - r)/c cancels when n c is small: at
    n = 10 it costs the IS conditioned-positive variance 2e-9 relative
    at c = 1e-8 and every digit by c = 1e-20. For n c <= 1/2 it is
    summed instead as the alternating series sum over j >= 2 of
    (-1)^j C(n, j) c^(j-1), whose terms shrink by (n - j) c / (j + 1)
    <= 1/6 each. Above, the difference is at least a fifth of n and
    loses at most a few bits.
    """
    if n * c > 0.5:
        return r * (n - 1) - (n - r / c)
    gap, term, j = 0.0, 0.5 * n * (n - 1) * c, 2
    while term > 1e-17 * gap:
        gap += term if j % 2 == 0 else -term
        term *= (n - j) * c / (j + 1)
        j += 1
    return r * (n - 1) - gap


def property3_margin(n: int, c: float) -> float:
    """c rho (n-1) + rho - c n, the theta^2 coefficient's numerator.

    Nonnegative for all valid (n, c); tests assert this, which
    guarantees the conditioned-positive IS variance grows with theta^2.
    """
    return c * _property3_over_c(n, c, rho(n, c))
