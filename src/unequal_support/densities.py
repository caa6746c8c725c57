"""One-dimensional densities, evaluation functions, and pruning sets.

Two density families are built in: piecewise-uniform (disjoint intervals
with probability weights) and truncated-normal. Both have an interval
support, analytic interval masses and inverse-CDF sampling, so draws are
deterministic per seed and masses are exact. Evaluation functions and
pruning sets are interval-described too, so every problem's supports can
be checked on construction.

A problem built only from piecewise-uniform densities and a step
evaluation is constant between finitely many breakpoints;
:class:`CellTable` lists those cells.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ._kernels import out_array, zero_outside

__all__ = [
    "UnequalSupportError",
    "SamplingSupportError",
    "PruningCoverageError",
    "ControlVariateCoverageError",
    "IntervalUnion",
    "Density",
    "PiecewiseUniform",
    "TruncatedNormal",
    "EvaluationFunction",
    "PruningSet",
    "EstimationProblem",
    "CellTable",
    "check_pruning_coverage",
    "check_control_variate_coverage",
    "SampleBatch",
    "draw",
]

_MASS_TOL = 1e-12


class UnequalSupportError(ValueError):
    """Base class for support/configuration violations."""


class SamplingSupportError(UnequalSupportError):
    """g(x) = 0 where it must not be.

    Raised for a sample that claims to come from g but has g(x) = 0, and
    for a problem whose f(x)h(x) != 0 somewhere g(x) = 0: no sample can
    reach that part of theta, so every estimator would miss it.
    """


class PruningCoverageError(UnequalSupportError):
    """A sample with f(x)h(x) != 0 fell outside the pruning set C.

    Where observed values stand in for h (see
    :meth:`EstimationProblem.batch_terms`), f(x) times the observed
    value is checked instead.

    Signals a violation of the standing assumption that the pruning set
    covers the joint support of the target density and the evaluation
    function.
    """


class ControlVariateCoverageError(UnequalSupportError):
    """A nonzero control variate requires C to cover all of F.

    Raised when a sample outside C has f(x) != 0 while t != 0; in that
    case restricting the centered sum to C would drop nonzero terms.
    """


class IntervalUnion:
    """Finite union of closed, non-overlapping intervals on the reals.

    Endpoints count as inside (closed convention), so membership agrees
    with a positive pdf on the boundary. Intervals may touch but their
    interiors must be disjoint.

    Whether the union has one interval is settled at construction; if
    it has, ``locate`` and ``contains`` use two comparisons, otherwise
    they search the sorted lower endpoints.
    """

    def __init__(self, intervals: Sequence[Sequence[float]]):
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        if not ivs:
            raise ValueError("at least one interval required")
        for a, b in ivs:
            if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
                raise ValueError(f"bad interval [{a}, {b}]")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise ValueError("intervals overlap")
        self.lows = np.array([a for a, _ in ivs])
        self.highs = np.array([b for _, b in ivs])
        self._one = len(ivs) == 1

    def __len__(self) -> int:
        return len(self.lows)

    def __iter__(self):
        return iter(zip(self.lows, self.highs))

    @property
    def total_length(self) -> float:
        return float(np.sum(self.highs - self.lows))

    def locate(self, x) -> tuple[np.ndarray | int, np.ndarray]:
        """(index, inside) per point: the interval that x would lie in,
        clipped to a valid index, and whether x lies in it. For a union
        of one interval the index is the scalar 0, which broadcasts
        against x."""
        x = np.asarray(x, dtype=float)
        if self._one:
            return 0, (x >= self.lows[0]) & (x <= self.highs[0])
        idx = np.searchsorted(self.lows, x, side="right") - 1
        idx_c = np.clip(idx, 0, len(self.lows) - 1)
        return idx_c, (idx >= 0) & (x <= self.highs[idx_c])

    def contains(self, x) -> np.ndarray:
        return self.locate(x)[1]

    def overlap_lengths(self, other: "IntervalUnion") -> np.ndarray:
        """Length of other's overlap with each of this union's intervals."""
        out = np.zeros(len(self.lows))
        for a, b in other:
            out += np.maximum(
                0.0, np.minimum(self.highs, b) - np.maximum(self.lows, a)
            )
        return out


@runtime_checkable
class Density(Protocol):
    """Structural interface every density family implements.

    ``support`` is the interval union outside which the density is zero;
    ``pdf`` must be nonnegative and integrate to 1 over it;
    ``contains`` must agree with pdf > 0 pointwise; ``interval_mass``
    returns the analytic probability of an interval union; ``sample``
    draws i.i.d. points inside the support from a caller-owned
    generator. ``pdf`` and ``sample`` write into ``out``, a float64
    array of the result's shape, when one is given, and return it.
    """

    support: IntervalUnion

    def pdf(self, x, out=None) -> np.ndarray: ...

    def contains(self, x) -> np.ndarray: ...

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray: ...

    def interval_mass(self, intervals) -> float: ...


def _as_interval_union(intervals) -> IntervalUnion:
    return intervals if isinstance(intervals, IntervalUnion) else IntervalUnion(intervals)


class PiecewiseUniform:
    """Density that is constant on each interval of a disjoint union.

    ``weights[j]`` is the probability mass of interval j (default:
    proportional to length, i.e. uniform over the union). Sampling maps a
    single uniform draw u through the piecewise-linear inverse CDF,
    ``lo + (u - cum) / weight * (hi - lo)`` of u's piece, computed in
    place, so the draw count per seed is deterministic. A density of one
    piece skips the interval search: ``pdf`` through the support's
    one-interval ``locate``, and ``sample`` by dropping the CDF offset,
    which is 0 for piece 0, so the draws are bit-equal to the general
    path's.
    """

    def __init__(self, intervals, weights: Sequence[float] | None = None):
        self.support = _as_interval_union(intervals)
        lengths = self.support.highs - self.support.lows
        if weights is None:
            w = lengths / lengths.sum()
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != lengths.shape:
                raise ValueError("one weight per interval required")
            # Written as not (... > 0) and not (... <= tol) so that NaN fails.
            if not np.all(w > 0):
                raise ValueError("weights must be positive")
            if not abs(w.sum() - 1.0) <= _MASS_TOL:
                raise ValueError("weights must sum to 1")
        self.weights = w
        self.heights = w / lengths
        self._cum = np.concatenate([[0.0], np.cumsum(w)])
        self._cum[-1] = 1.0

    @classmethod
    def uniform(cls, low: float, high: float) -> "PiecewiseUniform":
        return cls([(low, high)])

    def pdf(self, x, out=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx, inside = self.support.locate(x)
        # Heights are finite and positive, so the mask multiply is exact.
        return np.multiply(self.heights[idx], inside, out=out_array(x.shape, out))

    def contains(self, x) -> np.ndarray:
        return self.support.contains(x)

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        # random() fills the same doubles as uniform(0, 1).
        u = rng.random(size, out=out)
        if len(self.weights) == 1:
            j = 0
        else:
            j = np.clip(
                np.searchsorted(self._cum, u, side="right") - 1, 0, len(self.weights) - 1
            )
            u -= self._cum[j]
        lo, hi = self.support.lows[j], self.support.highs[j]
        u /= self.weights[j]
        u *= hi - lo
        u += lo
        return u

    def interval_mass(self, intervals) -> float:
        query = _as_interval_union(intervals)
        overlap = self.support.overlap_lengths(query)
        return float(np.dot(self.heights, overlap))


def _normal_cdf(z: float) -> float:
    """Standard normal CDF.

    Keep this form. Every treatment target's normaliser reads the CDF at
    z = -1 and 0, where dividing by sqrt(2) gives the bits of Cephes'
    ``ndtr``, so treatment outputs keep their bytes; multiplying by
    sqrt(0.5) is 1 ulp off at z = -1.
    """
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# Standard normal quantile as a ufunc; its result is an object array unless
# written into a float ``out`` with ``casting="unsafe"``.
_normal_quantile = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


class TruncatedNormal:
    """Normal(mean, stddev) truncated to [lower, upper] and renormalized.

    Sampling uses the inverse CDF on the truncated quantile range, so a
    fixed seed always consumes exactly one uniform per draw. The normal
    CDF is :func:`_normal_cdf` (``math.erfc``) and its quantile is
    ``statistics.NormalDist().inv_cdf``, applied elementwise. ``pdf`` and
    ``sample`` run their chains in place in one array.
    """

    def __init__(self, lower: float, upper: float, mean: float, stddev: float):
        if not lower < upper:
            raise ValueError("lower must be < upper")
        if not stddev > 0:
            raise ValueError("stddev must be positive")
        self.lower = float(lower)
        self.upper = float(upper)
        self.mean = float(mean)
        self.stddev = float(stddev)
        self.support = IntervalUnion([(lower, upper)])
        self._cdf_lo = _normal_cdf((self.lower - self.mean) / self.stddev)
        self._cdf_hi = _normal_cdf((self.upper - self.mean) / self.stddev)
        self._z = self._cdf_hi - self._cdf_lo
        # Not _z <= 0: a NaN mean gives a NaN _z, which must fail too.
        if not self._z > 0:
            raise ValueError("truncation interval has no normal mass")

    def pdf(self, x, out=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = self.support.contains(x)
        z = np.subtract(x, self.mean, out=out_array(x.shape, out))
        z /= self.stddev
        # z * z * -0.5 equals -0.5 * z * z: scaling by a power of two is
        # exact, and where it is not (|z| < 1e-154) exp rounds both to 1.
        z *= z
        z *= -0.5
        dens = np.exp(z, out=z)
        dens /= self.stddev * np.sqrt(2.0 * np.pi) * self._z
        return zero_outside(dens, inside)

    def contains(self, x) -> np.ndarray:
        return self.support.contains(x)

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        q = rng.random(size, out=out)
        q *= self._z
        q += self._cdf_lo
        # inv_cdf raises at q <= 0 (an underflowed _cdf_lo) and q >= 1 (a
        # _cdf_hi of 1). The quantile there is -inf or +inf, which the clip
        # below turns into lower or upper. The mask is taken before q is
        # overwritten, and each masked write reads only what it writes.
        inside = (q > 0.0) & (q < 1.0)
        np.copysign(np.inf, q - 0.5, out=q, where=~inside)
        x = _normal_quantile(q, out=q, where=inside, casting="unsafe")
        x *= self.stddev
        x += self.mean
        return np.clip(x, self.lower, self.upper, out=x)

    def interval_mass(self, intervals) -> float:
        query = _as_interval_union(intervals)
        total = 0.0
        for a, b in query:
            a_c = max(a, self.lower)
            b_c = min(b, self.upper)
            if a_c < b_c:
                z_a = (a_c - self.mean) / self.stddev
                z_b = (b_c - self.mean) / self.stddev
                total += _normal_cdf(z_b) - _normal_cdf(z_a)
        return total / self._z


class EvaluationFunction:
    """Real-valued evaluation map with a declared interval support.

    Evaluations outside the declared support are exactly zero.
    """

    def __init__(self, fn: Callable, support):
        self.fn = fn
        self.support = _as_interval_union(support)
        self.pieces: tuple | None = None  # set for piecewise-constant maps

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(self.support.contains(x), self.fn(x), 0.0)

    @classmethod
    def piecewise_constant(cls, pieces: Sequence[Sequence[float]]) -> "EvaluationFunction":
        """Step function from (lo, hi, value) triples on disjoint intervals."""
        pieces = tuple((float(a), float(b), float(v)) for a, b, v in pieces)
        support = IntervalUnion([(a, b) for a, b, _ in pieces])
        # Disjoint pieces sort by their lows, the support's interval order.
        values = np.array([v for _, _, v in sorted(pieces)])

        def fn(x):
            return values[support.locate(x)[0]]

        obj = cls(fn, support)
        obj.pieces = pieces
        return obj


@dataclass(frozen=True)
class PruningSet:
    """The interval union C kept by the unequal-support estimator.

    ``c`` is the probability mass of C under the sampling density.
    """

    intervals: IntervalUnion
    c: float

    def __post_init__(self):
        if not 0.0 < self.c <= 1.0:
            raise ValueError("c must lie in (0, 1]")

    @classmethod
    def from_intervals(cls, intervals, sampling) -> "PruningSet":
        """The union of these intervals, with c its analytic mass under g."""
        union = _as_interval_union(intervals)
        c = sampling.interval_mass(union)
        return cls(union, c)

    def contains(self, x) -> np.ndarray:
        return self.intervals.contains(x)


@dataclass(frozen=True)
class SampleBatch:
    """n i.i.d. draws from the sampling density, tagged with their seed."""

    values: np.ndarray
    seed: int | None
    n: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.n < 1 or self.values.shape != (self.n,):
            raise ValueError("values must be a length-n vector with n >= 1")


@dataclass(frozen=True)
class EstimationProblem:
    """Target f, sampling g, evaluation h, and pruning set C with mass c.

    The standing assumption is F ∩ H ⊆ C ⊆ G. F ∩ H ⊆ G is checked on
    construction, at the midpoint of every cell between the breakpoints
    of f, g and h, and a violation raises :class:`SamplingSupportError`.
    C ⊇ F ∩ H is checked on every batch that flows through the
    estimators, on the samples it holds: any sample with f(x)h(x) != 0
    outside C raises :class:`PruningCoverageError`.
    """

    target: Density
    sampling: Density
    evaluation: EvaluationFunction
    pruning: PruningSet

    def __post_init__(self):
        f_set, g_set, h = self.target.support, self.sampling.support, self.evaluation
        lows, highs, mid = _breakpoint_cells(f_set, g_set, h.support)
        # Membership in each support is constant on a cell, and
        # Density.contains agrees with pdf > 0.
        missed = f_set.contains(mid) & ~g_set.contains(mid) & (h(mid) != 0.0)
        if np.any(missed):
            j = np.flatnonzero(missed)[0]
            raise SamplingSupportError(
                f"f(x)h(x) != 0 on [{lows[j]:g}, {highs[j]:g}], where the "
                "sampling density is zero; no sample can reach that mass"
            )

    @property
    def c(self) -> float:
        return self.pruning.c

    @cached_property
    def cells(self) -> "CellTable | None":
        """The problem's :class:`CellTable`, built once, or None."""
        return CellTable.from_problem(self)

    def support_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(lows, highs) of the cells between the breakpoints of f, g, h
        and C that lie inside the sampling support. Each support is
        constant on a cell, so the cell's midpoint decides."""
        lows, highs, mid = _breakpoint_cells(
            self.target.support,
            self.sampling.support,
            self.evaluation.support,
            self.pruning.intervals,
        )
        keep = self.sampling.contains(mid)
        return lows[keep], highs[keep]

    def node_terms(self, x: np.ndarray, q: np.ndarray):
        """(p, w, h, in_c) at nodes x of a rule with weights q: p = q g(x),
        w = f(x)/g(x), h(x) and membership in C. Summing p phi(w, h, in_c)
        applies the rule to the integral of g phi(f/g, h, [x in C])."""
        # h first: its temporaries then share memory with fewer live arrays.
        h = self.evaluation(x)
        p = self.sampling.pdf(x)
        w = self.target.pdf(x)
        w /= p
        p *= q
        return p, w, h, self.pruning.contains(x)

    def batch_terms(
        self, values: np.ndarray, observed: np.ndarray | None = None, out=None
    ):
        """Per-sample (weight, evaluation, in-C) arrays for a batch.

        Accepts any array shape; trailing axis semantics are up to the
        caller. ``observed``, when given, holds one observed value per
        sample (a noisy return, say) and is returned in place of h(x):
        h is then not evaluated, and the pruning spot-check reads f(x)
        times the observed value, the terms the estimators sum. Raises
        if a sample is impossible under g or if the pruning spot-check
        fails. The weights are written into ``out``, a float64 array of
        the batch's shape, when one is given; g(x) is held there until
        f(x)/g(x) replaces it.
        """
        values = np.asarray(values, dtype=float)
        w = self.sampling.pdf(values, out=out)
        if np.any(w <= 0.0):
            raise SamplingSupportError(
                "sample has zero density under the sampling distribution"
            )
        fv = self.target.pdf(values)
        np.divide(fv, w, out=w)
        if observed is None:
            hv = self.evaluation(values)
        else:
            hv = np.asarray(observed, dtype=float)
            if hv.shape != values.shape:
                raise ValueError("observed must hold one value per sample")
        in_c = self.pruning.contains(values)
        check_pruning_coverage(np.multiply(fv, hv, out=fv), in_c)
        return w, hv, in_c


def _breakpoint_cells(*unions: IntervalUnion):
    """(lows, highs, midpoints) of the cells between the unions' endpoints."""
    edges = np.unique(np.concatenate([a for u in unions for a in (u.lows, u.highs)]))
    return edges[:-1], edges[1:], 0.5 * (edges[:-1] + edges[1:])


def check_pruning_coverage(fh, in_c) -> None:
    """Raise if any f(x)h(x) != 0 lies outside C."""
    if np.any((fh != 0.0) & ~in_c):
        raise PruningCoverageError(
            "sample with f(x)h(x) != 0 lies outside the pruning set"
        )


def check_control_variate_coverage(w, in_c, t: float) -> None:
    """Raise if t != 0 and any weight f(x)/g(x) != 0 lies outside C.

    With a nonzero control variate the centered term w (h - t) is
    nonzero wherever f is, so C must cover all of F.
    """
    if t != 0.0 and np.any((w != 0.0) & ~in_c):
        raise ControlVariateCoverageError(
            "control variate requires the pruning set to cover the "
            "target support; found f(x) != 0 outside C"
        )


@dataclass(frozen=True)
class CellTable:
    """The constant cells of a piecewise-constant problem.

    Between consecutive breakpoints of f, g, h and C all four are
    constant, so the count of samples in each cell is a sufficient
    statistic for every estimator. Each cell ``[lows[j], highs[j]]``
    carries its mass ``p`` under g, the weight ``w`` = f/g, the
    evaluation ``h`` and membership ``in_c`` in C: the terms of
    :meth:`EstimationProblem.node_terms` under the midpoint rule, one node
    per :meth:`EstimationProblem.support_cells` cell weighted by its
    length. Cells outside the sampling support are left out: no sample
    can land there.
    """

    lows: np.ndarray
    highs: np.ndarray
    p: np.ndarray
    w: np.ndarray
    h: np.ndarray
    in_c: np.ndarray

    @classmethod
    def from_problem(cls, problem: EstimationProblem) -> "CellTable | None":
        """The problem's cells, or None unless f and g are piecewise-uniform
        and h is a step function."""
        f, g, h = problem.target, problem.sampling, problem.evaluation
        if h.pieces is None or not all(isinstance(d, PiecewiseUniform) for d in (f, g)):
            return None
        lows, highs = problem.support_cells()
        return cls(lows, highs, *problem.node_terms(0.5 * (lows + highs), highs - lows))

    def check_coverage(self, counts: np.ndarray, t: float) -> None:
        """The batch checks of the sample path, on the cells some trial hit."""
        hit = counts.any(axis=0)
        w, in_c = self.w[hit], self.in_c[hit]
        check_pruning_coverage(w * self.h[hit], in_c)
        check_control_variate_coverage(w, in_c, t)


def draw(density, seed: int, count: int) -> SampleBatch:
    """Draw ``count`` i.i.d. samples; bit-for-bit reproducible per seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    values = density.sample(rng, count)
    return SampleBatch(values=values, seed=seed, n=count)
