"""One-dimensional densities, evaluation functions, and estimation problems.

Two density families are built in: piecewise-uniform (disjoint intervals
with probability weights) and truncated-normal. Both have an interval
support, analytic interval masses and inverse-CDF sampling, so draws are
deterministic per seed and masses are exact. Evaluation functions and
the pruning set C are interval-described too, so every problem's supports
can be checked, and C's mass c derived, on construction.

A problem built only from piecewise-uniform densities and a step
evaluation is constant between finitely many breakpoints. Unless it
carries a return surface, whose noisy returns stand in for h, the count
of samples in each cell is then a sufficient statistic
(:attr:`EstimationProblem.piecewise_constant`), and its ``terms`` are
read at each cell's midpoint, one term per cell.
"""

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ._kernels import out_array

if TYPE_CHECKING:
    from .experiments import SyntheticReturnSurface

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
    "EstimationProblem",
    "check_coverage",
    "draw",
]

_MASS_TOL = 1e-12


def zero_outside(a: np.ndarray, mask) -> np.ndarray:
    """``np.where(mask, a, 0.0)``, written over the float64 array ``a``.

    The bit patterns are multiplied by 0 or 1 as int64, which is exact
    for every value, NaN and inf included, and does not branch on the
    mask (a masked copy does, and costs several times more on a random
    mask).
    """
    bits = a.view(np.int64)
    np.multiply(bits, mask, out=bits)
    return a


class UnequalSupportError(ValueError):
    """Base class for support/configuration violations."""


class SamplingSupportError(UnequalSupportError):
    """g(x) = 0 where it must not be.

    Raised for a sample that claims to come from g but has g(x) = 0, and
    for a problem whose f(x)h(x) != 0 somewhere g(x) = 0: no sample can
    reach that part of theta, so every estimator would miss it.
    """


class PruningCoverageError(UnequalSupportError):
    """A sample with w(x)h(x) != 0, w = f/g, fell outside the pruning set C.

    Where observed values stand in for h (see
    :meth:`EstimationProblem.batch_terms`), w(x) times the observed
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
            if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
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

    def locate(self, x) -> tuple[np.ndarray | int, np.ndarray]:
        """(index, inside) per point: the interval that x would lie in,
        clipped to a valid index, and whether x lies in it. For a union
        of one interval the index is the scalar 0, which broadcasts
        against x."""
        x = np.asarray(x, dtype=float)
        if self._one:
            return 0, (x >= self.lows[0]) & (x <= self.highs[0])
        # idx lies in [-1, len - 1], so only its lower end needs clipping;
        # np.maximum skips the np.clip wrapper.
        idx = np.searchsorted(self.lows, x, side="right") - 1
        idx_c = np.maximum(idx, 0)
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

    ``support`` is the interval union outside which the density is zero,
    and its ``contains`` must agree with pdf > 0 pointwise; ``pdf`` must
    be nonnegative and integrate to 1 over it; ``interval_mass``
    returns the analytic probability of an interval union; ``sample``
    draws i.i.d. points inside the support from a caller-owned
    generator; ``restrict`` returns the density of the same family
    conditioned on an interval of positive mass. ``pdf`` and ``sample``
    write into ``out``, a float64 array of the result's shape, when one is
    given, and return it.
    """

    support: IntervalUnion

    def pdf(self, x, out=None) -> np.ndarray: ...

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray: ...

    def interval_mass(self, intervals) -> float: ...

    def restrict(self, low: float, high: float) -> "Density": ...


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
    which is 0 for piece 0, and a divide by a weight of 1, so the draws
    are bit-equal to the general path's.
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

    @cached_property
    def _cum(self) -> np.ndarray:
        """The CDF at the pieces' ends, 0 first and exactly 1 last; read
        only by the sampling of more than one piece."""
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        cum[-1] = 1.0
        return cum

    @classmethod
    def uniform(cls, low: float, high: float) -> "PiecewiseUniform":
        return cls([(low, high)])

    def pdf(self, x, out=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx, inside = self.support.locate(x)
        # Heights are finite and positive, so the mask multiply is exact.
        return np.multiply(self.heights[idx], inside, out=out_array(x.shape, out))

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        # random() fills the same doubles as uniform(0, 1).
        u = rng.random(size, out=out)
        j = 0
        if len(self.weights) > 1:
            j = np.clip(
                np.searchsorted(self._cum, u, side="right") - 1, 0, len(self.weights) - 1
            )
            u -= self._cum[j]
        if len(self.weights) > 1 or self.weights[0] != 1.0:
            u /= self.weights[j]
        lo, hi = self.support.lows[j], self.support.highs[j]
        u *= hi - lo
        u += lo
        return u

    def interval_mass(self, intervals) -> float:
        query = _as_interval_union(intervals)
        overlap = self.support.overlap_lengths(query)
        return float(np.dot(self.heights, overlap))

    def restrict(self, low: float, high: float) -> "PiecewiseUniform":
        """The density conditioned on [low, high]: its pieces clipped to
        the interval, each weighted by its height times its clipped
        length. Inside one piece it is uniform on [low, high], whose
        draws are ``low + u (high - low)``."""
        lows = np.maximum(self.support.lows, low)
        highs = np.minimum(self.support.highs, high)
        keep = lows < highs
        mass = self.heights[keep] * (highs[keep] - lows[keep])
        return PiecewiseUniform(list(zip(lows[keep], highs[keep])), mass / mass.sum())


def _normal_cdf(z: float) -> float:
    """Standard normal CDF.

    Keep this form. Every treatment target's normaliser reads the CDF at
    z = -1 and 0, where dividing by sqrt(2) gives the bits of Cephes'
    ``ndtr``, so treatment outputs keep their bytes; multiplying by
    sqrt(0.5) is 1 ulp off at z = -1.
    """
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


class TruncatedNormal:
    """Normal(mean, stddev) truncated to [lower, upper] and renormalized.

    Sampling uses the inverse CDF on the truncated quantile range, so a
    fixed seed always consumes exactly one uniform per draw. The normal
    CDF is :func:`_normal_cdf` (``math.erfc``) and its quantile is
    ``statistics.NormalDist().inv_cdf``, imported on the first draw.
    ``pdf`` and ``sample`` run their chains in place in one array.
    ``pdf`` runs exp at every x, then zeroes x outside the support. Far
    outside a narrow support exp underflows to +0.0; only quadrature
    nodes and a scalar batch reach there, as the sample path draws in F.
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

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        q = rng.random(size, out=out)
        q *= self._z
        q += self._cdf_lo
        # Imported here so that importing the package does not load
        # statistics; no workload samples a truncated normal.
        from statistics import NormalDist

        inv_cdf = NormalDist().inv_cdf
        # q <= 0 (an underflowed _cdf_lo) and q >= 1 (a _cdf_hi of 1), where
        # inv_cdf raises, map to -inf and +inf, which the clip turns into
        # lower and upper.
        q.flat = [
            inv_cdf(p) if 0.0 < p < 1.0 else (-math.inf if p <= 0.0 else math.inf)
            for p in q.ravel().tolist()
        ]
        q *= self.stddev
        q += self.mean
        return np.clip(q, self.lower, self.upper, out=q)

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

    def restrict(self, low: float, high: float) -> "TruncatedNormal":
        """The same normal truncated to [low, high] within [lower, upper]."""
        return TruncatedNormal(
            max(low, self.lower), min(high, self.upper), self.mean, self.stddev
        )


class EvaluationFunction:
    """Real-valued evaluation map with a declared interval support.

    Evaluations outside the declared support are exactly +0.0, whatever
    ``fn`` returns there (NaN and inf included).
    """

    def __init__(self, fn: Callable, support):
        self.fn = fn
        self.support = _as_interval_union(support)
        self.pieces: tuple | None = None  # set for piecewise-constant maps

    def __call__(self, x, out=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # A copy of the values, broadcast: fn may return x, or a scalar.
        hv = out_array(x.shape, out)
        hv[...] = self.fn(x)
        return zero_outside(hv, self.support.contains(x))

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
class EstimationProblem:
    """Target f, sampling g, evaluation h, and pruning set C with mass c.

    ``pruning`` is the interval union C, given as an
    :class:`IntervalUnion` or as (lo, hi) pairs. ``c`` is not an input:
    it is C's analytic mass under g, computed once on construction and
    capped at 1, which only the roundoff of weights that sum to 1 can
    pass; a c outside (0, 1] raises ValueError.

    The standing assumption is F ∩ H ⊆ C ⊆ G. F ∩ H ⊆ G is checked on
    construction, after c, at the midpoint of every cell between the
    breakpoints of f, g, h and C that lies outside G, and a violation
    raises :class:`SamplingSupportError`.
    C ⊇ F ∩ H is checked on every batch that flows through the
    estimators, on the samples it holds: any sample with w(x)h(x) != 0
    outside C, w = f/g, raises :class:`PruningCoverageError`. With a nonzero
    control variate C must cover all of F; see :func:`check_coverage`.

    ``surface``, when set, is a return surface (``treatment_problem``
    sets one): a simulation observes its noisy returns in place of h,
    and its ``extra_variance`` adds to the analytic v.
    """

    target: Density
    sampling: Density
    evaluation: EvaluationFunction
    pruning: IntervalUnion
    surface: "SyntheticReturnSurface | None" = None
    c: float = field(init=False)

    def __post_init__(self):
        pruning = _as_interval_union(self.pruning)
        c = min(self.sampling.interval_mass(pruning), 1.0)
        if not 0.0 < c <= 1.0:
            raise ValueError("c must lie in (0, 1]")
        object.__setattr__(self, "pruning", pruning)
        object.__setattr__(self, "c", c)
        _, _, mid, in_g = self._cells
        if in_g.all():
            return
        # Membership in each support is constant on a cell, and a
        # density's support agrees with pdf > 0: only the cells outside G
        # can hold mass no sample reaches.
        gaps = mid[~in_g]
        f_set, h = self.target.support, self.evaluation
        missed = f_set.contains(gaps) & (h(gaps) != 0.0)
        if missed.any():
            # Named by its cell between the breakpoints of f, g and h alone.
            lows, highs, _ = _breakpoint_cells(f_set, self.sampling.support, h.support)
            j = np.searchsorted(lows, gaps[missed.argmax()], side="right") - 1
            raise SamplingSupportError(
                f"f(x)h(x) != 0 on [{lows[j]:g}, {highs[j]:g}], where the "
                "sampling density is zero; no sample can reach that mass"
            )

    @cached_property
    def piecewise_constant(self) -> bool:
        """Whether f and g are piecewise-uniform, h is a step function and
        there is no return surface: then the count of samples in each
        :meth:`support_cells` cell is a sufficient statistic for every
        estimator."""
        f, g = self.target, self.sampling
        uniform = isinstance(f, PiecewiseUniform) and isinstance(g, PiecewiseUniform)
        return uniform and self.evaluation.pieces is not None and self.surface is None

    @cached_property
    def terms(self) -> tuple[np.ndarray, ...]:
        """(p, w, h, in_c), built once: sum p phi(w, h, in_c) is the
        integral of g phi(f/g, h, [x in C]). They are :meth:`node_terms`
        on each :meth:`support_cells` cell: at its midpoint, weighted by
        its length, if the problem is :attr:`piecewise_constant` (one
        exact term per cell), else at ``_QUAD_NODES`` Gauss-Legendre
        nodes, where each integrand is analytic (the rule converges
        geometrically) and the interior nodes read one-sided limits."""
        rule = ((0.0,), (2.0,)) if self.piecewise_constant else _gauss_legendre()
        return self.node_terms(*place_rule(*self.support_cells(), *rule))

    @cached_property
    def _cells(self) -> tuple[np.ndarray, ...]:
        """(lows, highs, midpoints, in G) of the cells between the
        breakpoints of f, g, h and C. Each support is constant on a
        cell, so the cell's midpoint decides its membership in G."""
        lows, highs, mid = _breakpoint_cells(
            self.target.support,
            self.sampling.support,
            self.evaluation.support,
            self.pruning,
        )
        return lows, highs, mid, self.sampling.support.contains(mid)

    def support_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(lows, highs) of the cells between the breakpoints of f, g, h
        and C that lie inside the sampling support."""
        lows, highs, _, in_g = self._cells
        return lows[in_g], highs[in_g]

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
        self,
        values: np.ndarray,
        observed: np.ndarray | None = None,
        out=None,
        *,
        t: float = 0.0,
        scratch=None,
    ):
        """Per-sample (w, w (h - t), in C) arrays for a batch: the weights
        f/g, the centered terms the estimators sum, and membership in C.

        Accepts any array shape; trailing axis semantics are up to the
        caller. ``observed``, when given, holds one observed value per
        sample (a noisy return, say) that stands in for h(x), which is
        then not evaluated. Raises if a sample is impossible under g,
        and runs the coverage checks of :func:`check_coverage` for the
        control variate ``t`` on w h. The weights go into ``out``, and
        g(x), then w h, then, if t != 0, w (h - t) into ``scratch``
        (float64, the batch's shape; fresh if None), which is returned
        as the centered terms. A one-piece g is read as its height.
        """
        values = np.asarray(values, dtype=float)
        scratch = out_array(values.shape, scratch)
        g = self.sampling
        if isinstance(g, PiecewiseUniform) and len(g.weights) == 1:
            # g is its height on [lo, hi]; min and max are NaN if any x is.
            g_x, (lo, hi) = g.heights[0], next(iter(g.support))
            possible = lo <= values.min(initial=np.inf) and values.max(initial=-np.inf) <= hi
        else:
            g_x = g.pdf(values, out=scratch)
            possible = not np.any(g_x <= 0.0)
        if not possible:
            raise SamplingSupportError(
                "sample has zero density under the sampling distribution"
            )
        in_c = self.pruning.contains(values)
        w = self.target.pdf(values, out=out)
        w /= g_x
        if observed is None:
            hv = self.evaluation(values)
        else:
            hv = np.asarray(observed, dtype=float)
            if hv.shape != values.shape:
                raise ValueError("observed must hold one value per sample")
        # A w h or w (h - t) that overflows fails check_coverage outside C
        # and the kernel's finiteness check inside it; NumPy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            centered = np.multiply(w, hv, out=scratch)
            check_coverage(w, centered, in_c, t)
            if t:
                np.subtract(hv, t, out=centered)
                centered *= w
        return w, centered, in_c


def _breakpoint_cells(*unions: IntervalUnion):
    """(lows, highs, midpoints) of the cells between the unions' endpoints,
    sorted and each kept once, as its first occurrence."""
    edges = dict.fromkeys(e for u in unions for a in (u.lows, u.highs) for e in a.tolist())
    edges = np.array(sorted(edges))
    return edges[:-1], edges[1:], 0.5 * (edges[:-1] + edges[1:])


def place_rule(lows, highs, z, weights) -> tuple[np.ndarray, np.ndarray]:
    """(x, q): a rule with nodes z and weights on [-1, 1] placed on each
    cell [lows[j], highs[j]], cell by cell: x = mid + half z and
    q = half weights, half being the cell's half-length. z and the
    weights are halved rather than the length, so the one-node rule
    (node 0, weight 2) gives each cell's midpoint and length bit for
    bit, subnormal lengths included."""
    mid, length = 0.5 * (lows + highs), highs - lows
    x = mid[:, None] + length[:, None] * (0.5 * np.asarray(z))
    return x.ravel(), (length[:, None] * (0.5 * np.asarray(weights))).ravel()


# Gauss-Legendre nodes per support cell of a problem that is not
# piecewise-constant. Against adaptive quadrature at cr_min = 10.99
# (target stddev 0.01) the treatment v is 1.7e-14 off with 32 nodes and
# 1.3e-13 off with 16.
_QUAD_NODES = 32


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # Imported here, once per process, so that importing the package
    # does not load numpy.polynomial.
    from numpy.polynomial.legendre import leggauss

    z, weights = leggauss(_QUAD_NODES)
    # Every caller shares these arrays.
    z.flags.writeable = weights.flags.writeable = False
    return z, weights


def check_coverage(w, wh, in_c, t: float) -> None:
    """The coverage checks of C on a batch's terms, in this order.

    Raises :class:`PruningCoverageError` if any w(x)h(x) != 0 lies
    outside C, w = f/g, then :class:`ControlVariateCoverageError` if t != 0 and
    any weight f(x)/g(x) != 0 does: with a nonzero control variate the
    centered term w (h - t) is nonzero wherever f is, so C must cover
    all of F.
    """
    outside = ~in_c
    if np.any((wh != 0.0) & outside):
        raise PruningCoverageError(
            "sample with w(x)h(x) != 0 lies outside the pruning set"
        )
    if t != 0.0 and np.any((w != 0.0) & outside):
        raise ControlVariateCoverageError(
            "control variate requires the pruning set to cover the "
            "target support; found f(x) != 0 outside C"
        )


def draw(density, seed: int, count: int) -> np.ndarray:
    """``count`` i.i.d. samples, a 1-D array drawn from the
    ``default_rng(seed)`` stream: bit-for-bit reproducible per seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return density.sample(np.random.default_rng(seed), count)
