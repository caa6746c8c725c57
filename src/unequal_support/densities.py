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
    "PruningSet",
    "EstimationProblem",
    "CellTable",
    "check_coverage",
    "SampleBatch",
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

    ``support`` is the interval union outside which the density is zero,
    and its ``contains`` must agree with pdf > 0 pointwise; ``pdf`` must
    be nonnegative and integrate to 1 over it; ``interval_mass``
    returns the analytic probability of an interval union; ``sample``
    draws i.i.d. points inside the support from a caller-owned
    generator. ``pdf`` and ``sample`` write into ``out``, a float64
    array of the result's shape, when one is given, and return it.
    """

    support: IntervalUnion

    def pdf(self, x, out=None) -> np.ndarray: ...

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


# Wichura's AS241 (PPND16) rationals, numerator then denominator, each
# highest power first, as ``statistics.NormalDist().inv_cdf`` evaluates
# them: the central one in r = 0.180625 - q^2 (|q| <= 0.425, q = p - 0.5),
# then the tails' in r = sqrt(-log(min(p, 1 - p))) less 1.6 (r <= 5) or 5.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
     5.4637849111641143699e0, 6.6579046435011037772e0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _poly(r: np.ndarray, coefficients) -> np.ndarray:
    """Horner's rule in inv_cdf's order, highest power first."""
    acc = np.full_like(r, coefficients[0])
    for a in coefficients[1:]:
        acc *= r
        acc += a
    return acc


def _normal_quantile(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each p, written into ``out``, which may
    be p itself: the floating-point operations of
    ``statistics.NormalDist().inv_cdf``, vectorised, and -inf at p <= 0
    and +inf at p >= 1, where inv_cdf raises."""
    q = p - 0.5
    central = np.abs(q) <= 0.425
    tail = ~central
    # Gathered before out, which may be p, is written.
    pt, qt = p[tail], q[tail]
    qc = q[central]
    r = 0.180625 - qc * qc
    num, den = _AS241_CENTRAL
    out[central] = _poly(r, num) * qc / _poly(r, den)
    # min(p, 1 - p), which is not positive where p lies outside (0, 1):
    # those entries read log(1) and are set to inf below. math.log is the
    # libm log that inv_cdf takes; np.log can be an ulp away from it.
    r = np.where(qt <= 0.0, pt, 1.0 - pt)
    edge = ~(r > 0.0)
    r[edge] = 1.0
    r = np.sqrt(-np.fromiter(map(math.log, r), float, r.size))
    xt = np.empty_like(r)
    for part, shift, (num, den) in (
        (r <= 5.0, 1.6, _AS241_NEAR),
        (r > 5.0, 5.0, _AS241_FAR),
    ):
        rp = r[part] - shift
        xt[part] = _poly(rp, num) / _poly(rp, den)
    xt[edge] = np.inf
    np.negative(xt, out=xt, where=qt < 0.0)
    out[tail] = xt
    return out


_EXP_UNDERFLOW = math.log(np.finfo(float).tiny)


class TruncatedNormal:
    """Normal(mean, stddev) truncated to [lower, upper] and renormalized.

    Sampling uses the inverse CDF on the truncated quantile range, so a
    fixed seed always consumes exactly one uniform per draw. The normal
    CDF is :func:`_normal_cdf` (``math.erfc``) and its quantile is
    :func:`_normal_quantile`, Wichura's AS241 over the whole array.
    ``pdf`` and ``sample`` run their chains in place in one array.
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
        # Below log(tiny), about -708.4, exp takes its slow underflow
        # path. Far outside a narrow support z falls there, and only then
        # is z masked (the min costs a fraction of the mask); exp(0) in
        # its place is zeroed again below.
        if z.min(initial=0.0) < _EXP_UNDERFLOW:
            zero_outside(z, inside)
        dens = np.exp(z, out=z)
        dens /= self.stddev * np.sqrt(2.0 * np.pi) * self._z
        return zero_outside(dens, inside)

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        q = rng.random(size, out=out)
        q *= self._z
        q += self._cdf_lo
        # q <= 0 (an underflowed _cdf_lo) and q >= 1 (a _cdf_hi of 1) map
        # to -inf and +inf, which the clip turns into lower and upper.
        x = _normal_quantile(q, out=q)
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

    Evaluations outside the declared support are exactly +0.0, whatever
    ``fn`` returns there (NaN and inf included).
    """

    def __init__(self, fn: Callable, support):
        self.fn = fn
        self.support = _as_interval_union(support)
        self.pieces: tuple | None = None  # set for piecewise-constant maps
        self._steps: np.ndarray | None = None  # their values, in support order

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # One search of the support gives a step function's piece index
        # and the inside mask.
        index, inside = self.support.locate(x)
        # A fresh float64 copy of the values, broadcast to x: fn may
        # return x itself, or a scalar.
        hv = np.empty(x.shape)
        hv[...] = self.fn(x) if self._steps is None else self._steps[index]
        return zero_outside(hv, inside)

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
        obj.pieces, obj._steps = pieces, values
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
    pruning: PruningSet
    surface: "SyntheticReturnSurface | None" = None

    def __post_init__(self):
        f_set, g_set, h = self.target.support, self.sampling.support, self.evaluation
        lows, highs, mid = _breakpoint_cells(f_set, g_set, h.support)
        # Membership in each support is constant on a cell, and a
        # density's support agrees with pdf > 0.
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

    @cached_property
    def terms(self) -> tuple[np.ndarray, ...]:
        """(p, w, h, in_c), built once: sum p phi(w, h, in_c) is the
        integral of g phi(f/g, h, [x in C]). They are the cell table's
        exact terms if there is one, else :meth:`node_terms` at
        ``_QUAD_NODES`` Gauss-Legendre nodes on each :meth:`support_cells`
        cell, where each integrand is analytic (the rule converges
        geometrically) and the interior nodes read one-sided limits."""
        table = self.cells
        if table is not None:
            return table.p, table.w, table.h, table.in_c
        return self.node_terms(*place_rule(*self.support_cells(), *_gauss_legendre()))

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
        keep = self.sampling.support.contains(mid)
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
        self,
        values: np.ndarray,
        observed: np.ndarray | None = None,
        out=None,
        *,
        t: float = 0.0,
    ):
        """Per-sample (weight, evaluation, in-C) arrays for a batch.

        Accepts any array shape; trailing axis semantics are up to the
        caller. ``observed``, when given, holds one observed value per
        sample (a noisy return, say) and is returned in place of h(x):
        h is then not evaluated, and the pruning spot-check reads the
        weight times the observed value, the term the estimators sum. Raises
        if a sample is impossible under g, and runs the coverage checks
        of :func:`check_coverage` for the control variate ``t``. The
        weights are written into ``out``, a float64 array of the batch's
        shape, when one is given; g(x) is held there until f(x)/g(x)
        replaces it.
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
        check_coverage(w, np.multiply(w, hv, out=fv), in_c, t)
        return w, hv, in_c


def _breakpoint_cells(*unions: IntervalUnion):
    """(lows, highs, midpoints) of the cells between the unions' endpoints."""
    edges = np.unique(np.concatenate([a for u in unions for a in (u.lows, u.highs)]))
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


# Gauss-Legendre nodes per support cell of a problem with no cell table.
# Against adaptive quadrature at cr_min = 10.99 (target stddev 0.01) the
# treatment v is 1.7e-14 off with 32 nodes and 1.3e-13 off with 16.
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


@dataclass(frozen=True)
class CellTable:
    """The constant cells of a piecewise-constant problem.

    Between consecutive breakpoints of f, g, h and C all four are
    constant, so the count of samples in each cell is a sufficient
    statistic for every estimator. Each cell ``[lows[j], highs[j]]``
    carries its mass ``p`` under g, the weight ``w`` = f/g, the
    evaluation ``h`` and membership ``in_c`` in C: the terms of
    :meth:`EstimationProblem.node_terms` under the midpoint rule, the
    one-node case of :func:`place_rule` on the
    :meth:`EstimationProblem.support_cells` cells. Cells outside the
    sampling support are left out: no sample can land there.
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
        # The one-node rule on [-1, 1]: node 0, weight 2.
        x, q = place_rule(lows, highs, [0.0], [2.0])
        return cls(lows, highs, *problem.node_terms(x, q))

    def check_coverage(self, counts: np.ndarray, t: float) -> None:
        """:func:`check_coverage` on the cells some trial hit."""
        hit = counts.any(axis=0)
        w = self.w[hit]
        check_coverage(w, w * self.h[hit], self.in_c[hit], t)


def draw(density, seed: int, count: int) -> SampleBatch:
    """Draw ``count`` i.i.d. samples; bit-for-bit reproducible per seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    values = density.sample(rng, count)
    return SampleBatch(values=values, seed=seed, n=count)
