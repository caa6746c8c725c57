"""Densities, evaluation functions, estimation problems, and batch plumbing."""

import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from unequal_support import densities
from unequal_support.cli import DEFAULT_F_MAX_GRID
from unequal_support.config import load_problem
from unequal_support.densities import (
    Density,
    EstimationProblem,
    EvaluationFunction,
    IntervalUnion,
    PiecewiseUniform,
    PruningCoverageError,
    SamplingSupportError,
    TruncatedNormal,
    _normal_cdf,
    draw,
)
from unequal_support.estimators import estimate_all
from unequal_support.experiments import illustrative_problem, run_trials, treatment_problem


class _FixedUniforms:
    """Stands in for a Generator whose ``random`` fills with given values."""

    def __init__(self, values):
        self.values = values

    def random(self, size, out=None):
        out = np.empty(size) if out is None else out
        out[...] = self.values
        return out


class TestDensityProtocol:
    def test_all_families_conform(self):
        uniform = PiecewiseUniform.uniform(0.0, 1.0)
        truncated = TruncatedNormal(0.0, 1.0, 1.0, 0.5)
        for density in (uniform, truncated):
            assert isinstance(density, Density)
            assert isinstance(density.support, IntervalUnion)

    def test_plain_objects_do_not_conform(self):
        assert not isinstance(object(), Density)


class TestIntervalUnion:
    def test_membership_closed_endpoints(self):
        union = IntervalUnion([(0.0, 1.0), (2.0, 3.0)])
        x = np.array([-0.1, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.1])
        expected = [False, True, True, True, False, True, True, False]
        assert union.contains(x).tolist() == expected

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            IntervalUnion([(0.0, 1.0), (0.5, 2.0)])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalUnion([(1.0, 1.0)])

    def test_touching_intervals_allowed(self):
        union = IntervalUnion([(0.0, 1.0), (1.0, 2.0)])
        assert list(union) == [(0.0, 1.0), (1.0, 2.0)]

    @settings(max_examples=100, deadline=None)
    @given(
        low=st.floats(-1e6, 1e6),
        length=st.floats(1e-6, 1e6),
        points=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30),
    )
    def test_one_interval_matches_search(self, low, length, points):
        high = low + length
        if not low < high:
            return
        union = IntervalUnion([(low, high)])
        edges = [low, high, np.nextafter(low, -np.inf), np.nextafter(high, np.inf)]
        x = np.array(points + edges + [-np.inf, np.inf, np.nan])
        # The general lookup: search the sorted lower endpoints.
        idx = np.searchsorted(union.lows, x, side="right") - 1
        idx_c = np.clip(idx, 0, len(union) - 1)
        inside = (idx >= 0) & (x <= union.highs[idx_c])
        got_idx, got_inside = union.locate(x)
        assert np.array_equal(np.broadcast_to(got_idx, x.shape), idx_c)
        assert np.array_equal(got_inside, inside)
        assert np.array_equal(union.contains(x), inside)
        assert union.contains(low) and union.contains(high)
        assert not union.contains(np.nan)

    def test_three_intervals_match_the_clipped_search(self):
        """Below the first low, in each gap, on every endpoint, above the
        last high, at +-inf and at NaN, array and scalar."""
        union = IntervalUnion([(4.0, 5.0), (0.0, 1.0), (2.0, 3.0)])
        x = np.array([
            -1.0, 0.5, 1.5, 2.5, 3.5, 4.5, 6.0,
            0.0, 1.0, 2.0, 3.0, 4.0, 5.0, -np.inf, np.inf, np.nan,
        ])
        idx = np.searchsorted(union.lows, x, side="right") - 1
        idx_c = np.clip(idx, 0, len(union) - 1)
        inside = (idx >= 0) & (x <= union.highs[idx_c])
        got_idx, got_inside = union.locate(x)
        assert got_idx.tolist() == idx_c.tolist()
        assert idx_c.tolist() == [0, 0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2, 0, 2, 2]
        assert got_inside.tolist() == inside.tolist()
        between = [False, True, False, True, False, True, False]
        assert inside.tolist() == between + [True] * 6 + [False] * 3
        for point, want_idx, want_inside in zip(x, idx_c, inside):
            got_idx, got_inside = union.locate(point)
            assert (got_idx, got_inside) == (want_idx, want_inside)


class TestPiecewiseUniform:
    def test_uniform_pdf_values(self):
        g = PiecewiseUniform.uniform(0.0, 2.0)
        assert float(g.pdf(1.0)) == 0.5
        assert float(g.pdf(2.5)) == 0.0

    def test_outside_support_is_zero(self):
        f = PiecewiseUniform.uniform(0.0, 1.0)
        assert float(f.pdf(1.5)) == 0.0

    def test_full_support_mass_is_one(self):
        d = PiecewiseUniform([(0.0, 1.0), (3.0, 4.0)], weights=[0.7, 0.3])
        assert abs(d.interval_mass([(0.0, 1.0), (3.0, 4.0)]) - 1.0) <= 1e-12

    def test_interval_mass_additive(self):
        d = PiecewiseUniform([(0.0, 2.0)])
        total = d.interval_mass([(0.0, 0.5)]) + d.interval_mass([(0.5, 2.0)])
        assert abs(total - d.interval_mass([(0.0, 2.0)])) <= 1e-12

    def test_interval_mass_illustrative(self):
        g = PiecewiseUniform.uniform(0.0, 2.0)
        assert abs(g.interval_mass([(0.0, 1.0)]) - 0.5) <= 1e-12
        assert abs(g.interval_mass([(0.0, 2.0)]) - 1.0) <= 1e-12

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            PiecewiseUniform([(0.0, 1.0), (2.0, 3.0)], weights=[0.7, 0.7])
        with pytest.raises(ValueError):
            PiecewiseUniform([(0.0, 1.0)], weights=[0.5, 0.5])
        for weights in ([math.nan, 1.0], [0.5, math.nan], [math.inf, 0.5]):
            with pytest.raises(ValueError, match="weights"):
                PiecewiseUniform([(0.0, 1.0), (2.0, 3.0)], weights=weights)

    def test_weighted_sampling_hits_both_intervals(self):
        d = PiecewiseUniform([(0.0, 1.0), (5.0, 6.0)], weights=[0.25, 0.75])
        rng = np.random.default_rng(1)
        x = d.sample(rng, 40_000)
        frac_high = np.mean(x >= 5.0)
        assert abs(frac_high - 0.75) <= 3.0 * np.sqrt(0.75 * 0.25 / 40_000)

    @pytest.mark.parametrize(
        "interval, weights",
        [((0.0, 2.0), None), ((8.5, 11.0), None), ((-3.0, 7.25), [1.0 - 4e-13])],
    )
    def test_one_piece_sample_is_the_inverse_cdf(self, interval, weights):
        d = PiecewiseUniform([interval], weights)
        fast_rng, rng = np.random.default_rng(17), np.random.default_rng(17)
        fast = d.sample(fast_rng, (64, 9))
        # The general inverse CDF from the same generator state.
        cum = np.concatenate([[0.0], np.cumsum(d.weights)])
        cum[-1] = 1.0
        u = rng.uniform(0.0, 1.0, size=(64, 9))
        j = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(d.weights) - 1)
        lo, hi = d.support.lows[j], d.support.highs[j]
        expected = lo + (u - cum[j]) / d.weights[j] * (hi - lo)
        assert np.array_equal(fast.view(np.uint64), expected.view(np.uint64))
        assert fast_rng.bit_generator.state == rng.bit_generator.state

    def test_one_piece_pdf_matches_lookup(self):
        d = PiecewiseUniform([(-1.0, 3.0)])
        x = np.array([-np.inf, -1.5, -1.0, 0.0, 3.0, 3.5, np.inf, np.nan])
        inside = (x >= -1.0) & (x <= 3.0)
        assert np.array_equal(d.pdf(x), np.where(inside, 0.25, 0.0))
        assert float(d.pdf(3.0)) == 0.25

    @settings(max_examples=50, deadline=None)
    @given(
        cuts=st.lists(
            st.floats(-50.0, 50.0, allow_nan=False), min_size=2, max_size=8, unique=True
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_union_properties(self, cuts, seed):
        pts = sorted(cuts)
        intervals = [(a, b) for a, b in zip(pts[:-1], pts[1:]) if b - a > 1e-6]
        if not intervals:
            return
        d = PiecewiseUniform(intervals)
        assert abs(d.interval_mass(intervals) - 1.0) <= 1e-12
        rng = np.random.default_rng(seed)
        x = d.sample(rng, 256)
        assert d.support.contains(x).all()
        assert (d.pdf(x) > 0).all()


class TestRestrict:
    def test_piecewise_uniform_inside_one_piece_is_uniform(self):
        g = PiecewiseUniform([(0.0, 1.0), (1.0, 2.0)], weights=[0.4, 0.6])
        cell = g.restrict(1.0, 1.75)
        assert list(cell.support) == [(1.0, 1.75)] and cell.weights.tolist() == [1.0]
        rng, plain = np.random.default_rng(5), np.random.default_rng(5)
        assert np.array_equal(cell.sample(rng, 100), plain.uniform(1.0, 1.75, 100))

    def test_piecewise_uniform_across_pieces_is_conditioned(self):
        g = PiecewiseUniform([(0.0, 1.0), (2.0, 3.0), (3.0, 5.0)], weights=[0.2, 0.5, 0.3])
        part = g.restrict(0.5, 4.0)
        assert list(part.support) == [(0.5, 1.0), (2.0, 3.0), (3.0, 4.0)]
        mass = g.interval_mass([(0.5, 4.0)])
        x = np.linspace(0.0, 5.0, 101)
        inside = (x >= 0.5) & (x <= 4.0) & g.support.contains(x)
        want = np.where(inside, g.pdf(x) / mass, 0.0)
        assert part.pdf(x) == pytest.approx(want, rel=1e-14)

    def test_truncated_normal(self):
        g = TruncatedNormal(0.0, 2.0, mean=0.5, stddev=1.0)
        part = g.restrict(1.0, 3.0)
        assert (part.lower, part.upper, part.mean, part.stddev) == (1.0, 2.0, 0.5, 1.0)
        x = np.linspace(1.0, 2.0, 11)
        assert part.pdf(x) == pytest.approx(g.pdf(x) / g.interval_mass([(1.0, 2.0)]), rel=1e-13)
        # Over its whole support it draws g's samples.
        whole, rng = g.restrict(0.0, 2.0), np.random.default_rng(2)
        assert np.array_equal(whole.sample(rng, 50), g.sample(np.random.default_rng(2), 50))

    def test_no_mass_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseUniform([(0.0, 1.0), (2.0, 3.0)]).restrict(1.2, 1.8)
        with pytest.raises(ValueError):
            TruncatedNormal(0.0, 100.0, mean=0.0, stddev=0.1).restrict(50.0, 60.0)


class TestTruncatedNormal:
    def test_pdf_against_quadrature_oracle(self):
        lo, hi, mean, sd = 10.375, 11.0, 11.0, 0.625
        d = TruncatedNormal(lo, hi, mean, sd)

        def unnorm(x):
            return np.exp(-0.5 * ((x - mean) / sd) ** 2)

        z, _ = quad(unnorm, lo, hi)
        expected = unnorm(11.0) / z
        assert abs(float(d.pdf(11.0)) - expected) <= 1e-9 * expected
        assert float(d.pdf(11.0)) == pytest.approx(1.8699794152218137, rel=1e-12)

    def test_pdf_is_zero_where_exp_underflows_below_the_support(self):
        """At cr_min = 10.99 (sigma = 0.01) z reaches -31 250 below the
        support, where exp underflows. Inside the support the values keep
        the bits of the formula without the zeroing; outside it they are
        +0.0."""
        d = treatment_problem(10.99).target
        x = np.concatenate([np.linspace(8.5, 11.0, 50_001), [10.99, 11.0]])
        dens = d.pdf(x)
        inside = d.support.contains(x)
        z = (x[inside] - d.mean) / d.stddev
        want = np.exp(z * z * -0.5) / (d.stddev * np.sqrt(2.0 * np.pi) * d._z)
        assert dens[inside].tobytes() == want.tobytes()
        assert inside.sum() > 200 and not dens[~inside].view(np.int64).any()

    def test_full_mass_is_one(self):
        d = TruncatedNormal(-1.0, 3.0, 0.5, 1.2)
        assert abs(d.interval_mass([(-1.0, 3.0)]) - 1.0) <= 1e-12

    def test_zero_outside(self):
        d = TruncatedNormal(0.0, 1.0, 0.0, 1.0)
        assert float(d.pdf(-0.5)) == 0.0
        assert float(d.pdf(1.5)) == 0.0

    def test_samples_in_support(self):
        d = TruncatedNormal(10.375, 11.0, 11.0, 0.625)
        rng = np.random.default_rng(3)
        x = d.sample(rng, 10_000)
        assert ((x >= 10.375) & (x <= 11.0)).all()

    @pytest.mark.parametrize(
        "bounds",
        [
            (10.375, 11.0, 11.0, 0.625),
            (-60.0, 1.0, 0.0, 1.0),  # _cdf_lo underflows to 0
            (0.0, 60.0, 0.0, 1.0),  # _cdf_hi is 1; q rounds to 1 at u = 1 - 2**-53
        ],
    )
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_extreme_uniforms_stay_in_support(self, bounds, u):
        d = TruncatedNormal(*bounds)
        x = d.sample(_FixedUniforms(u), 8)
        assert ((x >= d.lower) & (x <= d.upper)).all()

    def test_quantile_edges_land_on_the_bounds(self):
        low = TruncatedNormal(-60.0, 1.0, 0.0, 1.0)
        assert low._cdf_lo == 0.0
        assert (low.sample(_FixedUniforms(0.0), 4) == -60.0).all()
        high = TruncatedNormal(0.0, 60.0, 0.0, 1.0)
        assert high._cdf_lo + (1.0 - 2.0**-53) * high._z == 1.0
        assert (high.sample(_FixedUniforms(1.0 - 2.0**-53), 4) == 60.0).all()

    def test_normal_cdf_against_ndtr(self):
        # The treatment target's normaliser reads z = -1 and 0 only.
        for z in (-1.0, 0.0):
            assert _normal_cdf(z) == ndtr(z)
        z = np.linspace(-8.0, 8.0, 16_001)
        got = np.array([_normal_cdf(v) for v in z])
        np.testing.assert_allclose(got, ndtr(z), rtol=1e-13, atol=0.0)

    def test_quantile_path_against_ndtri(self):
        # _cdf_lo underflows to 0 and _z is 1, so sample maps u itself.
        d = TruncatedNormal(-50.0, 50.0, 0.0, 1.0)
        assert (d._cdf_lo, d._z) == (0.0, 1.0)
        p = np.linspace(1e-12, 1.0 - 1e-12, 20_001)
        x = d.sample(_FixedUniforms(p), p.shape)
        assert np.max(np.abs(x - ndtri(p))) <= 4e-15
        # Geometric tails reach 4.4e-15 (5 ulps at |x| = 6.1): bound in ulps.
        tail = np.geomspace(1e-12, 0.5, 2_000)
        p = np.concatenate([tail, 1.0 - tail])
        x = d.sample(_FixedUniforms(p), p.shape)
        assert (np.abs(x - ndtri(p)) <= 8 * np.spacing(np.abs(ndtri(p)))).all()

    def test_quantile_bits_equal_inv_cdf(self):
        """Samples are bit-equal to NormalDist().inv_cdf of their uniform
        on a dense grid, both tails (down to 1e-300 and up to
        1 - 2**-53) and each side of inv_cdf's branch ends
        |p - 0.5| = 0.425 and min(p, 1 - p) = exp(-25)."""
        # _cdf_lo underflows to 0 and _z is 1, so sample maps u itself.
        d = TruncatedNormal(-50.0, 50.0, 0.0, 1.0)
        assert (d._cdf_lo, d._z) == (0.0, 1.0)
        ends = [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)]
        p = np.concatenate([
            np.linspace(0.0, 1.0, 200_001)[1:-1],
            np.geomspace(1e-300, 0.5, 20_000),
            1.0 - np.geomspace(2.0**-53, 0.5, 20_000),
            np.random.default_rng(8).random(100_000),
            [y for a in ends for y in (np.nextafter(a, 0.0), a, np.nextafter(a, 1.0))],
            [5e-324, 1.0 - 2.0**-53],
        ])
        inv = NormalDist().inv_cdf
        expected = np.clip([inv(v) for v in p], d.lower, d.upper)
        assert d.sample(_FixedUniforms(p), p.shape).tobytes() == expected.tobytes()
        # Into a caller's 2-D buffer.
        grid = p[: 2 * (p.size // 2)].reshape(2, -1)
        want = expected[: grid.size].reshape(grid.shape)
        got = d.sample(_FixedUniforms(grid), grid.shape, out=np.empty_like(grid))
        assert got.tobytes() == want.tobytes()

    def test_interval_mass_additive(self):
        d = TruncatedNormal(0.0, 2.0, 1.0, 0.7)
        parts = d.interval_mass([(0.0, 0.8)]) + d.interval_mass([(0.8, 2.0)])
        assert abs(parts - 1.0) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TruncatedNormal(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            TruncatedNormal(0.0, 1.0, 0.0, -1.0)
        nan = math.nan
        for args in [(nan, 1.0, 0.0, 1.0), (0.0, nan, 0.0, 1.0),
                     (0.0, 1.0, nan, 1.0), (0.0, 1.0, 0.0, nan)]:
            with pytest.raises(ValueError):
                TruncatedNormal(*args)


class TestDraw:
    def test_deterministic_per_seed(self):
        g = PiecewiseUniform.uniform(0.0, 2.0)
        a = draw(g, 17, 1000)
        assert a.shape == (1000,) and a.dtype == np.float64
        assert a.tobytes() == draw(g, 17, 1000).tobytes()
        # The default_rng(seed) stream, one uniform per draw.
        assert a.tobytes() == g.sample(np.random.default_rng(17), 1000).tobytes()

    def test_support_containment(self):
        g = PiecewiseUniform.uniform(0.0, 2.0)
        values = draw(g, 5, 1000)
        assert ((values >= 0.0) & (values <= 2.0)).all()

    def test_large_sample_mean(self):
        g = PiecewiseUniform.uniform(0.0, 2.0)
        values = draw(g, 99, 10**6)
        se = (2.0 / np.sqrt(12.0)) / 1000.0
        assert abs(values.mean() - 1.0) <= 3.0 * se

    def test_count_validated(self):
        g = PiecewiseUniform.uniform(0.0, 2.0)
        with pytest.raises(ValueError):
            draw(g, 0, 0)


class TestEvaluationFunction:
    def test_zero_outside_declared_support(self):
        h = EvaluationFunction(lambda x: np.ones_like(x), [(0.0, 1.0)])
        out = h(np.array([-0.5, 0.5, 1.5]))
        assert out.tolist() == [0.0, 1.0, 0.0]

    def test_piecewise_constant_boundary_takes_right_piece(self):
        h = EvaluationFunction.piecewise_constant([(0.0, 0.5, -1.0), (0.5, 2.0, 1.0)])
        out = h(np.array([0.25, 0.5, 1.0, 2.0, 2.5]))
        assert out.tolist() == [-1.0, 1.0, 1.0, 1.0, 0.0]

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.floats(-100.0, 100.0),
        spans=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
                st.floats(0.01, 10.0),
                st.floats(-1e6, 1e6),
            ),
            min_size=1,
            max_size=6,
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_piecewise_constant_matches_a_plain_lookup(self, start, spans, order):
        """Pieces that touch (gap 0) or are separated by gaps, given in any
        order: x takes the value of the piece holding it, the later piece's
        at a shared endpoint, and 0 outside every piece."""
        pieces, hi = [], start
        for gap, length, value in spans:
            lo = hi + gap
            hi = lo + length
            pieces.append((lo, hi, value))
        shuffled = list(pieces)
        order.shuffle(shuffled)
        h = EvaluationFunction.piecewise_constant(shuffled)

        def reference(x):
            value = 0.0
            for lo, hi, v in pieces:
                if lo <= x <= hi:
                    value = v
            return value

        anchors = [a for lo, hi, _ in pieces for a in (lo, hi, 0.5 * (lo + hi))]
        xs = [
            y for a in anchors
            for y in (np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf))
        ]
        xs += [-np.inf, np.inf, np.nan]
        assert h(np.array(xs)).tolist() == [reference(x) for x in xs]

    # One piece (the support's index is the scalar 0), and pieces that
    # touch, leave a gap and hold a -0.0.
    STEPS = [[(0.0, 1.0, 2.0)], [(0.0, 0.5, -1.0), (0.5, 1.0, -0.0), (1.5, 2.0, 3.0)]]

    @pytest.mark.parametrize("pieces", STEPS)
    def test_step_function_bits_match_its_lookup_as_a_plain_function(self, pieces):
        """At piece endpoints, in gaps and outside the support (NaN and
        +-inf included), the step function gives the bits of its pieces:
        the value of the last piece holding x, and +0.0 outside every
        piece. It is the generic path: its lookup ``fn``, then the
        support's membership."""
        h = EvaluationFunction.piecewise_constant(pieces)
        plain = EvaluationFunction(h.fn, h.support)
        ends = sorted({e for lo, hi, _ in pieces for e in (lo, hi)})
        xs = [y for a in ends for y in (np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf))]
        xs += [1.25, -3.0, 7.0, -np.inf, np.inf, np.nan]
        want = [0.0] * len(xs)
        for i, x in enumerate(xs):
            for lo, hi, value in pieces:
                if lo <= x <= hi:
                    want[i] = value
        pad = [0.0] * (-len(xs) % 3)
        xs = np.array(xs + pad).reshape(-1, 3)
        assert h(xs).tobytes() == np.array(want + pad).reshape(-1, 3).tobytes()
        assert h(xs).tobytes() == plain(xs).tobytes()

    def test_nan_and_inf_outside_support_become_zero(self):
        def fn(x):
            return np.where(x < 0.0, np.nan, np.where(x > 1.0, np.inf, -x))

        h = EvaluationFunction(fn, [(0.0, 1.0)])
        out = h(np.array([[-0.5, 0.0, 0.25], [1.0, 1.5, np.nan]]))
        assert out.dtype == np.float64
        assert out.tolist() == [[0.0, -0.0, -0.25], [-1.0, 0.0, 0.0]]
        # -inf too, and every zero outside the support is +0.0.
        h = EvaluationFunction(lambda x: -np.inf / x, [(0.0, 1.0)])
        out = h(np.array([-2.0, 0.5, 3.0]))
        assert out.tolist() == [0.0, -np.inf, 0.0]
        assert not np.signbit(out[[0, 2]]).any()

    def test_scalar_result_broadcasts(self):
        h = EvaluationFunction(lambda x: 3.0, [(0.0, 1.0)])
        out = h(np.array([-1.0, 0.5, 1.0, 2.0]))
        assert out.dtype == np.float64
        assert out.tolist() == [0.0, 3.0, 3.0, 0.0]

    def test_fn_returning_its_input_leaves_x_unchanged(self):
        h = EvaluationFunction(lambda x: x, [(0.0, 1.0)])
        x = np.array([-1.0, 0.5, 2.0])
        out = h(x)
        assert x.tolist() == [-1.0, 0.5, 2.0]
        assert out.tolist() == [0.0, 0.5, 0.0]

    def test_zero_dimensional_input(self):
        h = EvaluationFunction(lambda x: x + 1.0, [(0.0, 1.0)])
        for x, expected in [(np.float64(0.5), 1.5), (np.array(2.0), 0.0), (0.25, 1.25)]:
            out = h(x)
            assert out.shape == () and float(out) == expected


class TestPruningSet:
    def test_analytic_mass_from_intervals(self):
        """c is C's analytic mass under g, bit for bit: on a problem built
        from pairs or from an IntervalUnion, on every built-in problem of
        the default illustrative grid and the 25-point treatment grid of
        the benchmark, and on the shipped config."""
        g = PiecewiseUniform.uniform(8.5, 11.0)
        f = TruncatedNormal(10.375, 11.0, mean=11.0, stddev=0.625)
        h = EvaluationFunction(lambda x: x, [(8.5, 11.0)])
        for pruning in ([(10.375, 11.0)], IntervalUnion([(10.375, 11.0)])):
            problem = EstimationProblem(f, g, h, pruning)
            assert isinstance(problem.pruning, IntervalUnion)
            assert abs(problem.c - 0.25) <= 1e-12
            assert problem.pruning.contains(np.array([10.5, 9.0])).tolist() == [True, False]
        problems = [illustrative_problem(f_max) for f_max in DEFAULT_F_MAX_GRID]
        problems += [treatment_problem(8.5 + 0.1 * i) for i in range(25)]
        problems.append(load_problem(Path(__file__).parents[1] / "configs/illustrative.yaml"))
        assert len(problems) == 46
        for problem in problems:
            mass = problem.sampling.interval_mass(problem.pruning)
            assert 0.0 < mass <= 1.0 and problem.c == mass

    def test_mass_bounds_enforced(self):
        """A C of zero mass under g raises, before the F ∩ H ⊆ G check
        that the same problem also fails. A mass past 1 by the roundoff
        of weights that sum to 1 within tolerance reads as c = 1."""
        g = PiecewiseUniform([(0.0, 1.0), (1.5, 2.0)])
        f = PiecewiseUniform.uniform(0.2, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 2.0, 1.0)])
        with pytest.raises(SamplingSupportError):
            EstimationProblem(f, g, h, [(0.0, 2.0)])
        for pruning in ([(1.1, 1.4)], [(-1.0, -0.5)], [(3.0, 4.0)]):
            with pytest.raises(ValueError, match=r"^c must lie in \(0, 1\]$"):
                EstimationProblem(f, g, h, pruning)
        g = PiecewiseUniform([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)], [0.33, 0.56, 0.11])
        assert g.interval_mass([(0.0, 3.0)]) > 1.0
        f = PiecewiseUniform.uniform(0.0, 1.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        assert EstimationProblem(f, g, h, [(0.0, 3.0)]).c == 1.0


class TestEstimationProblem:
    def _problem(self):
        f = PiecewiseUniform.uniform(0.0, 1.0)
        g = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        return EstimationProblem(f, g, h, [(0.0, 1.0)])

    def test_batch_terms_values(self):
        problem = self._problem()
        w, centered, in_c = problem.batch_terms(np.array([0.5, 1.5]))
        assert w.tolist() == [2.0, 0.0]
        assert centered.tolist() == [2.0, 0.0]
        assert in_c.tolist() == [True, False]
        _, centered, _ = problem.batch_terms(np.array([0.5, 0.75]), t=0.25)
        assert centered.tolist() == [1.5, 1.5]
        assert problem.c == 0.5

    def test_target_mass_outside_sampling_support_rejected(self):
        # theta = 1, but g = 0 on (1, 1.5) where f h = 1/1.8: every
        # estimator would converge to sum p w h = 1.3/1.8 instead. The
        # error names the cell between the breakpoints of f, g and h,
        # whether or not C's endpoints cut it.
        g = PiecewiseUniform([(0.0, 1.0), (1.5, 2.0)])
        f = PiecewiseUniform.uniform(0.2, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 2.0, 1.0)])
        for pruning in ([(0.0, 2.0)], [(0.0, 1.25), (1.4, 2.0)]):
            with pytest.raises(SamplingSupportError, match=r"\[1, 1.5\]"):
                EstimationProblem(f, g, h, pruning)

    def test_one_breakpoint_pass_per_problem(self, monkeypatch):
        """The construction check and the terms share the
        cells between the breakpoints of f, g, h and C."""
        calls = []
        original = densities._breakpoint_cells

        def spy(*unions):
            calls.append(len(unions))
            return original(*unions)

        monkeypatch.setattr(densities, "_breakpoint_cells", spy)
        for problem in (illustrative_problem(0.5, 1.0), treatment_problem(9.5)):
            problem.terms
            problem.support_cells()
        assert calls == [4, 4]

    def test_truncated_normal_target_outside_sampling_rejected(self):
        g = PiecewiseUniform.uniform(0.5, 2.0)
        f = TruncatedNormal(0.0, 1.0, mean=1.0, stddev=1.0)
        h = EvaluationFunction(lambda x: x + 1.0, [(0.0, 2.0)])
        with pytest.raises(SamplingSupportError):
            EstimationProblem(f, g, h, [(0.5, 2.0)])

    def test_target_outside_sampling_where_h_vanishes_accepted(self):
        # f > 0 on the gap (1, 1.5) but h = 0 there, so theta = E_f[h]
        # misses nothing and IS stays unbiased.
        g = PiecewiseUniform([(0.0, 1.0), (1.5, 2.0)])
        f = PiecewiseUniform.uniform(0.2, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0), (1.5, 2.0, 1.0)])
        problem = EstimationProblem(f, g, h, [(0.0, 2.0)])
        theta = 1.3 / 1.8
        stats = run_trials(problem, 20, 20_000, theta, seed=5)
        assert abs(stats["IS"].mean - theta) <= 4.0 * stats["IS"].se_mean

    def test_sample_outside_g_rejected(self):
        """g = U[0, 2] is one piece, read as its height: a sample outside
        [0, 2], or NaN, is impossible under it."""
        problem = self._problem()
        problem.batch_terms(np.array([[0.0, 2.0]]))
        for x in (2.5, 2.0000000000000004, -0.5, -5e-324, np.nan, np.inf):
            with pytest.raises(SamplingSupportError):
                problem.batch_terms(np.array([[0.5, x], [1.0, 1.5]]))

    def test_sample_in_a_gap_of_g_rejected(self):
        g = PiecewiseUniform([(0.0, 1.0), (1.5, 2.0)])
        f = PiecewiseUniform.uniform(0.0, 1.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        problem = EstimationProblem(f, g, h, [(0.0, 1.0)])
        problem.batch_terms(np.array([0.0, 1.0, 1.5, 2.0]))
        for x in (1.25, 2.5, np.nan):
            with pytest.raises(SamplingSupportError):
                problem.batch_terms(np.array([0.5, x]))

    def test_pruning_coverage_violation_detected(self):
        f = PiecewiseUniform.uniform(0.0, 1.0)
        g = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        bad = EstimationProblem(f, g, h, [(0.0, 0.5)])
        with pytest.raises(PruningCoverageError):
            bad.batch_terms(np.array([0.75]))


class TestSampleBatch:
    def test_shape_validated(self):
        """A batch is a 1-D array of at least one sample."""
        f = PiecewiseUniform.uniform(0.0, 1.0)
        g = PiecewiseUniform.uniform(0.0, 2.0)
        h = EvaluationFunction.piecewise_constant([(0.0, 1.0, 1.0)])
        problem = EstimationProblem(f, g, h, [(0.0, 1.0)])
        for values in (np.zeros((1, 3)), np.zeros((3, 1)), np.zeros(0), np.float64(0.5)):
            with pytest.raises(ValueError, match="1-D array of at least one sample"):
                estimate_all(problem, values)
        assert estimate_all(problem, [0.5])["IS"].value == 2.0
