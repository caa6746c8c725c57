"""The NumPy-style ``out=`` contract of the sample-path layers.

Every entry point that takes ``out`` gives the same bits with it as
without it, leaves its inputs alone, returns ``out`` itself (first,
where it returns a tuple), and rejects an ``out`` of the wrong shape.
"""

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np
import pytest

from unequal_support.densities import (
    EstimationProblem,
    PiecewiseUniform,
    PruningCoverageError,
    SamplingSupportError,
    TruncatedNormal,
)
from unequal_support.experiments import SyntheticReturnSurface, treatment_problem

SHAPE = (37, 11)
SURFACE = SyntheticReturnSurface()
SURROGATE = treatment_problem(9.5, SURFACE)
DENSITIES = {
    "one-piece": PiecewiseUniform.uniform(8.5, 11.0),
    "two-piece": PiecewiseUniform([(8.5, 9.0), (9.5, 11.0)], weights=[0.3, 0.7]),
    "truncated-normal": SURROGATE.target,
}


def points(seed=0):
    """Points across [8, 11.5], with the edge cases a pdf must place."""
    x = np.random.default_rng(seed).uniform(8.0, 11.5, SHAPE)
    x.flat[:6] = [8.5, 9.5, 11.0, np.nan, np.inf, -np.inf]
    return x


def surrogate_points(seed=0):
    return SURROGATE.sampling.sample(np.random.default_rng(seed), SHAPE)


@dataclass(frozen=True)
class Case:
    name: str
    inputs: Callable[[], tuple]
    call: Callable  # (inputs, out) -> result

    def __str__(self):
        return self.name


def _first(result):
    return result[0] if isinstance(result, tuple) else result


CASES = [
    *(
        Case(f"pdf-{name}", lambda: (points(),), lambda a, out, d=d: d.pdf(a[0], out=out))
        for name, d in DENSITIES.items()
    ),
    *(
        Case(
            f"sample-{name}",
            lambda: (),
            lambda a, out, d=d: d.sample(np.random.default_rng(5), SHAPE, out=out),
        )
        for name, d in DENSITIES.items()
    ),
    Case(
        "marginal_return",
        lambda: (points(),),
        lambda a, out: SURFACE.marginal_return(a[0], out=out),
    ),
    Case(
        "observe",
        lambda: (surrogate_points(),),
        lambda a, out: SURFACE.observe(np.random.default_rng(7), a[0], out=out),
    ),
    Case(
        "batch_terms-observed",
        lambda: (
            surrogate_points(),
            SURFACE.observe(np.random.default_rng(7), surrogate_points()),
        ),
        lambda a, out: SURROGATE.batch_terms(a[0], a[1], out=out),
    ),
    Case(
        "batch_terms-h",
        lambda: (surrogate_points(),),
        lambda a, out: SURROGATE.batch_terms(a[0], out=out),
    ),
]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", CASES, ids=str)
def test_out_matches_fresh_result(case):
    inputs = case.inputs()
    kept = [a.copy() for a in inputs]
    fresh = case.call(inputs, None)
    out = np.full(SHAPE, -7.0)
    got = case.call(inputs, out)
    for before, after in zip(kept, inputs):
        assert _same_bits(before, after)
    assert _first(got) is out
    fresh = fresh if isinstance(fresh, tuple) else (fresh,)
    got = got if isinstance(got, tuple) else (got,)
    assert len(fresh) == len(got)
    for a, b in zip(fresh, got):
        assert _same_bits(a, b)


@pytest.mark.parametrize("case", CASES, ids=str)
@pytest.mark.parametrize("shape", [SHAPE[::-1], (SHAPE[0] + 1, SHAPE[1]), (2, *SHAPE)])
def test_wrong_shape_out_raises(case, shape):
    with pytest.raises(ValueError):
        case.call(case.inputs(), np.zeros(shape))


@pytest.mark.parametrize("name", DENSITIES)
def test_scalar_pdf_matches_array_pdf(name):
    d = DENSITIES[name]
    for x in (8.0, 8.75, 9.25, 10.0, 11.0):
        value = d.pdf(x)
        assert value.shape == ()
        assert float(value) == d.pdf(np.array([x]))[0]


def test_checks_still_raise_with_out():
    out = np.empty(4)
    with pytest.raises(SamplingSupportError):
        SURROGATE.batch_terms(np.array([9.0, 10.0, 12.0, 10.5]), out=out)
    problem = EstimationProblem(
        SURROGATE.target, SURROGATE.sampling, SURROGATE.evaluation, [(10.0, 11.0)]
    )
    with pytest.raises(PruningCoverageError):
        problem.batch_terms(np.array([9.75, 10.0, 10.5, 10.75]), out=out)


def test_in_place_chains_match_direct_formulas():
    """Each in-place chain gives the bits of its textbook expression."""
    u = np.random.default_rng(5).uniform(0.0, 1.0, SHAPE)
    d = DENSITIES["two-piece"]
    cum = np.concatenate([[0.0], np.cumsum(d.weights)])
    cum[-1] = 1.0
    j = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(d.weights) - 1)
    lo, hi = d.support.lows[j], d.support.highs[j]
    expected = lo + (u - cum[j]) / d.weights[j] * (hi - lo)
    assert _same_bits(d.sample(np.random.default_rng(5), SHAPE), expected)

    tn = TruncatedNormal(9.5, 11.0, mean=11.0, stddev=1.5)
    x = tn.mean + tn.stddev * np.vectorize(NormalDist().inv_cdf)(tn._cdf_lo + u * tn._z)
    expected = np.clip(x, tn.lower, tn.upper)
    assert _same_bits(tn.sample(np.random.default_rng(5), SHAPE), expected)

    x = points(4)
    z = (x - tn.mean) / tn.stddev
    dens = np.exp(-0.5 * z * z) / (tn.stddev * np.sqrt(2.0 * np.pi) * tn._z)
    expected = np.where((x >= tn.lower) & (x <= tn.upper), dens, 0.0)
    assert _same_bits(tn.pdf(x), expected)

    s = SURFACE
    rel = (s.cr_high - x) / (s.cr_high - s.cr_low)
    base = s.base_level + s.base_gain * (1.0 - rel * rel)
    assert _same_bits(s.marginal_return(x), base)
