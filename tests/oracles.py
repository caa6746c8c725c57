"""Closed forms, and problems with known answers, that the tests hold the
library to."""

from unequal_support.densities import (
    EstimationProblem,
    EvaluationFunction,
    PiecewiseUniform,
)
from unequal_support.experiments import SyntheticReturnSurface


def illustrative_params(f_max: float) -> tuple[float, float]:
    """(c, v) of ``illustrative_problem(f_max, theta)`` for every theta.

    Target uniform on [0, f_max], sampling uniform on [0, 2], evaluation
    theta - 1 below f_max/2 and theta + 1 above, pruned to the target
    support. Then c = f_max/2 and v = 4/f_max^2 regardless of theta: the
    conditional term (f/g) h has two equally likely values 2/f_max apart.
    """
    return f_max / 2.0, 4.0 / (f_max * f_max)


def surface_step_problem() -> EstimationProblem:
    """A step h under the default return surface: f = U[10, 11],
    g = U[8.5, 11], h = 0.87 below 10.5 and 0.91 above, C = [10, 11].

    The simulation observes the surface's returns, which reach
    0.91 + 0.01 + 0.03 = 0.95, so w times an observation reaches
    2.5 x 0.95 = 2.375, past the 2.5 x 0.91 = 2.275 that h alone gives.
    """
    h = EvaluationFunction.piecewise_constant([(8.5, 10.5, 0.87), (10.5, 11.0, 0.91)])
    return EstimationProblem(
        PiecewiseUniform.uniform(10.0, 11.0),
        PiecewiseUniform.uniform(8.5, 11.0),
        h,
        [(10.0, 11.0)],
        SyntheticReturnSurface(),
    )
