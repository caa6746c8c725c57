"""Closed forms that the tests hold the library to."""


def illustrative_params(f_max: float) -> tuple[float, float]:
    """(c, v) of ``illustrative_problem(f_max, theta)`` for every theta.

    Target uniform on [0, f_max], sampling uniform on [0, 2], evaluation
    theta - 1 below f_max/2 and theta + 1 above, pruned to the target
    support. Then c = f_max/2 and v = 4/f_max^2 regardless of theta: the
    conditional term (f/g) h has two equally likely values 2/f_max apart.
    """
    return f_max / 2.0, 4.0 / (f_max * f_max)
