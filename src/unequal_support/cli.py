"""Command-line interface.

Subcommands
-----------
estimate
    Draw one batch and print all three point estimates, the in-C count
    k, and the empirical mass k/n.
sweep-illustrative
    Analytic-vs-empirical table over an (f_max, theta, n) grid of the
    two-uniform example.
sweep-treatment
    The synthetic treatment-study surrogate over a cr_min grid.
bounds
    Mean Hoeffding bound locations per n, with the pruned bound's
    availability rate.
coverage
    One-sided lower-bound coverage per n.
moments
    The analytic mean/bias/variance/MSE catalog for given (n, c, v,
    theta) and optionally kappa.

Common flags: ``--seed <u64>``, ``--trials <int>``, ``--n <int>``,
``--out <path>``, ``--format csv|json``, ``--delta <real>``,
``--cv none|value:<real>|sampling-mean``. Tables print to stdout when
``--out`` is omitted. A negative value may follow its flag written
with an exponent or as -inf: ``--theta -1e3``, ``--theta -inf``.

Configuration files
-------------------
``estimate --config problem.yaml`` reads a YAML description of the
estimation problem:

.. code-block:: yaml

    problem:
      target:      {kind: uniform, low: 0.0, high: 0.5}
      sampling:    {kind: uniform, low: 0.0, high: 2.0}
      evaluation:
        pieces:
          - [0.0, 0.25, -1.0]
          - [0.25, 2.0, 1.0]
      pruning:
        intervals: [[0.0, 0.5]]

Density blocks accept ``kind: uniform`` (``low``, ``high``),
``kind: piecewise-uniform`` (``intervals``, optional ``weights``), or
``kind: truncated-normal`` (``lower``, ``upper``, ``mean``, ``stddev``).
The evaluation is a step function given as ``[lo, hi, value]`` pieces;
the pruning block takes ``intervals`` only, and c is their analytic
mass under the sampling density. Every block refuses a key it does
not read.

The argument parser is built once per process, on the first :func:`main`
call, and reused by every later call: parsing leaves the parser
unchanged and returns a fresh namespace each time.
"""

import argparse
import functools
import re
import sys

from .config import load_problem
from .densities import draw
from .estimators import ControlVariate, estimate_all
from .experiments import (
    coverage_experiment,
    emit,
    illustrative_problem,
    render,
    sampling_mean,
    sweep_bounds,
    sweep_illustrative,
    sweep_treatment_surrogate,
    treatment_problem,
)
from .moments import ESTIMATORS, MomentInputs, moment_report

__all__ = ["main"]

DEFAULT_F_MAX_GRID = [round(0.1 * i, 1) for i in range(1, 21)]
DEFAULT_THETA_GRID = [0.0, 1.0, 10.0]
DEFAULT_N_GRID = [5, 10, 50]
DEFAULT_CR_MIN_GRID = [8.5, 9.0, 9.5, 10.0, 10.375, 10.75]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _cv_spec(text: str) -> str:
    """The ``--cv`` spec itself, once :meth:`ControlVariate.from_spec`
    accepts it; its sampling mean is computed later, per problem."""
    try:
        ControlVariate.from_spec(text, lambda: 0.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output file (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _write(rows, args) -> None:
    if args.out:
        emit(rows, args.format, args.out)
    else:
        sys.stdout.write(render(rows, args.format))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unequal-support",
        description="Importance sampling with pruned-support estimates, "
        "closed-form moments, and Hoeffding bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="one batch, all three estimators")
    p.add_argument("--config", help="YAML problem description")
    p.add_argument(
        "--example",
        choices=("illustrative", "treatment"),
        default="illustrative",
        help="built-in problem when no --config is given",
    )
    p.add_argument("--f-max", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--cr-min", type=float, default=10.375)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cv", type=_cv_spec, default="none")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "sweep-illustrative", help="analytic-vs-empirical grid of the two-uniform example"
    )
    p.add_argument("--f-max-grid", type=_float_list, default=DEFAULT_F_MAX_GRID)
    p.add_argument("--theta-grid", type=_float_list, default=DEFAULT_THETA_GRID)
    p.add_argument("--n-grid", type=_int_list, default=DEFAULT_N_GRID)
    p.add_argument("--trials", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cv", type=_cv_spec, default="none")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sweep_illustrative)

    p = sub.add_parser("sweep-treatment", help="synthetic treatment-study surrogate")
    p.add_argument("--cr-min-grid", type=_float_list, default=DEFAULT_CR_MIN_GRID)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--trials", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cv", type=_cv_spec, default="none")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sweep_treatment)

    p = sub.add_parser("bounds", help="mean Hoeffding bound locations per n")
    p.add_argument("--f-max", type=float, default=0.5)
    p.add_argument("--n-grid", type=_int_list, default=[10, 20, 50, 100, 200])
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("coverage", help="one-sided lower-bound coverage per n")
    p.add_argument("--f-max", type=float, default=1.0)
    p.add_argument("--n-grid", type=_int_list, default=[10, 50])
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("moments", help="analytic moment catalog for (n, c, v, theta)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--kappa", type=int)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_moments)

    # argparse takes only -1 and -1.5 for negative numbers and reads
    # "--theta -1e3" or "--theta -inf" as a flag missing its value. No
    # flag here starts with '-' and a digit, '-.', '-inf' or '-infinity'
    # (tests/test_cli.py checks this).
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"-(\.?\d|inf(inity)?\b)", re.IGNORECASE)
    return parser


def _cmd_estimate(args) -> int:
    if args.config:
        problem = load_problem(args.config)
    elif args.example == "illustrative":
        problem = illustrative_problem(args.f_max, args.theta)
    else:
        problem = treatment_problem(args.cr_min)
    cv = ControlVariate.from_spec(args.cv, lambda: sampling_mean(problem))
    values = draw(problem.sampling, args.seed, args.n)
    results = estimate_all(problem, values, cv)
    k = results["US"].k
    for label, res in results.items():
        status = "defined" if res.defined else "undefined (value by convention)"
        print(f"{label:<3} = {res.value:.17g}  [{status}]")
    print(
        f"k = {k} of {args.n}, c-hat = {k / args.n:.17g}, c = {problem.c:.17g}, t = {cv.t:.17g}"
    )
    return 0


def _cmd_sweep_illustrative(args) -> int:
    rows = sweep_illustrative(
        args.f_max_grid, args.theta_grid, args.n_grid, args.trials, args.seed, args.cv
    )
    _write(rows, args)
    return 0


def _cmd_sweep_treatment(args) -> int:
    rows = sweep_treatment_surrogate(
        args.cr_min_grid, args.n, args.trials, args.cv, args.seed
    )
    _write(rows, args)
    return 0


def _cmd_bounds(args) -> int:
    rows = sweep_bounds(
        args.f_max, args.n_grid, args.delta, args.trials, args.seed, args.theta
    )
    _write(rows, args)
    return 0


def _cmd_coverage(args) -> int:
    rows = coverage_experiment(
        args.f_max, args.n_grid, args.delta, args.trials, args.theta, args.seed
    )
    _write(rows, args)
    return 0


def _cmd_moments(args) -> int:
    # The four averaged cells share one MomentInputs, and so one
    # E[1/K | K > 0] sum; the conditioned-exact cells need kappa set.
    averaged = MomentInputs(args.n, args.c, args.v, args.theta)
    rows = [
        moment_report(estimator, regime, averaged)
        for estimator in ESTIMATORS
        for regime in ("unconditional", "conditioned-positive")
    ]
    if args.kappa is not None:
        exact = MomentInputs(args.n, args.c, args.v, args.theta, args.kappa)
        rows += [
            moment_report(estimator, "conditioned-exact", exact) for estimator in ESTIMATORS
        ]
    _write(rows, args)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Bad paths and bad problem descriptions are user input, not bugs.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
