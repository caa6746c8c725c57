"""The benchmark's four workloads and the operations they issue.

An operation is one call into the package at a fixed, stated size plus
the rendering of its output, which is what a user receives. Operations
are grouped into rounds; each round holds one operation of every cost
class of its workload (for example n = 5, 10 and 50), so a run that
stops at a round boundary always measures the same mix. The cycle of
rounds repeats until the run's time is up.

Every random input derives from the workload seed: the Monte Carlo
sweeps take it as their master seed, and the ``cli-catalog`` workload
draws its v, theta, kappa, problem parameters and batch seeds from it.
"""

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from unequal_support import cli
from unequal_support import experiments as ex

import gates

ROOT = Path(__file__).resolve().parent.parent

ILLUSTRATIVE_F_MAX = [round(0.1 * i, 1) for i in range(1, 21)]
ILLUSTRATIVE_THETA = [0.0, 1.0, 10.0]
ILLUSTRATIVE_N = [5, 10, 50]
ILLUSTRATIVE_TRIALS = 20_000
ACCEPTANCE_F_MAX = [0.2, 0.5, 1.0, 2.0]

TREATMENT_CR_MIN = [8.5 + 0.1 * i for i in range(25)]
TREATMENT_CV = ["none", "sampling-mean"]
TREATMENT_N = 30
TREATMENT_TRIALS = 20_000

LARGE_F_MAX = 0.5
# Five sizes, so that neither p50 (2.5 sizes in) nor p75 (3.75) falls on
# the boundary between two cost classes, where it would jump between them.
LARGE_N = [128, 256, 384, 512, 1024]
LARGE_DELTA = 0.1
LARGE_THETA = 1.0
LARGE_TRIALS = 4096  # one full chunk

CATALOG_N = [10, 100, 1_000, 10_000, 100_000, 1_000_000]
# Fixed, not seeded: the cost of binom_inv_moment depends on c, so a
# seeded c would change the work from seed to seed.
CATALOG_C = [0.05, 0.25, 0.75]
CONFIG_PATH = ROOT / "configs" / "illustrative.yaml"


@dataclass(frozen=True)
class Op:
    """One operation: ``execute`` is timed, ``check`` is not.

    Operations with equal ``key`` take equal inputs, so their outputs
    must be byte-identical.
    """

    key: tuple
    execute: Callable[[], tuple]  # () -> (rendered text, payload)
    check: Callable[[str, object], gates.Verdict]


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: list  # list of rounds, each a list of Op
    trace_ops: list  # fixed operation list of the traced run


def _stride_order(count: int, stride: int = 7) -> list:
    """A fixed permutation that spreads any prefix over the whole range."""
    return [(i * stride) % count for i in range(count)]


def _sweep_text(rows) -> str:
    return ex.render(rows, "csv")


def _illustrative_op(f_max: float, theta: float, n: int, seed: int) -> Op:
    def execute():
        rows = ex.sweep_illustrative([f_max], [theta], [n], ILLUSTRATIVE_TRIALS, seed)
        return _sweep_text(rows), rows

    def check(text, rows):
        (row,) = rows
        c, v = f_max / 2.0, 4.0 / (f_max * f_max)
        return gates.sweep_row(row, ILLUSTRATIVE_TRIALS, c, v, theta, row.t)

    return Op(("illustrative", f_max, theta, n), execute, check)


def illustrative_grid(seed: int) -> Workload:
    rounds = [
        [_illustrative_op(ILLUSTRATIVE_F_MAX[i], theta, n, seed) for n in ILLUSTRATIVE_N]
        for i in _stride_order(len(ILLUSTRATIVE_F_MAX))
        for theta in ILLUSTRATIVE_THETA
    ]
    trace_ops = [
        _illustrative_op(f_max, theta, n, seed)
        for f_max in ACCEPTANCE_F_MAX
        for theta in ILLUSTRATIVE_THETA
        for n in ILLUSTRATIVE_N
    ]
    return Workload("illustrative-grid", rounds, trace_ops)


def _treatment_op(cr_min: float, cv: str, seed: int) -> Op:
    def execute():
        rows = ex.sweep_treatment_surrogate(
            [cr_min], TREATMENT_N, TREATMENT_TRIALS, cv, seed
        )
        return _sweep_text(rows), rows

    def check(text, rows):
        (row,) = rows
        c = (11.0 - cr_min) / 2.5
        return gates.sweep_row(row, TREATMENT_TRIALS, c, row.v, row.theta, row.t)

    return Op(("treatment", cr_min, cv), execute, check)


def treatment_surrogate(seed: int) -> Workload:
    order = _stride_order(len(TREATMENT_CR_MIN))
    rounds = [
        [_treatment_op(TREATMENT_CR_MIN[i], cv, seed) for cv in TREATMENT_CV]
        for i in order
    ]
    trace_ops = [
        _treatment_op(cr_min, cv, seed)
        for cr_min in TREATMENT_CR_MIN[::2]
        for cv in TREATMENT_CV
    ]
    return Workload("treatment-surrogate", rounds, trace_ops)


def _large_op(kind: str, n: int, seed: int) -> Op:
    def execute():
        if kind == "bounds":
            rows = ex.sweep_bounds(LARGE_F_MAX, [n], LARGE_DELTA, LARGE_TRIALS, seed, LARGE_THETA)
        else:
            rows = ex.coverage_experiment(
                LARGE_F_MAX, [n], LARGE_DELTA, LARGE_TRIALS, LARGE_THETA, seed
            )
        return _sweep_text(rows), rows

    def check(text, rows):
        (row,) = rows
        if kind == "bounds":
            return gates.bounds_row(row, LARGE_TRIALS)
        return gates.coverage_row(row, LARGE_TRIALS)

    return Op((kind, n), execute, check)


def large_n_bounds(seed: int) -> Workload:
    kinds = ("bounds", "coverage")
    rounds = [
        [_large_op(kinds[(j + r) % 2], n, seed) for j, n in enumerate(LARGE_N)]
        for r in range(2)
    ]
    return Workload("large-n-bounds", rounds, [op for rnd in rounds for op in rnd])


def _run_cli(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cli exited {code} on {argv}")
    return out.getvalue()


def _moments_op(n: int, c: float, v: float, theta: float, kappa) -> Op:
    argv = ["moments", "--n", str(n), "--c", repr(c), "--v", repr(v), "--theta", repr(theta)]
    if kappa is not None:
        argv += ["--kappa", str(kappa)]

    def execute():
        text = _run_cli(argv)
        return text, None

    def check(text, _):
        return gates.moments_output(text, n, c, v, theta, kappa)

    return Op(tuple(argv), execute, check)


def _estimate_op(argv: list, n: int, c: float) -> Op:
    def execute():
        text = _run_cli(argv)
        return text, None

    def check(text, _):
        return gates.estimate_output(text, n, c)

    return Op(tuple(argv), execute, check)


def cli_catalog(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    v = float(np.round(rng.uniform(1.0, 20.0), 6))
    theta = float(np.round(rng.uniform(-5.0, 15.0), 6))
    kappas = {n: int(rng.integers(1, n + 1)) for n in CATALOG_N}
    batch_seeds = [int(s) for s in rng.integers(0, 2**31, size=6)]
    f_max = float(np.round(rng.uniform(0.2, 2.0), 6))
    theta_h = float(np.round(rng.uniform(-2.0, 12.0), 6))
    cr_min = float(np.round(rng.uniform(8.5, 10.9), 6))
    problems = [
        (["estimate", "--n", "50", "--f-max", repr(f_max), "--theta", repr(theta_h)],
         50, f_max / 2.0),
        (["estimate", "--example", "treatment", "--cr-min", repr(cr_min), "--n", "30"],
         30, (11.0 - cr_min) / 2.5),
        (["estimate", "--config", str(CONFIG_PATH), "--n", "50"], 50, 0.5),
    ]
    rounds = []
    for r, cv in enumerate(("none", "sampling-mean")):
        with_kappa = r == 1
        rnd = [
            _moments_op(n, c, v, theta, kappas[n] if with_kappa else None)
            for n in CATALOG_N
            for c in CATALOG_C
        ]
        rnd += [
            _estimate_op(argv + ["--seed", str(batch_seeds[3 * r + i]), "--cv", cv], n, c)
            for i, (argv, n, c) in enumerate(problems)
        ]
        rounds.append(rnd)
    return Workload("cli-catalog", rounds, [op for rnd in rounds for op in rnd])


WORKLOADS = {
    "illustrative-grid": illustrative_grid,
    "treatment-surrogate": treatment_surrogate,
    "large-n-bounds": large_n_bounds,
    "cli-catalog": cli_catalog,
}
