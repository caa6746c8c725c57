"""Correctness gates applied to every operation's output.

Each gate returns a :class:`Verdict`. An operation fails when it raised,
when a value is non-finite where the catalog is finite, or when a gate
below rejects it:

* sweep rows: every catalog cell (IS and US, unconditional and k > 0,
  mean/variance/MSE) lies within ``Z_FAIL`` standard errors of
  ``analytic_reports``;
* bounds and coverage rows: coverage is at least 1 - delta minus three
  binomial standard errors, and the empirical share of k > 0 batches is
  within five standard errors of ``rho(n, c)``;
* ``moments`` output equals ``moment_report`` for the same inputs
  exactly; ``estimate`` output is finite and self-consistent.
"""

import contextlib
import functools
import math
from dataclasses import dataclass, field

from unequal_support import moments
from unequal_support.experiments import analytic_reports
from unequal_support.moments import MomentInputs, moment_report, rho

# 5 and not the acceptance suite's 3: a 180-point grid has 2160 cells, of
# which about 6 would exceed 3 standard errors by chance alone.
Z_FAIL = 5.0
RHO_Z = 5.0
COVERAGE_Z = 3.0
# Below this many expected k = 0 trials a cell that depends on them is
# not resolved by the run (see Verdict.unresolved).
MIN_EXPECTED_EMPTY = 10.0

CELLS = (
    ("is_unconditional", "IS", ""),
    ("is_positive", "IS", "cond_"),
    ("us_unconditional", "US", ""),
    ("us_positive", "US", "cond_"),
)
STATS = ("mean", "variance", "mse")


@dataclass
class Verdict:
    """Outcome of one operation's gates.

    ``unresolved`` counts catalog cells judged neither passed nor failed:
    the US unconditional cells differ from their k > 0 counterparts only
    through k = 0 trials, and when fewer than ``MIN_EXPECTED_EMPTY`` of
    those are expected while their contribution exceeds the empirical
    standard error, the run cannot see the difference.
    """

    checked: int = 0
    unresolved: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _empty_share_effect(stat: str, theta: float, r: float) -> float:
    """How far the k = 0 trials move a US unconditional cell."""
    miss = 1.0 - r
    if stat == "mean":
        return abs(theta) * miss
    if stat == "variance":
        return theta * theta * r * miss
    return theta * theta * miss


def sweep_row(row, trials: int, c: float, v: float, theta: float, t: float) -> Verdict:
    """Catalog agreement of one analytic-vs-empirical sweep row."""
    verdict = Verdict()
    if not math.isclose(row.c, c, rel_tol=1e-12):
        verdict.fail(f"c = {row.c!r}, expected {c!r}")
    analytic = analytic_reports(row.n, c, v, theta, t)
    r = rho(row.n, c)
    rare_empty = trials * (1.0 - r) < MIN_EXPECTED_EMPTY
    for cell, label, prefix in CELLS:
        report = analytic[cell]
        stats = row.empirical[label]
        for stat in STATS:
            expected = getattr(report, stat)
            observed = getattr(stats, prefix + stat)
            se = getattr(stats, ("cond_se_" if prefix else "se_") + stat)
            verdict.checked += 1
            if not _finite(observed, se):
                verdict.fail(f"{cell}.{stat} non-finite: {observed!r} (se {se!r})")
                continue
            if (
                cell == "us_unconditional"
                and rare_empty
                and _empty_share_effect(stat, theta, r) > se
            ):
                verdict.unresolved += 1
                continue
            gap = abs(observed - expected)
            if se == 0.0:
                bad = not math.isclose(observed, expected, rel_tol=1e-9, abs_tol=1e-300)
            else:
                bad = gap > Z_FAIL * se
            if bad:
                z = gap / se if se else math.inf
                verdict.fail(
                    f"{cell}.{stat}: empirical {observed!r} vs analytic "
                    f"{expected!r}, |z| = {z:.2f}"
                )
    wis_mean = row.empirical["WIS"].mean
    if not _finite(wis_mean):
        verdict.fail(f"WIS mean non-finite: {wis_mean!r}")
    return verdict


def _rho_check(verdict: Verdict, observed: float, n: int, c: float, trials: int) -> None:
    r = rho(n, c)
    se = math.sqrt(r * (1.0 - r) / trials)
    verdict.checked += 1
    if abs(observed - r) > RHO_Z * se:
        verdict.fail(f"empirical rho {observed!r} vs rho(n, c) {r!r} (se {se:.3g})")


def _coverage_check(verdict: Verdict, name: str, coverage: float, delta: float, m: int):
    floor = 1.0 - delta - COVERAGE_Z * math.sqrt(delta * (1.0 - delta) / m)
    verdict.checked += 1
    if not coverage >= floor:
        verdict.fail(f"{name} = {coverage!r} below {floor:.6f} over {m} trials")


def _finite_record(verdict: Verdict, row) -> bool:
    record = row.record()
    if not _finite(*(v for v in record.values() if isinstance(v, float))):
        verdict.fail(f"non-finite field in {record}")
        return False
    return True


def bounds_row(row, trials: int) -> Verdict:
    verdict = Verdict()
    if _finite_record(verdict, row):
        _rho_check(verdict, row.empirical_rho, row.n, row.c, trials)
    return verdict


def coverage_row(row, trials: int) -> Verdict:
    verdict = Verdict()
    if _finite_record(verdict, row):
        defined = round(trials * (1.0 - row.undefined_rate))
        _rho_check(verdict, 1.0 - row.undefined_rate, row.n, row.c, trials)
        _coverage_check(verdict, "coverage_is", row.coverage_is, row.delta, trials)
        _coverage_check(verdict, "coverage_us", row.coverage_us, row.delta, max(defined, 1))
    return verdict


@contextlib.contextmanager
def _binom_inv_moment_once():
    """Within the block, ``binom_inv_moment`` runs once per (n, c).

    Every ``moment_report`` cell of one input recomputes the same O(n)
    sum; caching it keeps the gate of an n = 10**6 call from costing
    four times the call itself. A pure function, so results are equal.
    """
    original = getattr(moments, "binom_inv_moment", None)
    if original is None:
        yield
        return
    moments.binom_inv_moment = functools.lru_cache(maxsize=None)(original)
    try:
        yield
    finally:
        moments.binom_inv_moment = original


def _parse_cell(text: str):
    return None if text == "" else float(text)


def moments_output(text: str, n: int, c: float, v: float, theta: float, kappa) -> Verdict:
    """CLI ``moments`` rows against ``moment_report`` for the same inputs."""
    verdict = Verdict()
    lines = text.splitlines()
    if not lines or lines[0] != "estimator,regime,mean,bias,variance,mse":
        verdict.fail(f"unexpected header {lines[:1]!r}")
        return verdict
    cells = [(e, r) for e in ("IS", "US") for r in ("unconditional", "conditioned-positive")]
    if kappa is not None:
        cells += [("IS", "conditioned-exact"), ("US", "conditioned-exact")]
    seen = set()
    with _binom_inv_moment_once():
        for line in lines[1:]:
            estimator, regime, *numbers = line.split(",")
            seen.add((estimator, regime))
            exact = regime == "conditioned-exact"
            inputs = MomentInputs(n, c, v, theta, kappa if exact else None)
            report = moment_report(estimator, regime, inputs)
            expected = (report.mean, report.bias, report.variance, report.mse)
            got = tuple(_parse_cell(x) for x in numbers)
            verdict.checked += 1
            if got != expected:
                verdict.fail(f"{estimator} {regime}: printed {got!r}, catalog {expected!r}")
            elif not _finite(*(x for x in got if x is not None)):
                verdict.fail(f"{estimator} {regime}: non-finite {got!r}")
    if seen != set(cells):
        verdict.fail(f"cells printed {sorted(seen)!r}, expected {sorted(cells)!r}")
    return verdict


def estimate_output(text: str, n: int, c: float) -> Verdict:
    """CLI ``estimate`` output: finite values, 0 <= k <= n, c-hat = k/n."""
    verdict = Verdict()
    lines = text.splitlines()
    if len(lines) != 4:
        verdict.fail(f"expected 4 lines, got {lines!r}")
        return verdict
    for label, line in zip(("IS", "US", "WIS"), lines):
        name, _, rest = line.partition("=")
        value = float(rest.split()[0])
        verdict.checked += 1
        if name.strip() != label or not math.isfinite(value):
            verdict.fail(f"bad estimate line {line!r}")
    # "k = K of N, c-hat = X, c = C, t = T"
    fields = dict(part.strip().split(" = ", 1) for part in lines[3].split(","))
    k_text, _, n_text = fields["k"].partition(" of ")
    k, n_printed = int(k_text), int(n_text)
    c_hat, c_printed = float(fields["c-hat"]), float(fields["c"])
    verdict.checked += 1
    if n_printed != n or not 0 <= k <= n or c_hat != k / n:
        verdict.fail(f"inconsistent count line {lines[3]!r}")
    if not math.isclose(c_printed, c, rel_tol=1e-12) or not _finite(float(fields["t"])):
        verdict.fail(f"c = {c_printed!r}, expected {c!r}")
    return verdict
