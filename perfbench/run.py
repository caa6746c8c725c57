"""The repository's benchmark: one workload per call, in fresh processes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload illustrative-grid --seed 1 \\
        --seconds 24 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` and described
in ``perfbench/README.md``. Load shape: a closed loop with one caller in
one worker process. With ``--trace 0`` the worker times whole rounds of
operations for ``--seconds`` (at least 40 operations) and the
end-to-end metrics are printed; with ``--trace 1`` it runs the
workload's fixed trace list, each operation once untraced and once
traced, and the per-layer metrics are printed. ``setup_s`` is the
median over three fresh interpreters, two set-up probes and the worker,
of the time from process start to the first operation.

Every metric is printed by name with its unit, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results,
with provenance and, for traced runs, the spans, go to
``perfbench/out/``. The exit code is non-zero, and no result is
printed, when the package cannot be imported from this checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 2  # plus the worker itself: three set-up samples
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170
# One BLAS/OpenMP thread per worker. With the default of one per core, a
# second OpenBLAS thread spins beside the caller for no gain (same
# ops_per_s, twice the CPU time) and makes timings depend on what else
# shares the machine.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
# Share of traced operation time the layers must account for (Monte Carlo
# workloads; cli-catalog spends part of its time in argument parsing).
MIN_LAYER_COVERAGE = 0.9


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(args: list, timeout: float) -> list:
    """Run one worker; returns (start time, parsed JSON lines)."""
    cmd = [sys.executable, str(WORKER), *args]
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {args}") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker exited {proc.returncode}: {args}\n{proc.stderr.strip()}"
        )
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return start, lines


def _setup_sample(start: float, ready: dict) -> dict:
    return {
        "setup_s": ready["ready"] - start,
        "import_s": ready["import_s"],
        "build_s": ready["build_s"],
    }


def run(workload: str, seed: int, seconds: float, trace: int, out_dir: Path) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    samples = []
    rerun_digest = None
    for i in range(SETUP_PROBES):
        probe = "rerun" if i == SETUP_PROBES - 1 else "setup"
        start, lines = _spawn(common + ["--probe", probe], PROBE_TIMEOUT_S)
        samples.append(_setup_sample(start, lines[0]))
        if probe == "rerun":
            rerun_digest = lines[1]["first_op_digest"]
    start, lines = _spawn(
        common
        + ["--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir)],
        max(deadline - time.monotonic(), 1.0),
    )
    samples.append(_setup_sample(start, lines[0]))
    result = lines[1]
    failures = result["failures"]
    if rerun_digest != result["first_op_digest"]:
        failures.append(["first op", "digest differs from a fresh-process rerun"])
    attempted = result["attempted"] + 1  # the fresh-process rerun
    result.update(
        setup_samples=samples,
        attempted=attempted,
        failed=min(len(failures), attempted),
        all_failures=failures,
    )
    return result


def end_to_end(result: dict) -> dict:
    times = result["op_times"]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in result["setup_samples"]),
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_p75": statistics.quantiles(times, n=4, method="inclusive")[2],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict:
    samples = result["setup_samples"]
    layers = dict(result["layers"])
    layers.update(
        {
            "setup.import_s": statistics.median(s["import_s"] for s in samples),
            "setup.build_s": statistics.median(s["build_s"] for s in samples),
            "gates.cells_checked": result["cells_checked"],
            "gates.cells_unresolved": result["cells_unresolved"],
        }
    )
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    package = ROOT / "src" / "unequal_support" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = per_layer(result) if args.trace else end_to_end(result)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed = result["attempted"], result["failed"]
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} ({mode})")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if not args.trace:
        times = result["op_times"]
        beyond = sum(t > metrics["op_s_p75"]["value"] for t in times)
        print(f"ops {len(times)} timed after 1 warm-up, {beyond} beyond p75")
    print(f"fail_share {failed / attempted!r} ratio ({failed} of {attempted} ops; "
          f"{result['cells_checked']} gate checks, "
          f"{result['cells_unresolved']} catalog cells unresolved)")
    for key, why in result["all_failures"][:20]:
        print(f"failed {key}: {why}")
    if args.trace and result.get("missing_entry_points"):
        print(f"entry points not found: {result['missing_entry_points']}")
    if args.trace and values["tracing.self_coverage_share"] < MIN_LAYER_COVERAGE:
        print(f"warning: layer self times cover less than {MIN_LAYER_COVERAGE:.0%} "
              "of operation time; a layer is not traced")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "metrics": metrics, **result}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
