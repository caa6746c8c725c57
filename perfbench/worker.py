"""One workload in one fresh interpreter; started by ``run.py``.

Prints JSON lines on stdout. The first reports when the interpreter was
ready for its first operation (``time.monotonic``, comparable with the
parent's clock) and how that set-up split into the package import and
building the workload's inputs. Unless ``--probe`` is given, the worker
then runs the workload and prints one result line.

``--probe setup`` stops after the first line. ``--probe rerun`` also
runs the workload's first operation and prints its output digest, which
the parent compares with the worker's own digest of the same operation:
a rerun in a fresh process at the same seed must give the same bytes.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 40


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Ledger:
    """Per-operation outcomes, including the rerun-determinism gate.

    An operation whose inputs were seen before must give the same digest;
    if it does, the earlier gate verdict stands for it and is not redone.
    """

    def __init__(self):
        self.digests = {}
        self.reasons = {}
        self.attempted = 0
        self.failures = []
        self.unresolved = 0
        self.cells = 0

    def run(self, op, scope=contextlib.nullcontext):
        """Execute ``op`` inside ``scope`` and gate it; returns (seconds, digest)."""
        self.attempted += 1
        elapsed = 0.0
        try:
            with scope():
                start = time.perf_counter()
                try:
                    text, payload = op.execute()
                finally:
                    elapsed = time.perf_counter() - start
        except Exception as exc:  # an operation that raises is a failed op
            self.failures.append((op.key, f"raised {type(exc).__name__}: {exc}"))
            return elapsed, None
        digest = _digest(text)
        first = self.digests.setdefault(op.key, digest)
        if first != digest:
            reasons = [f"rerun digest {digest[:12]} differs from {first[:12]}"]
        elif op.key in self.reasons:
            reasons = self.reasons[op.key]
        else:
            reasons = self._check(op, text, payload)
            self.reasons[op.key] = reasons
        if reasons:
            self.failures.append((op.key, "; ".join(reasons)))
        return elapsed, digest

    def _check(self, op, text, payload) -> list:
        try:
            verdict = op.check(text, payload)
        except Exception as exc:  # malformed output fails the op, not the run
            return [f"check raised {type(exc).__name__}: {exc}"]
        self.cells += verdict.checked
        self.unresolved += verdict.unresolved
        return verdict.reasons


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    import yaml

    kernels = sys.modules.get("unequal_support._kernels")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "using_numba": getattr(kernels, "USING_NUMBA", None),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _timed_loop(workload, ledger, seconds: float):
    """Whole rounds, cycling, until ``seconds`` have passed and MIN_OPS ran."""
    times = []
    start = time.perf_counter()
    r = 0
    while True:
        for op in workload.rounds[r % len(workload.rounds)]:
            elapsed, _ = ledger.run(op)
            times.append(elapsed)
        r += 1
        if time.perf_counter() - start >= seconds and len(times) >= MIN_OPS:
            return times


def _traced_pass(workload, ledger, out_dir: Path, seed: int):
    """Each trace op untraced and traced back to back, order alternating.

    Returns the per-layer metrics and the entry points not found.
    """
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    for i, op in enumerate(workload.trace_ops):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                traced.append(ledger.run(op, tracer.operation)[0])
            else:
                plain.append(ledger.run(op)[0])
    tracer.dump(out_dir / f"spans-{workload.name}-seed{seed}.json")
    totals = tracer.totals()
    s, self_s, counts = totals["s"], totals["self_s"], tracer.counts
    op_time = s.get(tracing.ROOT_SPAN, 0.0)
    layer_self = sum(v for k, v in self_s.items() if k != tracing.ROOT_SPAN)

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    kernel_samples = counts["kernels.batch_estimates.samples"]
    eval_values = counts["densities.eval_h.values"]
    return {
        "densities.sample.s": s.get("densities.sample", 0.0),
        "densities.sample.draws": counts["densities.sample.draws"],
        "densities.batch_terms.self_s": self_s.get("densities.batch_terms", 0.0),
        "densities.batch_terms.samples": counts["densities.batch_terms.samples"],
        "densities.pdf_g.s": s.get("densities.pdf_g", 0.0),
        "densities.pdf_f.s": s.get("densities.pdf_f", 0.0),
        "densities.eval_h.s": s.get("densities.eval_h", 0.0),
        "densities.contains_c.s": s.get("densities.contains_c", 0.0),
        "densities.eval_h.discarded_share": per(
            counts["experiments.observe.values"], eval_values, 1.0
        ),
        "experiments.observe.s": s.get("experiments.observe", 0.0),
        "kernels.batch_estimates.s": s.get("kernels.batch_estimates", 0.0),
        "kernels.batch_estimates.ns_per_sample": per(
            s.get("kernels.batch_estimates", 0.0), kernel_samples, 1e9
        ),
        "kernels.batch_estimates.bytes_in": counts["kernels.batch_estimates.bytes_in"],
        "experiments.summarize_trials.s": s.get("experiments.summarize_trials", 0.0),
        "experiments.summarize_trials.ns_per_trial": per(
            s.get("experiments.summarize_trials", 0.0),
            counts["experiments.summarize_trials.trials"],
            1e9,
        ),
        "experiments.simulate_estimates.self_s": self_s.get(
            "experiments.simulate_estimates", 0.0
        ),
        "experiments.simulate_estimates.chunks": counts[
            "experiments.simulate_estimates.chunks"
        ],
        "experiments.simulate_estimates.peak_alloc_mb": tracer.peak_alloc_bytes / 2**20,
        "experiments.quadrature.s": s.get("experiments.quadrature", 0.0),
        "experiments.quadrature.panels": counts["experiments.quadrature.panels"],
        "moments.catalog.s": s.get("moments.catalog", 0.0),
        "moments.binom_inv_moment.s": s.get("moments.binom_inv_moment", 0.0),
        "moments.binom_inv_moment.calls": counts["moments.binom_inv_moment.calls"],
        "moments.binom_inv_moment.terms": counts["moments.binom_inv_moment.terms"],
        "config.load_problem.s": s.get("config.load_problem", 0.0),
        "estimators.estimate.s": s.get("estimators.estimate", 0.0),
        "experiments.render.s": s.get("experiments.render", 0.0),
        "experiments.render.bytes": counts["experiments.render.bytes"],
        "harness.self_s": self_s.get(tracing.ROOT_SPAN, 0.0),
        "tracing.ops": len(traced),
        "tracing.op_s": op_time,
        "tracing.self_coverage_share": per(layer_self, op_time, 1.0),
        "tracing.overhead_share": sum(traced) / sum(plain) - 1.0,
        "tracing.missing_entry_points": len(tracer.missing),
    }, tracer.missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "rerun"))
    parser.add_argument("--out-dir", type=Path)
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t_import = time.monotonic()
    import unequal_support

    package_dir = Path(unequal_support.__file__).resolve().parent
    if package_dir != ROOT / "src" / "unequal_support":
        raise SystemExit(f"imported unequal_support from {package_dir}, not this checkout")
    t_build = time.monotonic()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    _emit({
        "ready": ready,
        "import_s": t_build - t_import,
        "build_s": ready - t_build,
    })
    first = workload.rounds[0][0]
    if args.probe == "setup":
        return 0
    ledger = Ledger()
    if args.probe == "rerun":
        _, digest = ledger.run(first)
        _emit({"first_op_digest": digest})
        return 0

    # Warm-up: the first operation, gated but outside the timings. The
    # timed loop starts with the same operation, so it is also a rerun.
    ledger.run(first)
    result = {"provenance": provenance(args.seed)}
    if args.trace:
        result["layers"], result["missing_entry_points"] = _traced_pass(
            workload, ledger, args.out_dir, args.seed
        )
    else:
        result["op_times"] = _timed_loop(workload, ledger, args.seconds)
    result.update(
        first_op_digest=ledger.digests.get(first.key),
        attempted=ledger.attempted,
        failures=[[repr(k), why] for k, why in ledger.failures],
        cells_checked=ledger.cells,
        cells_unresolved=ledger.unresolved,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
