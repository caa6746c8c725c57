"""Run-time spans around the public entry point of each layer.

Nothing in the package is edited: :meth:`Tracer.operation` replaces each
entry point named in ``ENTRY_POINTS`` with a wrapper for the duration of
one operation and restores the original afterwards. A wrapper records a
span (name, start, end, parent) and adds to the layer's counters, both
kept in memory until :meth:`Tracer.dump` writes them out.

An entry point the package no longer has is skipped and listed in
``Tracer.missing``; its metrics then read 0.
"""

import contextlib
import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

ROOT_SPAN = "op"
BATCH_TERMS = "densities.batch_terms"
QUADRATURE = "experiments.quadrature"


def _size(value) -> int:
    return int(getattr(value, "size", 0))


def _sample_counts(tracer, args, result):
    tracer.counts["densities.sample.draws"] += _size(result)


def _batch_terms_counts(tracer, args, result):
    tracer.counts["densities.batch_terms.samples"] += _size(args[1])


def _eval_h_counts(tracer, args, result):
    if tracer.innermost() == BATCH_TERMS:
        tracer.counts["densities.eval_h.values"] += _size(result)


def _observe_counts(tracer, args, result):
    tracer.counts["experiments.observe.values"] += _size(result)


def _kernel_counts(tracer, args, result):
    w, hv, in_c = args[:3]
    tracer.counts["kernels.batch_estimates.samples"] += _size(w)
    tracer.counts["kernels.batch_estimates.bytes_in"] += sum(
        int(getattr(a, "nbytes", 0)) for a in (w, hv, in_c)
    )


def _summary_counts(tracer, args, result):
    tracer.counts["experiments.summarize_trials.trials"] += _size(args[1])


def _chunk_counts(tracer, args, result):
    tracer.counts["experiments.simulate_estimates.chunks"] += 1


def _marginal_counts(tracer, args, result):
    # Quadrature evaluates the return surface once per grid node; a grid
    # of m panels has m + 1 nodes.
    if tracer.innermost() == QUADRATURE and _size(result) > 1:
        tracer.counts["experiments.quadrature.panels"] += _size(result) - 1


def _binom_counts(tracer, args, result):
    tracer.counts["moments.binom_inv_moment.calls"] += 1
    tracer.counts["moments.binom_inv_moment.terms"] += int(args[0])


def _render_counts(tracer, args, result):
    tracer.counts["experiments.render.bytes"] += len(result.encode("utf-8"))


def _pdf_name(tracer, args):
    """pdf_g or pdf_f by which density of the current problem is asked."""
    if tracer.innermost() != BATCH_TERMS or not tracer.problems:
        return None
    problem = tracer.problems[-1]
    density = args[0]
    if density is getattr(problem, "sampling", None):
        return "densities.pdf_g"
    if density is getattr(problem, "target", None):
        return "densities.pdf_f"
    return None


def _inside_batch_terms(name):
    def pick(tracer, args):
        return name if tracer.innermost() == BATCH_TERMS else None

    return pick


# (module, attribute path, span name or picker, counter, options).
# A module-level function is patched in every namespace that calls it,
# because ``from x import f`` binds its own name.
ENTRY_POINTS = [
    ("unequal_support.experiments", "simulate_estimates",
     "experiments.simulate_estimates", None, {"alloc": True}),
    ("unequal_support.experiments", "_chunk_rng", None, _chunk_counts, {}),
    ("unequal_support.densities", "PiecewiseUniform.sample",
     "densities.sample", _sample_counts, {}),
    ("unequal_support.densities", "TruncatedNormal.sample",
     "densities.sample", _sample_counts, {}),
    ("unequal_support.densities", "EstimationProblem.batch_terms",
     BATCH_TERMS, _batch_terms_counts, {"problem": True}),
    ("unequal_support.densities", "PiecewiseUniform.pdf", _pdf_name, None, {}),
    ("unequal_support.densities", "TruncatedNormal.pdf", _pdf_name, None, {}),
    ("unequal_support.densities", "EvaluationFunction.__call__",
     _inside_batch_terms("densities.eval_h"), _eval_h_counts, {}),
    ("unequal_support.densities", "PruningSet.contains",
     _inside_batch_terms("densities.contains_c"), None, {}),
    ("unequal_support.experiments", "SyntheticReturnSurface.observe",
     "experiments.observe", _observe_counts, {}),
    ("unequal_support.experiments", "SyntheticReturnSurface.marginal_return",
     None, _marginal_counts, {}),
    ("unequal_support.experiments", "batch_estimates",
     "kernels.batch_estimates", _kernel_counts, {}),
    ("unequal_support._kernels", "batch_estimates",
     "kernels.batch_estimates", _kernel_counts, {}),
    ("unequal_support.experiments", "summarize_trials",
     "experiments.summarize_trials", _summary_counts, {}),
    ("unequal_support.experiments", "treatment_ground_truth", QUADRATURE, None, {}),
    ("unequal_support.experiments", "treatment_sampling_mean", QUADRATURE, None, {}),
    ("unequal_support.experiments", "moment_report", "moments.catalog", None, {}),
    ("unequal_support.cli", "moment_report", "moments.catalog", None, {}),
    ("unequal_support.moments", "binom_inv_moment",
     "moments.binom_inv_moment", _binom_counts, {}),
    ("unequal_support.cli", "load_problem", "config.load_problem", None, {}),
    ("unequal_support.experiments", "render", "experiments.render", _render_counts, {}),
    ("unequal_support.cli", "render", "experiments.render", _render_counts, {}),
    ("unequal_support.cli", "is_estimate", "estimators.estimate", None, {}),
    ("unequal_support.cli", "us_estimate", "estimators.estimate", None, {}),
    ("unequal_support.cli", "wis_estimate", "estimators.estimate", None, {}),
]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # Read the class dict, not getattr, so a plain function stays a
    # function and is restored as one.
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Spans and counters of the operations run under :meth:`operation`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.problems = []
        self.counts = defaultdict(int)
        self.peak_alloc_bytes = 0
        self.missing = []
        self._patches = []
        for module_name, path, name, counter, options in ENTRY_POINTS:
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, name, counter, **options)
            self._patches.append((owner, attr, original, wrapper))

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, counter, alloc=False, problem=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(tracer, args) if callable(name) else name
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                if problem:
                    tracer.problems.append(args[0])
                if alloc:
                    tracemalloc.start()
                index = tracer.open(span_name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                    if alloc:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        tracer.peak_alloc_bytes = max(tracer.peak_alloc_bytes, peak)
                    if problem:
                        tracer.problems.pop()
            if counter is not None:
                counter(tracer, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def operation(self):
        """One operation's scope: entry points wrapped, a root span open."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        index = self.open(ROOT_SPAN)
        try:
            yield
        finally:
            self.close(index)
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    def totals(self) -> dict:
        """Inclusive and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_total = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            self_total[name] += end - start - child_time[index]
        return {"s": dict(total), "self_s": dict(self_total)}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "missing": self.missing,
                },
                fh,
            )
