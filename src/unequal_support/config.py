"""Estimation problems from YAML configuration files.

The schema (documented in full in the CLI module and README):

.. code-block:: yaml

    problem:
      target:                  # or sampling; any density block
        kind: uniform          # uniform | piecewise-uniform | truncated-normal
        low: 0.0
        high: 0.5
      sampling:
        kind: piecewise-uniform
        intervals: [[0.0, 2.0]]
        # weights: [1.0]       # optional, default proportional to length
      evaluation:
        pieces:                # step function, [lo, hi, value] per piece
          - [0.0, 0.25, -1.0]
          - [0.25, 2.0, 1.0]
      pruning:
        intervals: [[0.0, 0.5]]

Truncated-normal blocks take ``lower``, ``upper``, ``mean``, ``stddev``.
Every block refuses a key it does not read.
"""

import numpy as np

from .densities import (
    EstimationProblem,
    EvaluationFunction,
    PiecewiseUniform,
    TruncatedNormal,
)

__all__ = ["build_density", "build_problem", "load_problem"]


def _require(mapping, key: str, context: str):
    if not isinstance(mapping, dict):
        raise ValueError(f"{context} block must be a mapping")
    if key not in mapping:
        raise ValueError(f"{context} block is missing required key '{key}'")
    return mapping[key]


def _only(block, keys: tuple, context: str) -> None:
    """Refuse a ``block`` that is not a mapping, or has a key outside ``keys``."""
    if not isinstance(block, dict):
        raise ValueError(f"{context} block must be a mapping")
    for key in block:
        if key not in keys:
            raise ValueError(
                f"{context}: unknown key '{key}' (expected {', '.join(keys)})"
            )


_SHAPES = ("a real number", "a list of reals", "a list of lists of reals")


def _reals(block, key: str, context: str, ndim: int = 0):
    """``block[key]`` as a float, or as a float array of ``ndim`` 1
    (weights) or 2 (intervals, pieces); ValueError for anything else,
    NaN and +-inf included."""
    value = _require(block, key, context)
    try:
        out = np.array(value, dtype=float)  # null reads as NaN
    except (TypeError, ValueError):
        out = np.array(np.nan)
    if out.ndim != ndim or not np.isfinite(out).all():
        raise ValueError(f"{context}: '{key}' must be {_SHAPES[ndim]}, got {value!r}")
    return float(out) if ndim == 0 else out


def build_density(block: dict, context: str = "density"):
    """Density object from one configuration block."""
    kind = _require(block, "kind", context)
    if kind == "uniform":
        _only(block, ("kind", "low", "high"), context)
        return PiecewiseUniform.uniform(
            _reals(block, "low", context), _reals(block, "high", context)
        )
    if kind == "piecewise-uniform":
        _only(block, ("kind", "intervals", "weights"), context)
        weights = _reals(block, "weights", context, 1) if "weights" in block else None
        return PiecewiseUniform(_reals(block, "intervals", context, 2), weights)
    if kind == "truncated-normal":
        keys = ("lower", "upper", "mean", "stddev")
        _only(block, ("kind", *keys), context)
        return TruncatedNormal(*(_reals(block, key, context) for key in keys))
    raise ValueError(
        f"{context}: unknown density kind '{kind}' "
        "(expected uniform, piecewise-uniform, or truncated-normal)"
    )


def build_problem(doc: dict) -> EstimationProblem:
    """EstimationProblem from a parsed configuration document."""
    if not isinstance(doc, dict) or "problem" not in doc:
        raise ValueError("configuration must contain a top-level 'problem' mapping")
    _only(doc, ("problem",), "configuration")
    spec = doc["problem"]
    _only(spec, ("target", "sampling", "evaluation", "pruning"), "problem")
    target = build_density(_require(spec, "target", "problem"), "target")
    sampling = build_density(_require(spec, "sampling", "problem"), "sampling")
    eval_block = _require(spec, "evaluation", "problem")
    _only(eval_block, ("pieces",), "evaluation")
    pieces = _reals(eval_block, "pieces", "evaluation", 2)
    evaluation = EvaluationFunction.piecewise_constant(pieces)
    prune_block = _require(spec, "pruning", "problem")
    intervals = _reals(prune_block, "intervals", "pruning", 2)
    if "c" in prune_block:
        raise ValueError(
            "pruning: 'c' is not a key; c is the mass of the pruning "
            "intervals under the sampling density, computed exactly"
        )
    _only(prune_block, ("intervals",), "pruning")
    return EstimationProblem(target, sampling, evaluation, intervals)


def load_problem(path) -> EstimationProblem:
    """Parse a YAML file and build the estimation problem it describes.

    pyyaml is imported on the first call, not with the package. The file
    is parsed with libyaml when pyyaml has it (``CSafeLoader``), else with
    the pure-Python ``SafeLoader``; both give the same document. A file
    pyyaml cannot parse raises ValueError with pyyaml's message.
    """
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ValueError(str(exc)) from exc
    return build_problem(doc)
