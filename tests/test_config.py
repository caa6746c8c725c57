"""YAML problem-description loading."""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from unequal_support import config
from unequal_support.config import build_density, build_problem, load_problem
from unequal_support.densities import (
    PiecewiseUniform,
    SamplingSupportError,
    TruncatedNormal,
)

GOOD_DOC = {
    "problem": {
        "target": {"kind": "uniform", "low": 0.0, "high": 0.5},
        "sampling": {"kind": "uniform", "low": 0.0, "high": 2.0},
        "evaluation": {"pieces": [[0.0, 0.25, -1.0], [0.25, 2.0, 1.0]]},
        "pruning": {"intervals": [[0.0, 0.5]]},
    }
}

GOOD_YAML = """
problem:
  target:
    kind: uniform
    low: 0.0
    high: 0.5
  sampling:
    kind: piecewise-uniform
    intervals: [[0.0, 2.0]]
  evaluation:
    pieces:
      - [0.0, 0.25, -1.0]
      - [0.25, 2.0, 1.0]
  pruning:
    intervals: [[0.0, 0.5]]
"""

ILLUSTRATIVE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "illustrative.yaml"


class TestBuildDensity:
    def test_uniform(self):
        d = build_density({"kind": "uniform", "low": 1.0, "high": 3.0})
        assert isinstance(d, PiecewiseUniform)
        assert d.pdf(np.array([2.0]))[0] == pytest.approx(0.5)

    def test_piecewise_with_weights(self):
        d = build_density(
            {
                "kind": "piecewise-uniform",
                "intervals": [[0.0, 1.0], [2.0, 3.0]],
                "weights": [0.75, 0.25],
            }
        )
        assert d.pdf(np.array([0.5]))[0] == pytest.approx(0.75)

    def test_truncated_normal(self):
        d = build_density(
            {
                "kind": "truncated-normal",
                "lower": 10.0,
                "upper": 11.0,
                "mean": 11.0,
                "stddev": 0.625,
            }
        )
        assert isinstance(d, TruncatedNormal)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown density kind"):
            build_density({"kind": "cauchy"})

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing required key 'high'"):
            build_density({"kind": "uniform", "low": 0.0})

    def test_non_mapping(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            build_density(["uniform"])

    def test_infinite_density_parameter_rejected(self):
        block = {"kind": "truncated-normal", "lower": 0.0, "upper": 1.0,
                 "mean": math.inf, "stddev": 1.0}
        with pytest.raises(ValueError, match="target: 'mean' must be a real number"):
            build_density(block, "target")


class TestBuildProblem:
    def test_good_document(self):
        problem = build_problem(GOOD_DOC)
        assert problem.c == pytest.approx(0.25)
        hv = problem.evaluation(np.array([0.1, 0.3]))
        assert hv.tolist() == [-1.0, 1.0]

    def test_explicit_c_override(self):
        # c is the exact mass of C under g; a hand-set c is refused.
        doc = {
            "problem": {
                **GOOD_DOC["problem"],
                "pruning": {"intervals": [[0.0, 0.5]], "c": 0.3},
            }
        }
        with pytest.raises(ValueError, match="pruning: 'c' is not a key"):
            build_problem(doc)

    def test_missing_problem_key(self):
        with pytest.raises(ValueError, match="top-level 'problem'"):
            build_problem({"target": {}})

    def test_missing_pruning(self):
        doc = {"problem": {k: v for k, v in GOOD_DOC["problem"].items() if k != "pruning"}}
        with pytest.raises(ValueError, match="missing required key 'pruning'"):
            build_problem(doc)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_non_finite_piece_value_rejected(self, value):
        pieces = [[0.0, 0.25, value], [0.25, 2.0, 1.0]]
        doc = {"problem": {**GOOD_DOC["problem"], "evaluation": {"pieces": pieces}}}
        with pytest.raises(ValueError, match="'pieces' must be a list of lists of reals"):
            build_problem(doc)


def _with(block: str, key: str, value) -> dict:
    """GOOD_DOC with ``key: value`` added to one block: ``configuration``
    (the document), ``problem``, ``evaluation``, ``pruning``, or the
    target block as each density kind."""
    doc = {"problem": {name: dict(b) for name, b in GOOD_DOC["problem"].items()}}
    kinds = {
        "uniform": {"kind": "uniform", "low": 0.0, "high": 0.5},
        "piecewise-uniform": {"kind": "piecewise-uniform", "intervals": [[0.0, 0.5]]},
        "truncated-normal": {
            "kind": "truncated-normal",
            "lower": 0.0,
            "upper": 0.5,
            "mean": 0.5,
            "stddev": 1.0,
        },
    }
    if block == "configuration":
        doc[key] = value
    elif block == "problem":
        doc["problem"][key] = value
    elif block in kinds:
        doc["problem"]["target"] = {**kinds[block], key: value}
    else:
        doc["problem"][block][key] = value
    return doc


# (block, unknown key, context named in the error): a misspelt key
# (weight for weights, intervals for pieces) and keys of other blocks.
UNKNOWN_KEYS = [
    ("configuration", "problems", "configuration"),
    ("problem", "target_density", "problem"),
    ("uniform", "mean", "target"),
    ("piecewise-uniform", "weight", "target"),
    ("truncated-normal", "low", "target"),
    ("evaluation", "intervals", "evaluation"),
    ("pruning", "pieces", "pruning"),
]


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "block, key, context", UNKNOWN_KEYS, ids=[block for block, _, _ in UNKNOWN_KEYS]
    )
    def test_every_block_refuses_a_key_it_does_not_read(self, block, key, context):
        with pytest.raises(ValueError, match=rf"^{context}: unknown key '{key}'"):
            build_problem(_with(block, key, [1.0]))

    @pytest.mark.parametrize("block", ["uniform", "piecewise-uniform", "truncated-normal"])
    def test_each_density_kind_builds_without_extra_keys(self, block):
        doc = _with(block, "kind", block)  # rewrites kind to itself
        assert build_problem(doc).c == pytest.approx(0.25)

    def test_illustrative_config_still_loads(self):
        problem = load_problem(ILLUSTRATIVE_CONFIG)
        assert problem.c == pytest.approx(0.5)
        assert problem.piecewise_constant


class TestLoadProblem:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "problem.yaml"
        path.write_text(GOOD_YAML)
        problem = load_problem(path)
        assert problem.c == pytest.approx(0.25)

    def test_target_outside_sampling_support_rejected(self, tmp_path):
        path = tmp_path / "gap.yaml"
        path.write_text(
            """
problem:
  target: {kind: uniform, low: 0.2, high: 2.0}
  sampling:
    kind: piecewise-uniform
    intervals: [[0.0, 1.0], [1.5, 2.0]]
  evaluation:
    pieces: [[0.0, 2.0, 1.0]]
  pruning:
    intervals: [[0.0, 2.0]]
"""
        )
        with pytest.raises(SamplingSupportError):
            load_problem(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_problem(tmp_path / "nope.yaml")


class TestYamlLoader:
    @staticmethod
    def _document(path, monkeypatch, libyaml=True):
        """(loader, document): the loader ``load_problem`` parses with and
        the document it hands to ``build_problem``; without ``libyaml``,
        as if pyyaml had been built without it."""
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader")
        loaders, docs = [], []
        load = yaml.load

        def spy(stream, Loader):
            loaders.append(Loader)
            return load(stream, Loader)

        monkeypatch.setattr(yaml, "load", spy)
        monkeypatch.setattr(config, "build_problem", docs.append)
        load_problem(path)
        return loaders[0], docs[0]

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="pyyaml built without libyaml")
    def test_libyaml_is_the_default(self, monkeypatch):
        loader, _ = self._document(ILLUSTRATIVE_CONFIG, monkeypatch)
        assert loader is yaml.CSafeLoader

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="pyyaml built without libyaml")
    @pytest.mark.parametrize("source", ["illustrative", "good"])
    def test_c_and_python_loaders_give_equal_documents(self, source, monkeypatch, tmp_path):
        if source == "illustrative":
            path = ILLUSTRATIVE_CONFIG
        else:
            path = tmp_path / "good.yaml"
            path.write_text(GOOD_YAML)
        c_loader = yaml.CSafeLoader  # before the second call hides it
        fast_loader, fast = self._document(path, monkeypatch)
        slow_loader, slow = self._document(path, monkeypatch, libyaml=False)
        assert (fast_loader, slow_loader) == (c_loader, yaml.SafeLoader)
        assert fast == slow == yaml.safe_load(path.read_text())

    def test_python_loader_fallback_builds_the_problem(self, monkeypatch, tmp_path):
        path = tmp_path / "good.yaml"
        path.write_text(GOOD_YAML)
        default = load_problem(path)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        fallback = load_problem(path)
        assert fallback.c == default.c == pytest.approx(0.25)
        assert default.piecewise_constant
        for got, want in zip(fallback.terms, default.terms):
            assert np.array_equal(got, want)
