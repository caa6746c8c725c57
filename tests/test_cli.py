"""Command-line interface."""

import argparse
import csv
import io
import json
import math
import warnings

import pytest
import yaml

from unequal_support import cli, experiments, moments
from unequal_support.cli import main
from unequal_support.densities import EstimationProblem
from unequal_support.experiments import render
from unequal_support.moments import MomentInputs, moment_report

SWEEP_HEADER = (
    "f_max,theta,n,c,v,analytic_is_var_u,analytic_is_var_c,"
    "analytic_us_var_u,analytic_us_var_c,analytic_us_mse_u,"
    "emp_is_mean,emp_is_var,emp_is_mse,emp_us_mean,emp_us_var,"
    "emp_us_mse,emp_wis_mean,emp_wis_var,emp_wis_mse,undefined_rate,seed"
)


def run(argv, capsys):
    code = main(argv)
    assert code == 0
    return capsys.readouterr().out


class TestEstimate:
    def test_illustrative_output(self, capsys):
        out = run(
            ["estimate", "--f-max", "1.0", "--theta", "1.0", "--n", "50", "--seed", "3"],
            capsys,
        )
        for label in ("IS ", "US ", "WIS"):
            assert f"{label} = " in out
        assert "c = 0.5" in out
        assert "t = 0" in out

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "p.yaml"
        path.write_text(
            "problem:\n"
            "  target: {kind: uniform, low: 0.0, high: 0.5}\n"
            "  sampling: {kind: uniform, low: 0.0, high: 2.0}\n"
            "  evaluation:\n"
            "    pieces: [[0.0, 2.0, 1.0]]\n"
            "  pruning: {intervals: [[0.0, 0.5]]}\n"
        )
        out = run(["estimate", "--config", str(path), "--n", "20", "--seed", "1"], capsys)
        # h constant at 1 pins the ratio estimators at 1 exactly
        assert "US  = 1 " in out
        assert "WIS = 1 " in out
        assert "c = 0.25" in out

    @pytest.mark.parametrize("cv", ["none", "sampling-mean"])
    def test_c_equal_to_g_with_weights_that_round_past_one(self, cv, capsys, tmp_path):
        """C = G, whose mass under these weights rounds to
        1.0000000000000002: c reads 1, and US is IS on every batch."""
        path = tmp_path / "c_is_g.yaml"
        path.write_text(
            "problem:\n"
            "  target: {kind: uniform, low: 0.0, high: 1.0}\n"
            "  sampling:\n"
            "    kind: piecewise-uniform\n"
            "    intervals: [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]\n"
            "    weights: [0.33, 0.56, 0.11]\n"
            "  evaluation: {pieces: [[0.0, 1.0, 1.0]]}\n"
            "  pruning: {intervals: [[0.0, 3.0]]}\n"
        )
        for seed in ("0", "1", "7"):
            code = main(["estimate", "--config", str(path), "--seed", seed, "--cv", cv])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            lines = captured.out.splitlines()
            values = {line.split()[0]: line.split()[2] for line in lines[:3]}
            assert values["US"] == values["IS"]
            assert ", c = 1, " in lines[3]

    def test_control_variate_value(self, capsys):
        out = run(
            ["estimate", "--theta", "2.0", "--cv", "value:2.0", "--seed", "5"], capsys
        )
        assert "t = 2" in out

    def test_control_variate_sampling_mean(self, capsys):
        out = run(["estimate", "--cv", "sampling-mean", "--seed", "5"], capsys)
        assert "t = 0.5" in out

    def test_treatment_example(self, capsys):
        out = run(
            ["estimate", "--example", "treatment", "--cr-min", "10.375", "--seed", "2"],
            capsys,
        )
        assert "c = 0.25" in out

    def test_bad_cv(self):
        with pytest.raises(SystemExit):
            main(["estimate", "--cv", "median"])

    @pytest.mark.parametrize(
        "argv",
        [["--theta", "1e308"], ["--example", "treatment", "--n", "5", "--cv", "value:1e308"]],
    )
    def test_overflowing_estimates_are_a_user_error(self, argv, capsys):
        assert main(["estimate", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "error: the estimates overflow the double range"


@pytest.mark.parametrize("command", ["sweep-illustrative", "sweep-treatment"])
def test_sweeps_reject_bad_cv_alike(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--cv", "median"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --cv: cv must be none, value:<real>, or sampling-mean" in err


class TestSweepIllustrative:
    ARGS = [
        "sweep-illustrative",
        "--f-max-grid", "0.5,1.0",
        "--theta-grid", "1.0",
        "--n-grid", "10",
        "--trials", "500",
        "--seed", "9",
    ]

    def test_header_schema(self, capsys):
        out = run(self.ARGS, capsys)
        assert out.splitlines()[0] == SWEEP_HEADER
        assert len(out.splitlines()) == 3

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        out = run(self.ARGS + ["--format", "json"], capsys)
        rows = json.loads(out)
        assert len(rows) == 2
        assert rows[0]["f_max"] == 0.5
        assert rows[0]["n"] == 10

    def test_json_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(self.ARGS + ["--format", "json", "--out", str(a)])
        main(self.ARGS + ["--format", "json", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_control_variate_flag(self, capsys):
        out = run(self.ARGS + ["--cv", "sampling-mean"], capsys)
        reader = csv.DictReader(io.StringIO(out))
        for row in reader:
            assert float(row["emp_is_var"]) >= 0.0


    def test_overflowing_analytic_inputs_are_a_user_error(self, capsys):
        argv = ["--theta-grid", "1e308", "--f-max-grid", "1", "--n-grid", "5", "--trials", "100"]
        assert main(["sweep-illustrative", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last == "error: the analytic inputs overflow the double range"


class TestSweepTreatment:
    def test_smoke(self, capsys):
        out = run(
            [
                "sweep-treatment",
                "--cr-min-grid", "10.375",
                "--n", "10",
                "--trials", "400",
                "--seed", "4",
            ],
            capsys,
        )
        reader = csv.DictReader(io.StringIO(out))
        rows = list(reader)
        assert len(rows) == 1
        assert float(rows[0]["c"]) == pytest.approx(0.25)


class TestBoundsAndCoverage:
    def test_bounds_smoke(self, capsys):
        out = run(
            ["bounds", "--n-grid", "10,50", "--trials", "300", "--seed", "6"], capsys
        )
        reader = csv.DictReader(io.StringIO(out))
        rows = list(reader)
        assert [int(r["n"]) for r in rows] == [10, 50]
        for r in rows:
            assert float(r["mean_us_upper"]) - float(r["mean_us_lower"]) < float(
                r["mean_is_upper"]
            ) - float(r["mean_is_lower"])

    def test_coverage_smoke(self, capsys):
        out = run(
            ["coverage", "--n-grid", "10", "--trials", "400", "--seed", "6"], capsys
        )
        reader = csv.DictReader(io.StringIO(out))
        rows = list(reader)
        assert len(rows) == 1
        assert 0.85 <= float(rows[0]["coverage_us"]) <= 1.0

    @pytest.mark.parametrize(
        "command, us_columns",
        [
            ("bounds", ["mean_us_lower", "mean_us_upper"]),
            ("coverage", ["coverage_us", "mean_margin_us", "margin_ratio", "predicted_ratio"]),
        ],
    )
    def test_no_trial_in_c_gives_nan_us_columns(self, command, us_columns, capsys):
        code = main([command, "--f-max", "0.01", "--n-grid", "1", "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        (row,) = csv.DictReader(io.StringIO(captured.out))
        rho_column = "empirical_rho" if command == "bounds" else "mean_k"
        assert float(row[rho_column]) == 0.0  # no trial has k > 0
        assert [row[name] for name in us_columns] == ["nan"] * len(us_columns)

    @pytest.mark.parametrize(
        "command, us_columns",
        [
            ("bounds", ["mean_us_lower", "mean_us_upper"]),
            ("coverage", ["coverage_us", "mean_margin_us", "margin_ratio", "predicted_ratio"]),
        ],
    )
    def test_no_trial_in_c_gives_null_us_fields_in_json(self, command, us_columns, capsys):
        """JSON has no NaN: the undefined US fields are null, and the
        output parses under a parser that rejects NaN and Infinity."""
        out = run(
            [command, "--f-max", "0.01", "--n-grid", "1", "--trials", "5", "--format", "json"],
            capsys,
        )

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        (row,) = json.loads(out, parse_constant=reject)
        assert [row[name] for name in us_columns] == [None] * len(us_columns)

    @pytest.mark.parametrize("command", ["bounds", "coverage"])
    def test_overflowing_range_is_a_user_error(self, command, capsys):
        """At theta = 1e308 the range b of f h / g overflows to inf."""
        code = main([command, "--theta", "1e308", "--n-grid", "10", "--trials", "100"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "error: b must be nonnegative and finite"

    @pytest.mark.parametrize("command", ["bounds", "coverage"])
    def test_overflowing_range_runs_no_trial(self, command, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("b must be checked before any trial runs")

        monkeypatch.setattr(experiments, "simulate_estimates", fail)
        assert main([command, "--theta", "1e308", "--n-grid", "10", "--trials", "100"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: b must be nonnegative and finite"


class TestMoments:
    def test_headline_catalog(self, capsys):
        out = run(
            ["moments", "--n", "50", "--c", "0.25", "--v", "16", "--theta", "10"],
            capsys,
        )
        reader = csv.DictReader(io.StringIO(out))
        rows = {(r["estimator"], r["regime"]): r for r in reader}
        assert len(rows) == 4
        is_u = rows[("IS", "unconditional")]
        us_u = rows[("US", "unconditional")]
        assert float(is_u["variance"]) == pytest.approx(6.08)
        assert float(us_u["mse"]) == pytest.approx(0.086, abs=0.002)

    def test_kappa_adds_exact_rows(self, capsys):
        out = run(
            [
                "moments",
                "--n", "50", "--c", "0.25", "--v", "16", "--theta", "10",
                "--kappa", "13",
            ],
            capsys,
        )
        reader = csv.DictReader(io.StringIO(out))
        rows = list(reader)
        assert len(rows) == 6
        exact = [r for r in rows if r["regime"] == "conditioned-exact"]
        assert len(exact) == 2
        for r in exact:
            assert r["variance"] == ""

    def test_rows_are_the_catalog_reports(self, capsys):
        """Each JSON record is one moment_report's fields, keys in order,
        and the CSV text is the rendering of the same reports."""
        flags = ["--n", "50", "--c", "0.25", "--v", "16", "--theta", "10", "--kappa", "3"]
        records = json.loads(run(["moments", *flags, "--format", "json"], capsys))
        cells = [
            ("IS", "unconditional", None),
            ("IS", "conditioned-positive", None),
            ("US", "unconditional", None),
            ("US", "conditioned-positive", None),
            ("IS", "conditioned-exact", 3),
            ("US", "conditioned-exact", 3),
        ]
        reports = [
            moment_report(estimator, regime, MomentInputs(50, 0.25, 16.0, 10.0, kappa))
            for estimator, regime, kappa in cells
        ]
        assert [list(r.items()) for r in records] == [
            list(vars(report).items()) for report in reports
        ]
        assert records[-1]["variance"] is None and records[-1]["mse"] is None
        assert run(["moments", *flags], capsys) == render(reports, "csv")

    def test_nan_variance_is_a_user_error(self, capsys):
        code = main(["moments", "--n", "10", "--c", "0.5", "--v", "nan", "--theta", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: v must be nonnegative\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--v", "inf", "v must be finite"),
            ("--theta", "nan", "theta must be finite"),
            ("--theta", "inf", "theta must be finite"),
            ("--theta", "-inf", "theta must be finite"),
        ],
    )
    def test_non_finite_input_is_a_user_error(self, flag, value, message, capsys):
        argv = {"--n": "10", "--c": "0.5", "--v": "1", "--theta": "1", flag: value}
        code = main(["moments", *(x for item in argv.items() for x in item)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_tiny_c_gives_a_finite_row_or_an_error(self, capsys):
        # At c = 1e-150 every moment is a double: the IS k > 0 variance is
        # (n - 1) / (2 n^2 c) theta^2 to leading order.
        out = run(["moments", "--n", "10", "--c", "1e-150", "--v", "1", "--theta", "1"], capsys)
        rows = {(r["estimator"], r["regime"]): r for r in csv.DictReader(io.StringIO(out))}
        assert float(rows["IS", "conditioned-positive"]["variance"]) == pytest.approx(
            4.5e148, rel=1e-12
        )
        assert all(math.isfinite(float(r[k])) for r in rows.values() for k in ("variance", "mse"))
        # At c = 1e-300 the IS k > 0 squared bias, 1e598, is not.
        code = main(["moments", "--n", "10", "--c", "1e-300", "--v", "1", "--theta", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: the IS conditioned-positive moments")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("kappa", [[], ["--kappa", "13"]])
    def test_one_inverse_moment_per_call(self, monkeypatch, kappa, capsys):
        """The four averaged cells share one E[1/K | K > 0] sum; the
        conditioned-exact cells need none."""
        seen = []
        original = moments.binom_inv_moment

        def counting(n, c):
            seen.append((n, c))
            return original(n, c)

        monkeypatch.setattr(moments, "binom_inv_moment", counting)
        run(["moments", "--n", "50", "--c", "0.25", "--v", "16", "--theta", "10", *kappa], capsys)
        assert seen == [(50, 0.25)]


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestNegativeValues:
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["moments", "--n", "10", "--c", "0.25", "--v", "16"], "--theta", "-1e3"),
            (["estimate", "--n", "20"], "--theta", "-1E3"),
            (["estimate", "--example", "treatment"], "--cr-min", "-1e0"),
            (
                ["sweep-illustrative", "--f-max-grid", "1", "--n-grid", "5", "--trials", "200"],
                "--theta-grid",
                "-1e1,-2.5e-1",
            ),
        ],
    )
    def test_exponent_reads_as_with_equals_sign(self, argv, flag, value, capsys):
        """argparse alone reads -1e3 as an unknown flag."""
        code = main([*argv, flag, value])
        split = capsys.readouterr()
        assert code == main([*argv, f"{flag}={value}"])
        assert split == capsys.readouterr()
        assert split.out or split.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--theta", "-inf"],
            ["estimate", "--theta", "-Infinity"],
            ["bounds", "--theta", "-inf"],
            ["coverage", "--theta", "-infinity"],
            ["sweep-illustrative", "--theta-grid", "1,-inf"],
        ],
    )
    def test_negative_infinity_reaches_the_finite_check(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: theta must be finite\n"

    def test_no_flag_reads_as_a_negative_number(self):
        """The widened matcher would turn such a flag into a value."""
        parser = cli._build_parser()
        subparsers = parser._subparsers._group_actions[0].choices.values()
        for each in (parser, *subparsers):
            for flag in each._option_string_actions:
                assert not each._negative_number_matcher.match(flag), flag


class TestParserReuse:
    """One parser per process: later ``main`` calls reuse the first one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Top-level parsers built from here on, starting from none cached."""
        count = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(self, **kwargs):
            count.append(self.prog)
            return add_subparsers(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        cli._build_parser.cache_clear()
        return count

    def test_built_once_over_many_calls(self, builds, capsys):
        run(["moments", "--n", "10", "--c", "0.5", "--v", "1", "--theta", "0"], capsys)
        run(["estimate", "--seed", "1"], capsys)
        run(["moments", "--n", "20", "--c", "0.5", "--v", "1", "--theta", "0"], capsys)
        assert builds == ["unequal-support"]

    def test_control_variate_does_not_leak(self, capsys):
        first = run(["estimate", "--seed", "5"], capsys)
        run(["estimate", "--cv", "sampling-mean", "--seed", "5"], capsys)
        again = run(["estimate", "--seed", "5"], capsys)
        assert "t = 0\n" in first
        assert again == first

    def test_kappa_does_not_leak(self, capsys):
        args = ["moments", "--n", "50", "--c", "0.25", "--v", "16", "--theta", "10"]
        assert len(run(args + ["--kappa", "3"], capsys).splitlines()) == 7
        assert len(run(args, capsys).splitlines()) == 5

    def test_bad_argv_leaves_next_call_unchanged(self, capsys):
        args = ["moments", "--n", "50", "--c", "0.25", "--v", "16", "--theta", "10"]
        before = run(args, capsys)
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--n", "50", "--c", "not-a-number"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(args, capsys) == before


def test_malformed_yaml_is_a_user_error(tmp_path, capsys):
    """The error line is pyyaml's own message for the file."""
    path = tmp_path / "bad.yaml"
    path.write_text("problem:\n  target: {kind: uniform\n  low: [1\n")
    assert main(["estimate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    with open(path, encoding="utf-8") as fh, pytest.raises(yaml.YAMLError) as exc:
        yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert captured.out == ""
    assert captured.err == f"error: {exc.value}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--theta", "1e308"], "the estimates overflow the double range"),
        (["estimate", "--example", "treatment", "--n", "5", "--cv", "value:1e308"],
         "the estimates overflow the double range"),
        (["bounds", "--theta", "1e308"], "b must be nonnegative and finite"),
        (["coverage", "--theta", "1e308"], "b must be nonnegative and finite"),
        (["sweep-illustrative", "--theta-grid", "1e308", "--f-max-grid", "1", "--n-grid", "5",
          "--trials", "100"], "the analytic inputs overflow the double range"),
        # Every term is finite here; their sums overflow.
        (["bounds", "--theta", "5e306", "--f-max", "0.1", "--n-grid", "10,200",
          "--trials", "100"], "the estimates overflow the double range"),
        (["coverage", "--theta", "5e306", "--f-max", "0.1", "--n-grid", "10,200",
          "--trials", "100"], "the estimates overflow the double range"),
        (["estimate", "--theta", "5e306", "--f-max", "0.1"],
         "the estimates overflow the double range"),
    ],
)
def test_overflowing_inputs_end_with_one_error_line_and_no_warning(argv, message, capsys):
    """Each overflowing product or sum is left to the finiteness or
    coverage check after it, so its ValueError is the one line on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


CONFIG = (
    "problem:\n"
    "  target: {kind: uniform, low: 0.0, high: 1.0}\n"
    "  sampling: {kind: uniform, low: 0.0, high: 2.0}\n"
    "  evaluation: {pieces: [[0.0, 0.5, 1.0]]}\n"
    "  pruning: {intervals: [[0.0, 0.5]]}\n"
)

MALFORMED = {
    "problem-scalar": "problem: 5\n",
    "pieces-scalar": CONFIG.replace("[[0.0, 0.5, 1.0]]", "5"),
    "piece-null": CONFIG.replace("0.5, 1.0]", "0.5, null]"),
    "piece-inf": CONFIG.replace("0.5, 1.0]", "0.5, -.inf]"),
    "pruning-null": CONFIG.replace("{intervals: [[0.0, 0.5]]}", "null"),
    "low-list": CONFIG.replace("low: 0.0, high: 1.0", "low: [0], high: 1.0"),
    "c-list": CONFIG.replace("[[0.0, 0.5]]}", "[[0.0, 0.5]], c: [0.3]}"),
    "weights-mapping": CONFIG.replace(
        "{kind: uniform, low: 0.0, high: 2.0}",
        "{kind: piecewise-uniform, intervals: [[0.0, 2.0]], weights: {a: 1}}",
    ),
    "weight-key": CONFIG.replace(
        "{kind: uniform, low: 0.0, high: 2.0}",
        "{kind: piecewise-uniform, intervals: [[0.0, 2.0]], weight: [1.0]}",
    ),
    "uniform-mean-key": CONFIG.replace("low: 0.0, high: 1.0", "low: 0.0, high: 1.0, mean: 5"),
    "stddev-null": CONFIG.replace(
        "{kind: uniform, low: 0.0, high: 1.0}",
        "{kind: truncated-normal, lower: 0.0, upper: 1.0, mean: 0.5, stddev: null}",
    ),
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_types_are_user_errors(text, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main(["estimate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("source", ["illustrative", "treatment", "config"])
def test_estimate_evaluates_its_batch_once(source, monkeypatch, tmp_path, capsys):
    path = tmp_path / "p.yaml"
    path.write_text(CONFIG)
    argv = ["--config", str(path)] if source == "config" else ["--example", source]
    calls = []
    batch_terms = EstimationProblem.batch_terms

    def counting(self, *args, **kwargs):
        calls.append(args[0].size)
        return batch_terms(self, *args, **kwargs)

    monkeypatch.setattr(EstimationProblem, "batch_terms", counting)
    run(["estimate", "--n", "40", *argv], capsys)
    assert calls == [40]


def test_control_variate_on_c_missing_part_of_f_is_a_user_error(tmp_path, capsys):
    # C = [0, 0.5] covers F ∩ H but not F = [0, 1].
    path = tmp_path / "short_c.yaml"
    path.write_text(CONFIG)
    run(["estimate", "--config", str(path), "--cv", "none"], capsys)
    assert main(["estimate", "--config", str(path), "--cv", "value:0.3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: control variate requires")
