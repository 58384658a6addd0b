import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fuzzybvp
import reference
from fuzzybvp.cli import (
    EXAMPLE_PROBLEMS,
    VERIFY_DEFAULT_MESH,
    VERIFY_DEFAULT_SAMPLES,
    VERIFY_DEFAULT_TOLERANCE,
    ProblemFormatError,
    _format_bytes,
    _read_document,
    _t_format,
    _to_json,
    band_to_csv,
    band_to_json,
    build_parser,
    example_problem_document,
    main,
    problem_from_document,
)
from fuzzybvp.fuzzy import TriangularFuzzyNumber
from fuzzybvp.ode import DEFAULT_STEPS, TimeGrid
from fuzzybvp.oracle import compare, envelope
from fuzzybvp.solver import BLOCK_ROWS, SolutionBand, solve_fuzzy_bvp


def run_cli(argv):
    """Run the CLI, normalizing SystemExit (usage errors) to an exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def load(path):
    """Read, validate and build the problem in a JSON file, as the CLI does."""
    problem, _ = problem_from_document(_read_document(path))
    return problem


def write_example(tmp_path, which, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(example_problem_document(which)), encoding="utf-8")
    return str(path)


RESONANT = {
    "equation": {"order": 2, "coeffs": ["0", "pi^2"], "forcing": "0"},
    "interval": {"t0": 0, "T": 1},
    "conditions": [
        {"t": 0, "value": {"type": "triangular", "l": -0.5, "m": 0, "r": 1}},
        {"t": 1, "value": {"type": "triangular", "l": -1, "m": 0, "r": 1}},
    ],
}


STIFF_SHORT_OF_T_END = {
    "equation": {"order": 2, "coeffs": ["0", "-1156"], "forcing": "0"},
    "interval": {"t0": 0, "T": 1},
    "conditions": [
        {"t": 0, "value": {"type": "triangular", "l": 0.5, "m": 1, "r": 1.5}},
        {"t": 0.7003, "value": {"type": "triangular", "l": 1.5, "m": 2, "r": 2.5}},
    ],
}


class TestLoadProblem:
    def test_example1_loads(self, tmp_path):
        problem = load(write_example(tmp_path, 1))
        assert problem.ode.order == 2
        assert problem.grid.t0 == 0.0 and problem.grid.t_end == 1.0
        assert problem.conditions[0] == (0.0, TriangularFuzzyNumber(1.5, 2.0, 3.0))
        assert problem.conditions[1] == (1.0, TriangularFuzzyNumber(2.0, 3.0, 4.0))

    def test_example2_loads(self, tmp_path):
        problem = load(write_example(tmp_path, 2))
        assert problem.grid.t_end == 2.0
        assert problem.conditions[1][1] == TriangularFuzzyNumber(0.5, 1.0, 1.5)

    def test_condition_count_mismatch(self, tmp_path):
        doc = example_problem_document(1)
        del doc["conditions"][1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ProblemFormatError, match=r"conditions: expected 2"):
            load(str(path))

    def test_errors_carry_json_paths(self):
        doc = example_problem_document(1)
        doc["equation"]["coeffs"][1] = "2 +"
        doc["conditions"][0]["value"] = {"type": "triangular", "l": 3, "m": 2, "r": 1}
        with pytest.raises(ProblemFormatError) as info:
            problem_from_document(doc)
        joined = "\n".join(info.value.errors)
        assert "equation.coeffs[1]" in joined
        assert "conditions[0].value" in joined

    def test_unknown_fields_flagged(self):
        doc = example_problem_document(1)
        doc["conditions"][0]["derivative"] = 1
        with pytest.raises(ProblemFormatError, match=r"conditions\[0\].derivative"):
            problem_from_document(doc)

    def test_condition_time_outside_interval(self):
        doc = example_problem_document(1)
        doc["conditions"][1]["t"] = 4.0
        with pytest.raises(ProblemFormatError, match=r"conditions\[1\].t"):
            problem_from_document(doc)

    def test_duplicate_condition_times(self):
        doc = example_problem_document(1)
        doc["conditions"][1]["t"] = 0
        with pytest.raises(ProblemFormatError, match="distinct"):
            problem_from_document(doc)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProblemFormatError, match="not valid JSON"):
            load(str(path))

    def test_parametric_condition_supported(self):
        doc = example_problem_document(1)
        doc["conditions"][0]["value"] = {
            "type": "parametric", "alphas": [0, 1], "lower": [1.5, 2], "upper": [3, 2]}
        problem, _ = problem_from_document(doc)
        cut = problem.conditions[0][1].alpha_cut(0.0)
        assert (cut.lo, cut.hi) == (1.5, 3.0)


class TestExampleCommand:
    def test_round_trip_through_load(self, tmp_path, capsys):
        for which in (1, 2):
            assert run_cli(["example", str(which)]) == 0
            out = capsys.readouterr().out
            path = tmp_path / f"ex{which}.json"
            path.write_text(out, encoding="utf-8")
            loaded = load(str(path))
            direct, _ = problem_from_document(example_problem_document(which))
            assert loaded == direct

    def test_unknown_example_is_usage_error(self, capsys):
        assert run_cli(["example", "3"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_output_is_canonical(self, capsys):
        run_cli(["example", "1"])
        first = capsys.readouterr().out
        run_cli(["example", "1"])
        assert capsys.readouterr().out == first
        assert json.loads(first) == EXAMPLE_PROBLEMS[1]


class TestSolveCommand:
    def test_csv_shape_and_boundary_row(self, tmp_path, capsys):
        path = write_example(tmp_path, 1)
        assert run_cli(["solve", path, "--alphas", "0,0.5,1", "--points", "101"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,lower_0,upper_0,lower_0.5,upper_0.5,lower_1,upper_1"
        assert len(lines) == 1 + 101
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 1.5 and float(first[2]) == 3.0

    def test_example2_end_row(self, tmp_path, capsys):
        path = write_example(tmp_path, 2)
        assert run_cli(["solve", path, "--alphas", "0,0.6", "--points", "201"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 201
        last = lines[-1].split(",")
        assert float(last[0]) == 2.0
        assert float(last[1]) == 0.5 and float(last[2]) == 1.5

    def test_deterministic_output_bytes(self, tmp_path):
        path = write_example(tmp_path, 1)
        out1 = tmp_path / "band1.csv"
        out2 = tmp_path / "band2.csv"
        assert run_cli(["solve", path, "--out", str(out1)]) == 0
        assert run_cli(["solve", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_nesting_in_every_row(self, tmp_path, capsys):
        path = write_example(tmp_path, 2)
        assert run_cli(["solve", path, "--alphas", "0,0.3,0.6,1", "--points", "51"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        for line in lines:
            cells = [float(c) for c in line.split(",")[1:]]
            lowers, uppers = cells[0::2], cells[1::2]
            assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(uppers, uppers[1:]))

    def test_json_format(self, tmp_path, capsys):
        path = write_example(tmp_path, 1)
        assert run_cli(["solve", path, "--format", "json", "--points", "11",
                        "--alphas", "0,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alphas"] == [0.0, 1.0]
        assert len(doc["t"]) == 11
        assert doc["levels"][0]["lower"][0] == 1.5
        assert doc["levels"][0]["upper"][0] == 3.0

    def test_defaults_come_from_problem_file(self, tmp_path, capsys):
        path = write_example(tmp_path, 2)
        assert run_cli(["solve", path]) == 0
        header = capsys.readouterr().out.split("\n", 1)[0]
        assert header == "t,lower_0,upper_0,lower_0.6,upper_0.6,lower_1,upper_1"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_levels_that_print_alike_are_refused(self, tmp_path, capsys, fmt):
        # two levels with one %.12g text: the header and the JSON "alphas"
        # could not tell them apart (the flag's case is in the flag messages)
        doc = example_problem_document(1)
        doc["output"]["alphas"] = [1, 0.30000000000000004, 0.3]
        path, out = tmp_path / "problem.json", tmp_path / "band.out"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path), "--format", fmt, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid problem file:",
            "  output.alphas: alpha levels 0.3 and 0.30000000000000004 both print as 0.3"]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--alphas", "output.alphas"])
    def test_equal_levels_collapse_to_one(self, tmp_path, capsys, source):
        doc, argv = example_problem_document(1), []
        if source == "--alphas":
            argv = ["--alphas", "0.5,0.5,0.50"]
        else:
            doc["output"]["alphas"] = [0.5, 0.5, 0.50]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path), "--points", "3", *argv]) == 0
        assert capsys.readouterr().out.split("\n", 1)[0] == "t,lower_0.5,upper_0.5"
        assert run_cli(["solve", str(path), "--points", "3", "--format", "json", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["alphas"] == [0.5]

    def test_levels_alike_only_in_the_unused_file_list_solve(self, tmp_path, capsys):
        doc = example_problem_document(1)
        doc["output"]["alphas"] = [0.3, 0.30000000000000004]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path), "--points", "3", "--alphas", "0.3"]) == 0
        assert capsys.readouterr().out.split("\n", 1)[0] == "t,lower_0.3,upper_0.3"

    def test_negative_zero_level_is_named_zero_in_csv(self, tmp_path, capsys):
        path = write_example(tmp_path, 1)
        assert run_cli(["solve", path, "--points", "3", "--alphas=-0,1"]) == 0
        csv = capsys.readouterr().out
        assert csv.split("\n", 1)[0] == "t,lower_0,upper_0,lower_1,upper_1"
        assert run_cli(["solve", path, "--points", "3", "--alphas=0,1"]) == 0
        assert capsys.readouterr().out == csv

    def test_negative_zero_level_is_zero_in_json(self, tmp_path, capsys):
        path = write_example(tmp_path, 1)
        assert run_cli(["solve", path, "--points", "3", "--alphas=-0,1", "--format", "json"]) == 0
        text = capsys.readouterr().out
        assert "-0.0" not in text
        assert json.loads(text)["alphas"] == [0.0, 1.0]
        assert run_cli(["solve", path, "--points", "3", "--alphas=0,1", "--format", "json"]) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("alphas", ["--alphas=0,-0", "--alphas=-0,0"])
    def test_zero_of_either_sign_is_one_level(self, tmp_path, capsys, alphas):
        # 0 and -0 are one level, named 0, in either order
        path = write_example(tmp_path, 1)
        assert run_cli(["solve", path, "--points", "3", alphas]) == 0
        csv = capsys.readouterr().out
        assert run_cli(["solve", path, "--points", "3", "--alphas=0"]) == 0
        assert capsys.readouterr().out == csv
        assert csv.split("\n", 1)[0] == "t,lower_0,upper_0"

    def test_resonant_problem_exits_2(self, tmp_path, capsys):
        path = tmp_path / "resonant.json"
        path.write_text(json.dumps(RESONANT), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 2
        assert "no unique solution" in capsys.readouterr().err

    def test_unit_property_failure_exits_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(STIFF_SHORT_OF_T_END), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: weight functions miss the unit property")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("k", [3100, 3200])
    def test_damped_problem_past_the_power_overflow_exits_2_with_one_line(self, tmp_path,
                                                                         capsys, k):
        # x'' + k x' = 0 on [0, 1]: the boundary matrix's row sums pass 1e154,
        # whose square overflowed in the singularity test as a traceback.  The
        # problem is well posed; it exits 2 until the solve grid follows the
        # stiffness (ROADMAP item 8).
        doc = {"equation": {"order": 2, "coeffs": [str(k), "0"], "forcing": "0"},
               "interval": {"t0": 0, "T": 1},
               "conditions": [
                   {"t": 0, "value": {"type": "triangular", "l": -0.5, "m": 0, "r": 0.5}},
                   {"t": 1, "value": {"type": "triangular", "l": 0.5, "m": 1, "r": 1.5}}]}
        path, out = tmp_path / "damped.json", tmp_path / "band.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["solve", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("boundary matrix is numerically singular")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_order_5_on_a_short_interval_exits_1_with_one_line(self, tmp_path, capsys):
        # x^(5) + x = 0 on [0, 1e-80] at 0, L/4, L/2, 3L/4 and L: length^-4
        # passes the float range, and the singularity test's column scaling
        # overflowed into a NaN verdict, three numpy warnings and exit 1.  The
        # basis column x^(4)/24 ~ 4e-322 is subnormal at every point: one
        # line, exit 1, no warning, before any output
        self.assert_short_order_5_exits_1(tmp_path, capsys, (0, 0, 0, 0, 1))

    def test_order_5_subnormal_column_no_longer_sets_the_weights(self, tmp_path, capsys):
        # with the vertices on a line the same problem exited 0 with weights
        # 2.3 off the Lagrange basis, set by the ~7 bits of that column
        self.assert_short_order_5_exits_1(tmp_path, capsys, (0, 0.25, 0.5, 0.75, 1))

    @staticmethod
    def assert_short_order_5_exits_1(tmp_path, capsys, vertices):
        length = 1e-80
        doc = {"equation": {"order": 5, "coeffs": ["0", "0", "0", "0", "1"], "forcing": "0"},
               "interval": {"t0": 0, "T": length},
               "conditions": [{"t": f * length, "value": {"type": "triangular", "l": m - 0.5,
                                                          "m": m, "r": m + 0.5}}
                              for f, m in zip((0, 0.25, 0.5, 0.75, 1), vertices)]}
        path, out = tmp_path / "short.json", tmp_path / "band.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["solve", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: basis solution 5 is at most 4.2e-322 at the boundary points, "
                       "below the normal float range\n")
        assert not out.exists()

    def test_validation_error_exits_1(self, tmp_path, capsys):
        doc = example_problem_document(1)
        doc["equation"]["forcing"] = "4*t -"
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 1
        assert "equation.forcing" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert run_cli(["solve", "/nonexistent/problem.json"]) == 1

    def test_alpha_flag_validation(self, tmp_path, capsys):
        path = write_example(tmp_path, 1)
        assert run_cli(["solve", path, "--alphas", "0,banana"]) == 1

    @pytest.mark.parametrize("points", ["1", "-5", "0", "2.5", "x"])
    def test_points_flag_error_names_the_flag(self, tmp_path, capsys, points):
        path = write_example(tmp_path, 1)
        assert run_cli(["solve", path, "--points", points]) == 1
        err = capsys.readouterr().err
        assert "argument --points:" in err
        assert "output.points" not in err and "invalid problem file" not in err

    @pytest.mark.parametrize("value, message", [
        ({"type": "triangular", "l": None, "m": 2, "r": 3}, "field l must be a number"),
        ({"type": "triangular", "l": [1], "m": 2, "r": 3}, "field l must be a number"),
        ({"type": "triangular", "l": True, "m": 2, "r": 3}, "field l must be a number"),
        ({"type": "triangular", "l": 1.5, "m": 2, "r": 10**400}, "field r must be a number"),
        ({"type": "parametric", "alphas": {"a": 1}, "lower": [1.5, 2], "upper": [3, 2]},
         "field alphas must be a list of numbers"),
        ({"type": "parametric", "alphas": [0, 1], "lower": [None, 2], "upper": [3, 2]},
         "field lower must be a list of numbers"),
    ])
    def test_non_number_condition_value_exits_1_naming_it(self, tmp_path, capsys,
                                                           value, message):
        doc = example_problem_document(1)
        doc["conditions"][0]["value"] = value
        path = tmp_path / "bad-value.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"conditions[0].value: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["t", "T"])
    def test_number_too_large_for_a_float_exits_1(self, tmp_path, capsys, where):
        doc = example_problem_document(1)
        if where == "t":
            doc["conditions"][0]["t"] = 10**400
        else:
            doc["interval"]["T"] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        label = "conditions[0].t" if where == "t" else "interval.T"
        assert f"{label}: must be a number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("t0, t_end, forcing", [
        (0, float("inf"), "4*t - 6"),
        (-1e308, 1e308, "4*t - 6"),
        (-1e308, 1e308, "0"),
    ])
    def test_interval_of_non_finite_length_exits_1_without_warning(self, tmp_path, capsys,
                                                                   t0, t_end, forcing):
        doc = example_problem_document(1)
        doc["interval"] = {"t0": t0, "T": t_end}
        doc["conditions"][0]["t"] = t0
        doc["equation"]["forcing"] = forcing
        path = tmp_path / "endless.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # inf is written as Infinity
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "interval: length T - t0 must be finite" in err
        assert "Traceback" not in err and "Warning" not in err

    def test_coefficient_beyond_float_range_exits_1_naming_it(self, tmp_path, capsys):
        doc = example_problem_document(1)
        doc["equation"]["coeffs"][0] = "1e400"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "equation.coeffs[0]: number 1e400 is too large for a float (column 1)" in err
        assert "integration" not in err


class TestVerifyCommand:
    def test_example1_passes(self, tmp_path, capsys):
        path = write_example(tmp_path, 1)
        report_path = tmp_path / "report.json"
        code = run_cli(["verify", path, "--mesh", "999", "--out", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["passed"] is True
        assert doc["max_deviation"] <= 1e-4
        assert len(doc["t"]) == 1001

    def test_example2_at_figure_level(self, tmp_path, capsys):
        path = write_example(tmp_path, 2)
        assert run_cli(["verify", path, "--alpha", "0.6", "--mesh", "999"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == 0.6
        assert doc["passed"] is True

    def test_negative_zero_alpha_is_reported_as_zero(self, tmp_path, capsys):
        path = write_example(tmp_path, 1)
        assert run_cli(["verify", path, "--alpha=-0", "--mesh", "99"]) == 0
        text = capsys.readouterr().out
        assert '"alpha": 0.0,' in text and "-0.0" not in text
        assert run_cli(["verify", path, "--alpha=0", "--mesh", "99"]) == 0
        assert capsys.readouterr().out == text

    def test_impossible_tolerance_exits_3(self, tmp_path, capsys):
        path = write_example(tmp_path, 1)
        code = run_cli(["verify", path, "--mesh", "499", "--tolerance", "1e-12"])
        assert code == 3
        assert "verification failed" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_tolerance_validated_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                  tolerance):
        def must_not_run(*args, **kwargs):
            raise AssertionError("solve ran despite a usage error")

        monkeypatch.setattr("fuzzybvp.cli.envelope", must_not_run)
        monkeypatch.setattr("fuzzybvp.cli.solve_fuzzy_bvp", must_not_run)
        path = write_example(tmp_path, 1)
        assert run_cli(["verify", path, "--tolerance", tolerance]) == 1
        err = capsys.readouterr().err
        assert "tolerance must be finite and >= 0" in err
        assert "verification failed" not in err

    def test_cut_wider_than_float_range_exits_1_without_warning(self, tmp_path, capsys):
        doc = example_problem_document(1)
        doc["conditions"][0]["value"] = {"type": "triangular", "l": -1e308, "m": 0, "r": 1e308}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["verify", str(path), "--mesh", "9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: alpha cut") and "non-finite" in err
        assert err.count("\n") == 1 and "Warning" not in err

    def test_higher_order_rejected(self, tmp_path, capsys):
        doc = {
            "equation": {"order": 3, "coeffs": ["0", "0", "0"], "forcing": "0"},
            "interval": {"t0": 0, "T": 1},
            "conditions": [
                {"t": 0, "value": {"type": "triangular", "l": 0, "m": 0, "r": 0}},
                {"t": 0.5, "value": {"type": "triangular", "l": 0, "m": 0.25, "r": 0.5}},
                {"t": 1, "value": {"type": "triangular", "l": 1, "m": 1, "r": 1}},
            ],
        }
        path = tmp_path / "order3.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["verify", str(path)]) == 1
        assert "order-2" in capsys.readouterr().err


class TestParserReuse:
    """The parser is built once per process; one call leaves nothing behind
    for the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_of_one_solve_do_not_carry_over(self, tmp_path, capsys):
        path = write_example(tmp_path, 1)
        assert run_cli(["solve", path, "--alphas", "0,1", "--points", "11"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,lower_0,upper_0,lower_1,upper_1" and len(lines) == 1 + 11
        assert run_cli(["solve", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        # the file's output.alphas and output.points
        assert lines[0] == "t,lower_0,upper_0,lower_0.5,upper_0.5,lower_1,upper_1"
        assert len(lines) == 1 + 101

    def test_verify_after_solve_gets_its_own_defaults(self, tmp_path, capsys):
        path = write_example(tmp_path, 1)
        band = str(tmp_path / "band.csv")
        assert run_cli(["solve", path, "--alphas", "0.5", "--points", "7", "--out", band]) == 0
        assert run_cli(["verify", path, "--alpha", "0.5", "--samples", "3", "--mesh", "99",
                        "--tolerance", "1e-3"]) == 0
        capsys.readouterr()
        assert run_cli(["verify", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == 0.0
        assert doc["samples_per_axis"] == VERIFY_DEFAULT_SAMPLES
        assert doc["mesh_interior_points"] == VERIFY_DEFAULT_MESH
        assert doc["tolerance"] == VERIFY_DEFAULT_TOLERANCE


class TestCsvFormatting:
    def test_twelve_significant_digits(self, solution1):
        band = solution1.band([0.0])
        text = csv_of(band)
        cell = text.strip().split("\n")[1].split(",")[1]
        assert len(cell.replace("-", "").replace(".", "").lstrip("0")) <= 12

    def test_levels_are_sorted_for_header_and_columns(self, solution1):
        # band_to_csv and band_blocks order the levels alike, whatever the caller's order
        out, alphas = TimeGrid(0.0, 1.0, 11), [1.0, 0.0, 0.5, 1.0]
        text = csv_text(alphas, solution1.band_blocks(alphas, out), "%.12g")
        assert text.split("\n")[0] == "t,lower_0,upper_0,lower_0.5,upper_0.5,lower_1,upper_1"
        assert_same_text(text, reference.band_to_csv(solution1.band([0.0, 0.5, 1.0], out)))

    def test_help_mentions_exit_codes(self, capsys):
        code = run_cli(["--help"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Exit codes" in out
        assert "UnitPropertyError" in out


SPECIAL_CELLS = (
    -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 1.7976931348623157e308,
    123456789012.5, 123456789013.5, 9.9999999999995, 0.30000000000000004, 1 / 3,
    float("nan"), float("inf"), float("-inf"),
)


def special_band(rows, seed=0):
    """Band on ``rows`` nodes: random magnitudes from 1e-320 to 1e300, with
    every special cell at the start and at the end of the level data."""
    alphas = (0.0, 0.25, 0.5, 1.0)
    rng = np.random.default_rng(seed + rows)
    size = 2 * len(alphas) * rows
    cells = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
    count = min(len(SPECIAL_CELLS), len(cells))
    cells[:count] = SPECIAL_CELLS[:count]
    cells[len(cells) - count:] = SPECIAL_CELLS[-count:]
    lower, upper = cells.reshape(2, len(alphas), rows)
    return SolutionBand(TimeGrid(-1.5, 2.5e3, rows), alphas, lower.copy(), upper.copy())


def csv_text(alphas, blocks, t_format):
    """What ``band_to_csv`` writes, as text."""
    buffer = io.BytesIO()
    band_to_csv(alphas, blocks, t_format, buffer)
    return buffer.getvalue().decode("ascii")


def csv_of(band):
    """``band_to_csv`` of a whole band, fed in ``BLOCK_ROWS``-node blocks as
    ``FuzzySolution.band_blocks`` feeds it."""
    grid = band.grid

    def blocks():
        for start in range(0, grid.num_points, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, grid.num_points)
            yield grid.nodes(start, stop), band.lower[:, start:stop], band.upper[:, start:stop]

    return csv_text(band.alphas, blocks(), _t_format(grid))


def assert_same_text(text, expected):
    """Exact equality; a failure names the first differing line instead of
    diffing megabytes of output."""
    if text != expected:
        got, want = text.splitlines(True), expected.splitlines(True)
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"first difference at line {i}: got {got[i:i + 1]!r}, "
                    f"expected {want[i:i + 1]!r} ({len(got)} vs {len(want)} lines)")


BLOCK_EDGE_ROWS = (2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3)


class TestByteIdentity:
    """Block formatting writes the same bytes as one f"{x:.12g}" per number."""

    @pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
    def test_csv_matches_per_cell_reference(self, rows):
        band = special_band(rows)
        text = csv_of(band)
        assert_same_text(text, reference.band_to_csv(band))
        assert text.count("\n") == rows + 1

    @pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
    def test_json_matches_per_value_reference(self, rows):
        band = special_band(rows)
        assert_same_text(band_to_json(band), reference.band_to_json(band))

    def test_to_json_matches_per_value_reference(self):
        values = np.array(SPECIAL_CELLS)
        tree = {"x": 2 / 3, "series": values, "nested": [values[::-1], {"empty": values[:0]}]}
        listed = {"x": 2 / 3, "series": list(values),
                  "nested": [list(values[::-1]), {"empty": []}]}
        assert_same_text(_to_json(tree), json.dumps(reference.round_tree(listed), indent=2))

    @pytest.mark.parametrize("x", [
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308,
        999999999999.5, 999999999999.4, 1e12, 1e15, 9.999999999999e15, 9.9999999999995e15,
        1e16, 1e-4, 1e-5, 1e-11, 9.99999999999e-12, 100.0, 3.0, -2.0, 123456789012.0,
        1.7976931348623157e308,
        float("nan"), float("inf"), float("-inf"),
    ])
    def test_to_json_series_at_notation_thresholds(self, x):
        expected = json.dumps([float(f"{x:.12g}")], indent=2)
        assert _to_json(np.array([x])) == expected
        assert _to_json(x) == json.dumps(float(f"{x:.12g}"))

    @pytest.mark.parametrize("empty, listed", [(np.array([]), []), ({}, {}), ([], []),
                                               ((), [])])
    def test_to_json_empty_containers(self, empty, listed):
        assert _to_json(empty) == json.dumps(listed, indent=2)
        assert _to_json({"k": [empty]}) == json.dumps({"k": [listed]}, indent=2)

    def test_to_json_scalars_and_keys_as_json_module(self):
        doc = {"s": 'q"b\\\u00e9\n\u2028', 'k"\u00e9': True, "f": False, "n": None, "i": -7,
               "big": 10**30, "t": (1, [2.5, np.array([0.1, 3.0])])}
        listed = {**doc, "t": [1, [2.5, [0.1, 3.0]]]}
        assert_same_text(_to_json(doc), json.dumps(reference.round_tree(listed), indent=2))

    def test_verify_report_matches_per_value_reference(self, tmp_path):
        path = write_example(tmp_path, 2)
        out = tmp_path / "report.json"
        assert run_cli(["verify", path, "--alpha", "0.6", "--samples", "3", "--mesh", "199",
                        "--tolerance", "1e-3", "--out", str(out)]) == 0
        problem = load(path)
        grid = TimeGrid(0.0, 2.0, 201)
        report = compare(solve_fuzzy_bvp(problem).band([0.6], grid=grid),
                         envelope(problem, 0.6, 3, grid))
        doc = {"problem": path, "mesh_interior_points": 199, "samples_per_axis": 3,
               "tolerance": 1e-3, "passed": True,
               **{k: list(v) if isinstance(v, np.ndarray) else v
                  for k, v in report.to_dict().items()}}
        expected = json.dumps(reference.round_tree(doc), indent=2) + "\n"
        assert_same_text(out.read_text(encoding="utf-8"), expected)

    @pytest.mark.parametrize("which, alpha", [(1, 0.0), (2, 0.6)])
    def test_verify_report_at_benchmark_shape(self, tmp_path, which, alpha):
        path = write_example(tmp_path, which, name='pro"b\\l\u00e9m.json')
        out = tmp_path / "report.json"
        assert run_cli(["verify", path, "--alpha", str(alpha), "--samples", "21",
                        "--mesh", "1999", "--out", str(out)]) == 0
        problem = load(path)
        grid = TimeGrid(0.0, problem.grid.t_end, 2001)
        report = compare(solve_fuzzy_bvp(problem).band([alpha], grid=grid),
                         envelope(problem, alpha, 21, grid))
        doc = {"problem": path, "mesh_interior_points": 1999, "samples_per_axis": 21,
               "tolerance": 1e-4, "passed": True,
               **{k: list(v) if isinstance(v, np.ndarray) else v
                  for k, v in report.to_dict().items()}}
        expected = json.dumps(reference.round_tree(doc), indent=2) + "\n"
        assert '\\"' in expected and "\\\\" in expected and "\\u00e9" in expected
        assert_same_text(out.read_text(encoding="utf-8"), expected)


class TestStreamedSolve:
    """``solve`` computes each CSV block of the band and writes it to its
    output as soon as it is formatted."""

    @pytest.mark.parametrize("to_file", [True, False], ids=["--out", "stdout"])
    # DEFAULT_STEPS + 1 rows are the solve grid's nodes: the on-grid blocks
    @pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS + (DEFAULT_STEPS + 1,))
    def test_solve_writes_the_bytes_of_band_to_csv(self, tmp_path, capsys, rows, to_file):
        path = write_example(tmp_path, 2)
        alphas = [0.0, 0.25, 0.6, 1.0]
        argv = ["solve", path, "--points", str(rows), "--alphas", "0,0.25,0.6,1"]
        out = tmp_path / "band.csv"
        assert run_cli(argv + ["--out", str(out)] if to_file else argv) == 0
        text = out.read_bytes().decode("utf-8") if to_file else capsys.readouterr().out
        band = solve_fuzzy_bvp(load(path)).band(alphas, grid=TimeGrid(0.0, 2.0, rows))
        assert_same_text(text, csv_of(band))
        assert_same_text(text, reference.band_to_csv(band))

    @pytest.mark.parametrize("doc, code", [(STIFF_SHORT_OF_T_END, 1), (RESONANT, 2)],
                             ids=["unit property", "no unique solution"])
    def test_failed_solve_leaves_no_file(self, tmp_path, capsys, doc, code):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "band.csv"
        assert run_cli(["solve", str(path), "--out", str(out)]) == code
        assert not out.exists()

    def test_dense_solve_holds_little_beyond_its_band(self, tmp_path):
        # the band is computed and written one block at a time, so memory
        # does not grow with the rows: the 5-level band alone would be 8.0 MB
        # at 100001 rows and 32 MB at 400001, and the CSV text 14.7 and 59 MB
        path = write_example(tmp_path, 1)
        for rows in (100001, 400001):
            tracemalloc.start()
            try:
                assert run_cli(["solve", path, "--points", str(rows), "--alphas",
                                "0,0.25,0.5,0.75,1", "--out", os.devnull]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4e6, rows

    def test_closed_stdout_ends_the_output_quietly(self, tmp_path):
        # as in `fuzzybvp solve ... | head -1`: the reader takes one line and
        # goes, long before the 14.7 MB are written
        path = write_example(tmp_path, 1)
        src = str(Path(fuzzybvp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        with subprocess.Popen([sys.executable, "-m", "fuzzybvp.cli", "solve", path,
                               "--points", "100001"], env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"t,lower_0,upper_0")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.parametrize("argv", [
        ["solve", "--points", "101"],
        ["solve", "--points", "100001"],
        ["solve", "--points", "1001", "--format", "json"],
        ["verify", "--mesh", "999"],
    ], ids=["csv 101", "csv 100001", "json", "verify"])
    def test_stdout_through_a_pipe_matches_the_file(self, tmp_path, argv):
        # CSV goes to sys.stdout.buffer as bytes, JSON after it is encoded
        path = write_example(tmp_path, 1)
        out = tmp_path / "out"
        command, *flags = argv
        argv = [command, path, *flags]
        assert run_cli(argv + ["--out", str(out)]) == 0
        src = str(Path(fuzzybvp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        piped = subprocess.run([sys.executable, "-m", "fuzzybvp.cli", *argv], env=env,
                               stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert piped.stdout == out.read_bytes()
        if "json" in argv:
            solution = solve_fuzzy_bvp(load(path))
            band = solution.band([0.0, 0.5, 1.0], grid=TimeGrid(0.0, 1.0, 1001))
            assert piped.stdout == band_to_json(band).encode("ascii")
        elif command == "verify":
            assert json.loads(piped.stdout)["passed"] is True
        else:
            assert piped.stdout.count(b"\n") == int(flags[1]) + 1


def float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def neighbours(x):
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


# (k + 0.5) * 10**-j scales back to a product on a half or one float from it,
# for exponents 11 down to -11; 999999999999.5 rounds up to 1e12
HALVES = [y for k in (100000000000, 123456789012, 500000000000, 999999999999)
          for j in range(23) for y in neighbours((k + 0.5) / 10 ** j)]
# products clear of a half that round up to 1e12, so the exponent goes up by
# one: 9.99999999999995e-5 (j = 16) is written 0.0001
CARRIES = [(10 ** 12 - 0.3) / 10 ** j for j in range(24)]
POWERS_OF_TEN = [y for j in range(-13, 14) for y in neighbours(float(f"1e{j}"))]
EDGE_CELLS = [*HALVES, *CARRIES, *POWERS_OF_TEN, 9.9999999999995e-5, 999999999999.5,
              99999999999.95, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0,
              float("nan"), float("inf")]


class TestFormatRows:
    """``_format_bytes`` writes the bytes of one ``%`` per cell."""

    @pytest.mark.parametrize("first", ["%.12g", "%.17g"])
    @pytest.mark.parametrize("cols", [1, 7])
    def test_edge_cells_match_per_cell_reference(self, cols, first):
        cells = np.array(EDGE_CELLS + [-x for x in EDGE_CELLS])
        cells = np.resize(cells, (-(-len(cells) // cols), cols))
        assert_same_text(_format_bytes(cells, first).decode("ascii"),
                         reference.rows_text(cells, first))

    # one cell per digit-arithmetic row of the keep tables: each sign, decimal
    # exponent -11..11 and count 0..11 of trailing zeros in the 12 digits
    EVERY_ROW = [(-1.0) ** negative * float(f"1{'2' * (11 - zeros)}{'0' * zeros}e{exp - 11}")
                 for negative in (0, 1) for exp in range(-11, 12) for zeros in range(12)]

    @staticmethod
    def recording(table, rows):
        """``table`` with a ``take`` that adds the rows it reads to ``rows``."""
        class Recording(np.ndarray):
            def take(self, indices, *args, **kwargs):
                rows.update(np.ravel(indices).tolist())
                return table.take(indices, *args, **kwargs)
        return table.view(Recording)

    @pytest.mark.parametrize("first", ["%.12g", "%.17g"])
    def test_every_keep_row_matches_percent_and_json_module(self, monkeypatch, first):
        # a pass keeps the marked bytes by deleting the NULs of bytes times
        # mask, so no kept byte may be 0: the text of every row, and of a "%"
        # cell, equals "%" for CSV and json.dumps for JSON; both columns read
        # every row, the second also where the first is left to "%" (%.17g)
        cli = fuzzybvp.cli
        cells = np.array(self.EVERY_ROW + [0.0, -0.0, float("nan"), 1e15])
        cells = np.column_stack([cells[::-1], cells])
        csv_rows, json_rows = set(), set()
        monkeypatch.setattr(cli, "_KEEP", self.recording(cli._KEEP, csv_rows))
        monkeypatch.setattr(cli, "_JSON_KEEP", self.recording(cli._JSON_KEEP, json_rows))
        text = ((first + ",%.12g\n") * len(cells)) % tuple(cells.ravel().tolist())
        assert _format_bytes(cells, first).decode("ascii") == text
        assert csv_rows == set(range(len(cli._KEEP)))
        series = cells[:, 1]
        assert _to_json(series) == json.dumps([float(f"{x:.12g}") for x in series.tolist()],
                                              indent=2)
        # a 12-digit integer (E = 11) is left to json.dumps, for its ".0"
        unused = {276 * negative + 12 * 22 + zeros for negative in (0, 1) for zeros in range(12)}
        assert json_rows == set(range(len(cli._JSON_KEEP))) - unused


# Raw 64-bit patterns; in half of them the exponent field is moved to
# 2**-40 .. 2**42, around the [1e-11, 1e12) that the digit arithmetic
# writes, so that blocks mix digit-arithmetic cells with "%" cells.
block_cells = st.builds(
    lambda bits, near: float_from_bits(
        bits & ~(0x7FF << 52) | (983 + (bits >> 52) % 83) << 52 if near else bits),
    st.integers(min_value=0, max_value=2**64 - 1), st.booleans())


@given(st.integers(min_value=1, max_value=12).flatmap(
           lambda cols: st.lists(block_cells, min_size=cols, max_size=12 * cols).map(
               lambda cells: np.array(cells[:len(cells) // cols * cols]).reshape(-1, cols))),
       st.sampled_from(["%.12g", "%.17g"]))
def test_format_rows_matches_percent_over_the_block(cells, first):
    rows, cols = cells.shape
    row_fmt = ",".join([first] + ["%.12g"] * (cols - 1)) + "\n"
    text = (row_fmt * rows) % tuple(cells.ravel().tolist())
    assert _format_bytes(cells, first).decode("ascii") == text


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_percent_format_matches_f_string_for_every_float64(bits):
    x = float_from_bits(bits)
    assert "%.12g" % x == f"{x:.12g}" == f"{np.float64(x):.12g}"


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_to_json_series_matches_json_module_for_every_float64(bits):
    x = float_from_bits(bits)
    assert _to_json(np.array([x])) == json.dumps([float(f"{x:.12g}")], indent=2)


# Exponent-field moves, few-digit values and integers, so that series mix
# ".0" integers, exponent notation and the tokens left to json.dumps.
json_cells = st.one_of(
    block_cells,
    st.builds(lambda k, e: k * 10.0 ** e, st.integers(-999, 999), st.integers(-14, 16)),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), 1e12, 123456789012.0]))


@given(st.lists(json_cells, min_size=1, max_size=40))
def test_to_json_series_of_mixed_cells_matches_json_module(cells):
    assert _to_json(np.array(cells)) == json.dumps([float(f"{x:.12g}") for x in cells],
                                                   indent=2)


# (k + 0.5) / 10**j for any 12-digit k and exponent 11 down to -11, or a float
# up to 2 ulps from it, either sign: products within 2**-11 of a half, which
# the digit pass settles by the cell's own correctly rounded digits. The
# smallest and largest k are drawn often: 999999999999.5 / 10**j rounds up a
# power of ten, to 1e12 at j = 0.
near_half_cells = st.builds(
    lambda k, j, ulps, negative: (-1) ** negative * float_from_bits(
        struct.unpack("<Q", struct.pack("<d", (k + 0.5) / 10 ** j))[0] + ulps),
    st.one_of(st.integers(min_value=10 ** 11, max_value=10 ** 12 - 1),
              st.sampled_from([10 ** 11, 10 ** 12 - 1])),
    st.integers(min_value=0, max_value=22), st.integers(min_value=-2, max_value=2),
    st.booleans())


@given(st.integers(min_value=1, max_value=12).flatmap(
           lambda cols: st.lists(st.one_of(near_half_cells, block_cells),
                                 min_size=cols, max_size=12 * cols).map(
               lambda cells: np.array(cells[:len(cells) // cols * cols]).reshape(-1, cols))),
       st.sampled_from(["%.12g", "%.17g"]))
def test_near_half_cells_match_percent_and_json_module(cells, first):
    rows, cols = cells.shape
    row_fmt = ",".join([first] + ["%.12g"] * (cols - 1)) + "\n"
    text = (row_fmt * rows) % tuple(cells.ravel().tolist())
    assert _format_bytes(cells, first).decode("ascii") == text
    series = cells.ravel()
    assert _to_json(series) == json.dumps([float(f"{x:.12g}") for x in series.tolist()],
                                          indent=2)


DELETE = object()


@pytest.mark.parametrize("path, value, error", [
    (("extra",), 1, "extra: unknown field"),
    (("equation", "extra"), 1, "equation.extra: unknown field"),
    (("interval", "extra"), 1, "interval.extra: unknown field"),
    (("output", "extra"), 1, "output.extra: unknown field"),
    (("equation",), DELETE, "equation: required object is missing or not an object"),
    (("interval",), DELETE, "interval: required object is missing or not an object"),
    (("conditions",), DELETE, "conditions: required list is missing or not a list"),
    (("equation", "order"), 0, "equation.order: must be a positive integer, got 0"),
    (("equation", "order"), True, "equation.order: must be a positive integer, got True"),
    (("equation", "order"), "2", "equation.order: must be a positive integer, got '2'"),
    (("equation", "coeffs"), ["-3", 2], "equation.coeffs: must be a list of expression strings"),
    (("equation", "coeffs"), "-3", "equation.coeffs: must be a list of expression strings"),
    (("equation", "coeffs"), ["-3"], "equation.coeffs: expected 2 coefficients, got 1"),
    (("equation", "forcing"), 4, "equation.forcing: must be an expression string"),
    (("interval", "t0"), "0", "interval.t0: must be a number"),
    (("interval", "T"), 0, "interval: need T > t0, got [0.0, 0.0]"),
    (("interval", "T"), -1, "interval: need T > t0, got [0.0, -1.0]"),
    (("conditions", 0), 5, "conditions[0]: must be an object with fields t and value"),
    (("output",), [], "output: must be an object"),
    (("output", "points"), 1, "output.points: must be an integer >= 2, got 1"),
    (("output", "points"), 2.5, "output.points: must be an integer >= 2, got 2.5"),
    (("output", "alphas"), [0, 2], "output.alphas: must be a non-empty list of levels in [0, 1]"),
    (("output", "alphas"), [], "output.alphas: must be a non-empty list of levels in [0, 1]"),
    (("output", "alphas"), "0", "output.alphas: must be a non-empty list of levels in [0, 1]"),
    (("conditions",), [{"t": t, "value": {"type": "triangular", "l": 1, "m": 2, "r": 3}}
                       for t in (0, 0.5, 1)],
     "conditions: expected 2 conditions for order 2, got 3"),
    (("conditions", 1, "t"), 0, "conditions: condition times must be pairwise distinct, "
                                "got [0.0, 0.0]"),
    (("conditions", 1, "t"), 4, "conditions[1].t: must lie in [0.0, 1.0], got 4.0"),
    (("conditions", 0, "derivative"), 1,
     "conditions[0].derivative: unknown field (only point-value conditions are supported)"),
    (("conditions", 0, "t"), "0", "conditions[0].t: must be a number"),
    (("interval", "T"), "1", "interval.T: must be a number"),
    (("interval", "T"), float("inf"), "interval: length T - t0 must be finite, got [0.0, inf]"),
    (("equation", "coeffs", 1), "2 +",
     "equation.coeffs[1]: expected a value, found end of input (column 4)"),
    (("conditions", 0, "value"), {"type": "triangular", "l": 3, "m": 2, "r": 1},
     "conditions[0].value: triangular fuzzy number requires left <= peak <= right, "
     "got (3.0, 2.0, 1.0)"),
])
def test_validation_messages_name_the_json_path(path, value, error):
    doc = example_problem_document(1)
    *parents, key = path
    target = doc
    for part in parents:
        target = target[part]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ProblemFormatError) as info:
        problem_from_document(doc)
    assert error in info.value.errors


@pytest.mark.parametrize("doc", [[], "problem", 3, None])
def test_document_that_is_not_an_object(doc):
    with pytest.raises(ProblemFormatError) as info:
        problem_from_document(doc)
    assert info.value.errors == ["$: problem file must be a JSON object"]


def test_errors_in_three_sections_are_all_reported(tmp_path, capsys):
    doc = example_problem_document(1)
    doc["equation"]["forcing"] = "4*t -"
    doc["interval"]["t0"] = "zero"
    doc["output"]["alphas"] = [1.5]
    path = tmp_path / "three.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["solve", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "invalid problem file:",
        "  equation.forcing: expected a value, found end of input (column 6)",
        "  interval.t0: must be a number",
        "  output.alphas: must be a non-empty list of levels in [0, 1]",
    ]


def test_unknown_built_in_example():
    with pytest.raises(ValueError) as info:
        example_problem_document(3)
    assert str(info.value) == "no built-in example 3; choose 1 or 2"


@pytest.mark.parametrize("argv, message", [
    (["solve", "{path}", "--alphas", "0,2"],
     "argument --alphas: alpha levels must lie in [0, 1]: '0,2'"),
    (["verify", "{path}", "--tolerance", "abc"], "argument --tolerance: not a number: 'abc'"),
    (["verify", "{path}", "--mesh", "2"], "argument --mesh: need at least 3 interior points, got 2"),
    (["verify", "{short}", "--mesh", "100000"],
     "argument --mesh: 100002 points on [5.0, 5.00000000001]: half a step must exceed the "
     "float spacing 8.88e-16 at the ends"),
    (["verify", "{path}", "--samples", "1"], "argument --samples: must be an integer >= 2, got 1"),
    (["verify", "{path}", "--samples", "two"], "argument --samples: not an integer: 'two'"),
    (["verify", "{path}", "--alpha", "2"], "argument --alpha: alpha must lie in [0, 1]: '2'"),
    (["verify", "{path}", "--alpha", "nan"], "argument --alpha: alpha must lie in [0, 1]: 'nan'"),
    (["verify", "{path}", "--alpha", "-0.5"],
     "argument --alpha: alpha must lie in [0, 1]: '-0.5'"),
    (["verify", "{path}", "--alpha", "x"], "argument --alpha: not a number: 'x'"),
    (["verify", "{path}", "--mesh", "x"], "argument --mesh: not an integer: 'x'"),
    (["solve", "{path}", "--alphas", "0,0.3,0.30000000000000004"],
     "argument --alphas: alpha levels 0.3 and 0.30000000000000004 both print as 0.3"),
])
def test_flag_validation_messages(tmp_path, capsys, monkeypatch, argv, message):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the oracle ran despite a usage error")

    monkeypatch.setattr("fuzzybvp.cli.envelope", must_not_run)
    path = write_example(tmp_path, 1)
    short = tmp_path / "short.json"
    short.write_text(json.dumps(straight_line_document(2, 5.0, 1e-11)), encoding="utf-8")
    out = tmp_path / "out.txt"
    argv = [arg.format(path=path, short=short) for arg in argv] + ["--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n")
    assert not out.exists()


def test_digit_that_is_not_decimal_is_a_field_error(tmp_path, capsys):
    doc = example_problem_document(1)
    doc["equation"]["coeffs"][0] = "2²"
    doc["equation"]["forcing"] = "bad("
    path = tmp_path / "superscript.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert run_cli(["solve", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "invalid problem file:",
        "  equation.coeffs[0]: unexpected trailing input '²' (column 2)",
        "  equation.forcing: unknown identifier 'bad' (column 1)",
    ]


def straight_line_document(order, t0, length):
    """x^(n) = 0 with crisp values of the line 1 + (t - t0) / length at n
    equally spaced points."""
    points = [t0 + length * k / (order - 1) for k in range(order)]
    return {
        "equation": {"order": order, "coeffs": ["0"] * order, "forcing": "0"},
        "interval": {"t0": t0, "T": points[-1]},
        "conditions": [{"t": p, "value": {"type": "triangular", "l": v, "m": v, "r": v}}
                       for p, v in zip(points, (1 + k / (order - 1) for k in range(order)))],
        "output": {"points": 5, "alphas": [1]},
    }


class TestIntervalLength:
    @pytest.mark.parametrize("order, length", [(2, 1e-12), (2, 1e4), (4, 1e-4), (4, 1e3)])
    def test_straight_line_solves_on_any_length(self, tmp_path, capsys, order, length):
        path = tmp_path / "line.json"
        path.write_text(json.dumps(straight_line_document(order, 0.0, length)),
                        encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        values = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        np.testing.assert_allclose(values[:, 1], 1 + values[:, 0] / length, rtol=1e-11)
        np.testing.assert_array_equal(values[:, 1], values[:, 2])

    def test_grid_finer_than_float_resolution_exits_1(self, tmp_path, capsys):
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(straight_line_document(2, 5.0, 1e-12)), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "invalid problem file:" and len(err) == 2
        assert err[1].startswith("  interval: 1001 points on [5.0, 5.000000000001]: half a "
                                 "step must exceed the float spacing 8.88e-16")

    def test_short_interval_at_five_solves(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps(straight_line_document(2, 5.0, 1e-11)), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 0

    @pytest.mark.parametrize("file_points, argv, source", [
        (10001, [], "  output.points"), (5, ["--points", "10001"], "error: argument --points"),
    ], ids=["output.points", "--points"])
    def test_output_grid_finer_than_float_resolution_names_its_source(
            self, tmp_path, capsys, file_points, argv, source):
        # the solve grid (1001 points) is fine; 10001 output points are not
        doc = straight_line_document(2, 5.0, 1e-11)
        doc["output"]["points"] = file_points
        path = tmp_path / "fine_output.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path), *argv]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"{source}: 10001 points on [5.0, 5.00000000001]: half a step must exceed the "
            f"float spacing 8.88e-16 at the ends")

    def test_middle_of_a_short_interval_far_from_zero(self, tmp_path, capsys):
        # example 1's conditions on [5, T] with T - 5 an even number of float
        # spacings, so the middle output node is the exact midpoint and the
        # (nearly straight) band there is the mean of the boundary cuts
        doc = example_problem_document(1)
        t_end = float(5.0 + 11258 * np.spacing(5.0))
        doc["interval"] = {"t0": 5.0, "T": t_end}
        doc["conditions"][0]["t"], doc["conditions"][1]["t"] = 5.0, t_end
        path = tmp_path / "short_ex1.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path), "--points", "3", "--alphas", "0"]) == 0
        # twelve digits print the middle node as 5, like the first: t is
        # written with seventeen
        middle = "%.17g" % TimeGrid(5.0, t_end, 3).nodes()[1]
        assert capsys.readouterr().out.splitlines()[2] == f"{middle},1.75,3.5"


class TestTColumn:
    def test_nodes_that_twelve_digits_confuse_print_apart(self, tmp_path, capsys):
        # on [5, 5 + 1e-11] twelve digits print the last two of 3 nodes as
        # 5.00000000001; seventeen give each node back exactly
        path = tmp_path / "short.json"
        path.write_text(json.dumps(straight_line_document(2, 5.0, 1e-11)), encoding="utf-8")
        assert run_cli(["solve", str(path), "--points", "3"]) == 0
        text = capsys.readouterr().out
        t = [row.split(",", 1)[0] for row in text.splitlines()[1:]]
        nodes = TimeGrid(5.0, 5.0 + 1e-11, 3).nodes()
        assert len(set(f"{x:.12g}" for x in nodes)) == 2
        assert t == [f"{x:.17g}" for x in nodes]
        assert [float(x) for x in t] == list(nodes)
        band = solve_fuzzy_bvp(load(str(path))).band([1.0], grid=TimeGrid(5.0, 5.0 + 1e-11, 3))
        assert_same_text(text, reference.band_to_csv(band))

    def test_json_t_gives_back_nodes_that_twelve_digits_confuse(self, tmp_path, capsys):
        # the JSON t series is written unrounded where the CSV column takes
        # seventeen digits; every other value keeps its twelve
        path = tmp_path / "short.json"
        path.write_text(json.dumps(straight_line_document(2, 5.0, 1e-11)), encoding="utf-8")
        assert run_cli(["solve", str(path), "--points", "3", "--format", "json"]) == 0
        text = capsys.readouterr().out
        nodes = TimeGrid(5.0, 5.0 + 1e-11, 3).nodes()
        assert json.loads(text)["t"] == list(nodes)
        band = solve_fuzzy_bvp(load(str(path))).band([1.0], grid=TimeGrid(5.0, 5.0 + 1e-11, 3))
        assert_same_text(text, reference.band_to_json(band))

    @pytest.mark.parametrize("points", [101, 100001])
    @pytest.mark.parametrize("which", [1, 2])
    def test_examples_keep_twelve_digit_t(self, tmp_path, which, points):
        path = write_example(tmp_path, which)
        out = tmp_path / "band.csv"
        assert run_cli(["solve", path, "--points", str(points), "--out", str(out)]) == 0
        t = [row.split(",", 1)[0] for row in out.read_text(encoding="utf-8").splitlines()[1:]]
        t_end = float(EXAMPLE_PROBLEMS[which]["interval"]["T"])
        nodes = TimeGrid(0.0, t_end, points).nodes()
        assert t == [f"{x:.12g}" for x in nodes]
        assert run_cli(["solve", path, "--points", str(points), "--format", "json",
                        "--out", str(out)]) == 0
        t = json.loads(out.read_text(encoding="utf-8"))["t"]
        assert t == [float(f"{x:.12g}") for x in nodes]


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 745. GiB for an array with shape (100000000000,) and data type "
     "float64", "error: Unable to allocate 745. GiB for an array with shape (100000000000,) "
                "and data type float64\n"),
    ("", "error: out of memory\n"),
], ids=["numpy message", "no message"])
@pytest.mark.parametrize("command, target", [("solve", "solve_fuzzy_bvp"),
                                             ("verify", "envelope"), ("solve", "_t_format")],
                         ids=["solve", "verify", "solve t format"])
def test_size_too_large_for_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch,
                                                         command, target, message, line):
    # as `verify --samples 100000000`, or `solve --points 100000000000`,
    # whose 745 GiB of nodes _t_format would allocate: each fails before the
    # output opens
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"fuzzybvp.cli.{target}", refuse)
    out = tmp_path / "out"
    assert run_cli([command, write_example(tmp_path, 1), "--out", str(out)]) == 1
    assert capsys.readouterr().err == line
    assert not out.exists()


@pytest.mark.parametrize("value", [
    {"type": "parametric", "alphas": [0, 1], "lower": [1e308, 1.5e308],
     "upper": [1.7e308, 1.5e308]},
    {"type": "triangular", "l": 1e308, "m": 1.5e308, "r": 1.7e308},
])
def test_values_near_the_float_max_exit_1_with_one_line(tmp_path, capsys, value):
    doc = example_problem_document(1)
    doc["conditions"][0]["value"] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["solve", str(path)]) == 1
    assert capsys.readouterr().err == "error: trajectory contains non-finite entries\n"
