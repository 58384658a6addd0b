import json

import pytest

from fuzzybvp.cli import (
    EXAMPLE_PROBLEMS,
    ProblemFormatError,
    band_to_csv,
    example_problem_document,
    load_problem,
    main,
    problem_from_document,
)
from fuzzybvp.fuzzy import TriangularFuzzyNumber


def run_cli(argv):
    """Run the CLI, normalizing SystemExit (usage errors) to an exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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


STIFF_AWAY_FROM_T0 = {
    "equation": {"order": 2, "coeffs": ["0", "-324"], "forcing": "0"},
    "interval": {"t0": 0, "T": 1},
    "conditions": [
        {"t": 0.3, "value": {"type": "triangular", "l": 0.5, "m": 1, "r": 1.5}},
        {"t": 1, "value": {"type": "triangular", "l": 1.5, "m": 2, "r": 2.5}},
    ],
}


class TestLoadProblem:
    def test_example1_loads(self, tmp_path):
        problem = load_problem(write_example(tmp_path, 1))
        assert problem.ode.order == 2
        assert problem.grid.t0 == 0.0 and problem.grid.t_end == 1.0
        assert problem.conditions[0] == (0.0, TriangularFuzzyNumber(1.5, 2.0, 3.0))
        assert problem.conditions[1] == (1.0, TriangularFuzzyNumber(2.0, 3.0, 4.0))

    def test_example2_loads(self, tmp_path):
        problem = load_problem(write_example(tmp_path, 2))
        assert problem.grid.t_end == 2.0
        assert problem.conditions[1][1] == TriangularFuzzyNumber(0.5, 1.0, 1.5)

    def test_condition_count_mismatch(self, tmp_path):
        doc = example_problem_document(1)
        del doc["conditions"][1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ProblemFormatError, match=r"conditions: expected 2"):
            load_problem(str(path))

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
            load_problem(str(path))

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
            loaded = load_problem(str(path))
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

    def test_resonant_problem_exits_2(self, tmp_path, capsys):
        path = tmp_path / "resonant.json"
        path.write_text(json.dumps(RESONANT), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 2
        assert "no unique solution" in capsys.readouterr().err

    def test_unit_property_failure_exits_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(STIFF_AWAY_FROM_T0), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: weight functions miss the unit property")
        assert err.count("\n") == 1 and "Traceback" not in err

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


class TestCsvFormatting:
    def test_twelve_significant_digits(self, solution1):
        band = solution1.band([0.0])
        text = band_to_csv(band)
        cell = text.strip().split("\n")[1].split(",")[1]
        assert len(cell.replace("-", "").replace(".", "").lstrip("0")) <= 12

    def test_help_mentions_exit_codes(self, capsys):
        code = run_cli(["--help"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Exit codes" in out
        assert "UnitPropertyError" in out
