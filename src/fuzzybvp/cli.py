"""Command-line interface: problem files, band output, oracle verification.

Subcommands:

* ``solve``   -- compute an alpha-cut band and write it as CSV or JSON
* ``verify``  -- cross-check the band against the finite-difference oracle
* ``example`` -- print one of the two built-in problems as JSON

Every number is written as ``%.12g``. CSV is formatted with one ``%`` per
block of rows. The JSON of ``solve --format json`` and of the ``verify``
report comes from ``_to_json``: one ``%`` per series, the same bytes as
``json.dumps(..., indent=2)`` of the rounded values.

Exit codes: 0 success, 1 validation or usage error or a failed solve
(non-finite integration, weights missing the unit property), 2 crisp
problem not uniquely solvable, 3 verification failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from .expressions import ExpressionError, parse
from .fuzzy import _is_number, fuzzy_from_json
from .ode import (
    DEFAULT_STEPS,
    IntegrationError,
    LinearODE,
    NonUniqueCrispSolution,
    TimeGrid,
    UnitPropertyError,
)
from .oracle import FDMesh, SingularDiscretizationError, compare, envelope
from .solver import FuzzyBVP, SolutionBand, solve_fuzzy_bvp

DEFAULT_OUTPUT_POINTS = 101
DEFAULT_OUTPUT_ALPHAS = (0.0, 0.5, 1.0)
VERIFY_DEFAULT_MESH = 1999
VERIFY_DEFAULT_SAMPLES = 2
VERIFY_DEFAULT_TOLERANCE = 1e-4
# Rows per "%" call in band_to_csv: enough to amortize the call, few enough
# that the block's cell tuple stays small next to the output text.
CSV_BLOCK_ROWS = 4096

EXAMPLE_PROBLEMS = {
    1: {
        "equation": {"order": 2, "coeffs": ["-3", "2"], "forcing": "4*t - 6"},
        "interval": {"t0": 0, "T": 1},
        "conditions": [
            {"t": 0, "value": {"type": "triangular", "l": 1.5, "m": 2, "r": 3}},
            {"t": 1, "value": {"type": "triangular", "l": 2, "m": 3, "r": 4}},
        ],
        "output": {"points": 101, "alphas": [0, 0.5, 1]},
    },
    2: {
        "equation": {"order": 2, "coeffs": ["0", "16"], "forcing": "47 - 8*t^2"},
        "interval": {"t0": 0, "T": 2},
        "conditions": [
            {"t": 0, "value": {"type": "triangular", "l": 2, "m": 3, "r": 3.5}},
            {"t": 2, "value": {"type": "triangular", "l": 0.5, "m": 1, "r": 1.5}},
        ],
        "output": {"points": 101, "alphas": [0, 0.6, 1]},
    },
}


def example_problem_document(which: int) -> dict:
    if which not in EXAMPLE_PROBLEMS:
        raise ValueError(f"no built-in example {which}; choose 1 or 2")
    return copy.deepcopy(EXAMPLE_PROBLEMS[which])


class ProblemFormatError(ValueError):
    """Problem file failed validation; carries per-path messages."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid problem file:\n  " + "\n  ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class OutputOptions:
    points: int = DEFAULT_OUTPUT_POINTS
    alphas: tuple[float, ...] = DEFAULT_OUTPUT_ALPHAS


def problem_from_document(doc) -> tuple[FuzzyBVP, OutputOptions]:
    """Validate a problem document and build the FuzzyBVP it describes.

    All validation failures are collected and reported together with their
    JSON paths.
    """
    errors: list[str] = []

    def fail(path, message):
        errors.append(f"{path}: {message}")

    if not isinstance(doc, dict):
        raise ProblemFormatError(["$: problem file must be a JSON object"])
    known = {"equation", "interval", "conditions", "output"}
    for key in doc:
        if key not in known:
            fail(key, "unknown field")

    order = None
    coeff_exprs = []
    forcing_expr = None
    equation = doc.get("equation")
    if not isinstance(equation, dict):
        fail("equation", "required object is missing or not an object")
    else:
        for key in equation:
            if key not in {"order", "coeffs", "forcing"}:
                fail(f"equation.{key}", "unknown field")
        raw_order = equation.get("order")
        if not isinstance(raw_order, int) or isinstance(raw_order, bool) or raw_order < 1:
            fail("equation.order", f"must be a positive integer, got {raw_order!r}")
        else:
            order = raw_order
        coeffs = equation.get("coeffs")
        if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
            fail("equation.coeffs", "must be a list of expression strings")
        else:
            if order is not None and len(coeffs) != order:
                fail("equation.coeffs", f"expected {order} coefficients, got {len(coeffs)}")
            for i, text in enumerate(coeffs):
                try:
                    coeff_exprs.append(parse(text))
                except ExpressionError as exc:
                    fail(f"equation.coeffs[{i}]", str(exc))
        forcing = equation.get("forcing")
        if not isinstance(forcing, str):
            fail("equation.forcing", "must be an expression string")
        else:
            try:
                forcing_expr = parse(forcing)
            except ExpressionError as exc:
                fail("equation.forcing", str(exc))

    t0 = t_end = grid = None
    interval = doc.get("interval")
    if not isinstance(interval, dict):
        fail("interval", "required object is missing or not an object")
    else:
        for key in interval:
            if key not in {"t0", "T"}:
                fail(f"interval.{key}", "unknown field")
        if not _is_number(interval.get("t0")):
            fail("interval.t0", "must be a number")
        else:
            t0 = float(interval["t0"])
        if not _is_number(interval.get("T")):
            fail("interval.T", "must be a number")
        else:
            t_end = float(interval["T"])
        if t0 is not None and t_end is not None:
            try:
                grid = TimeGrid(t0, t_end, DEFAULT_STEPS + 1)
            except ValueError as exc:  # the file calls t_end T
                fail("interval", str(exc).replace("t_end", "T"))

    parsed_conditions = []
    conditions = doc.get("conditions")
    if not isinstance(conditions, list):
        fail("conditions", "required list is missing or not a list")
    else:
        if order is not None and len(conditions) != order:
            fail("conditions", f"expected {order} conditions for order {order}, "
                               f"got {len(conditions)}")
        for i, cond in enumerate(conditions):
            path = f"conditions[{i}]"
            if not isinstance(cond, dict):
                fail(path, "must be an object with fields t and value")
                continue
            for key in cond:
                if key not in {"t", "value"}:
                    fail(f"{path}.{key}", "unknown field (only point-value conditions "
                                          "are supported)")
            if not _is_number(cond.get("t")):
                fail(f"{path}.t", "must be a number")
                continue
            point = float(cond["t"])
            if t0 is not None and t_end is not None and not t0 <= point <= t_end:
                fail(f"{path}.t", f"must lie in [{t0}, {t_end}], got {point}")
            try:
                value = fuzzy_from_json(cond.get("value"))
            except ValueError as exc:
                fail(f"{path}.value", str(exc))
                continue
            parsed_conditions.append((point, value))
        times = [p for p, _ in parsed_conditions]
        if len(set(times)) != len(times):
            fail("conditions", f"condition times must be pairwise distinct, got {times}")

    output = doc.get("output")
    points = DEFAULT_OUTPUT_POINTS
    alphas = DEFAULT_OUTPUT_ALPHAS
    if output is not None:
        if not isinstance(output, dict):
            fail("output", "must be an object")
        else:
            for key in output:
                if key not in {"points", "alphas"}:
                    fail(f"output.{key}", "unknown field")
            if "points" in output:
                raw = output["points"]
                if not isinstance(raw, int) or isinstance(raw, bool) or raw < 2:
                    fail("output.points", f"must be an integer >= 2, got {raw!r}")
                else:
                    points = raw
            if "alphas" in output:
                raw = output["alphas"]
                if (not isinstance(raw, list) or not raw
                        or not all(_is_number(a) for a in raw)
                        or not all(0.0 <= float(a) <= 1.0 for a in raw)):
                    fail("output.alphas", "must be a non-empty list of levels in [0, 1]")
                else:
                    alphas = tuple(float(a) for a in raw)

    if errors:
        raise ProblemFormatError(errors)

    ode = LinearODE(order, tuple(coeff_exprs), forcing_expr)
    try:
        problem = FuzzyBVP(ode, tuple(parsed_conditions), grid)
    except ValueError as exc:
        raise ProblemFormatError([f"conditions: {exc}"]) from None
    return problem, OutputOptions(points, alphas)


def _read_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError([f"$: not valid JSON ({exc})"]) from None


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# The "%.12g" tokens whose text is not repr(float(token)): no "." (integers,
# "-0", "nan", "inf", "1e-05"), exponents 12-15 (repr writes those out in full)
# and e-3dd (subnormals keep fewer digits). Every other token has at most 12
# significant digits in the normal range, below DBL_DIG = 15, so repr of its
# float has the same digits in the same notation.
_REPR_DIFFERS = re.compile(r"^(?:[^.\n]+|.*e(?:\+1[2-5]|-3\d\d))$", re.M)


def _repr_token(match) -> str:
    return json.dumps(float(match.group()))


def _to_json(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)`` with every float rounded through ``%.12g``.

    Floats and the cells of 1-D numpy arrays are rounded; arrays are written
    as lists. Dict keys must be strings. ``indent`` is the indentation of the
    line ``obj`` starts on.
    """
    inner = indent + "  "
    if isinstance(obj, np.ndarray):
        if not obj.size:
            return "[]"
        text = _REPR_DIFFERS.sub(_repr_token, ("%.12g\n" * obj.size) % tuple(obj.tolist()))
        return f"[\n{inner}" + text[:-1].replace("\n", ",\n" + inner) + f"\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(k)}: {_to_json(v, inner)}"
                           for k, v in obj.items())
        return f"{{\n{items}\n{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _to_json(v, inner) for v in obj)
        return f"[\n{items}\n{indent}]"
    if isinstance(obj, float):
        return json.dumps(float(_fmt(obj)))
    return json.dumps(obj)


def band_to_csv(band: SolutionBand) -> str:
    header = "t"
    for alpha in band.alphas:
        header += f",lower_{_fmt(alpha)},upper_{_fmt(alpha)}"
    nodes = band.grid.nodes()
    width = 1 + 2 * len(band.alphas)
    row_fmt = ",".join(["%.12g"] * width) + "\n"
    block = np.empty((min(CSV_BLOCK_ROWS, band.grid.num_points), width))
    parts = [header + "\n"]
    for start in range(0, band.grid.num_points, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, band.grid.num_points)
        rows = block[:stop - start]
        rows[:, 0] = nodes[start:stop]
        rows[:, 1::2] = band.lower[:, start:stop].T
        rows[:, 2::2] = band.upper[:, start:stop].T
        parts.append((row_fmt * len(rows)) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def band_to_json(band: SolutionBand) -> str:
    doc = {
        "grid": {"t0": band.grid.t0, "t_end": band.grid.t_end,
                 "num_points": band.grid.num_points},
        "alphas": list(band.alphas),
        "t": band.grid.nodes(),
        "levels": [
            {"alpha": alpha, "lower": band.lower[k], "upper": band.upper[k]}
            for k, alpha in enumerate(band.alphas)
        ],
    }
    return _to_json(doc) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _parse_alpha_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    if not values or not all(0.0 <= a <= 1.0 for a in values):
        raise argparse.ArgumentTypeError(f"alpha levels must lie in [0, 1]: {text!r}")
    return values


def _parse_tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value < float("inf"):  # also rejects nan
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0: {text!r}")
    return value


def _parse_points(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {value}")
    return value


def cmd_solve(args) -> int:
    problem, output = problem_from_document(_read_document(args.problem))
    alphas = args.alphas if args.alphas is not None else output.alphas
    points = args.points if args.points is not None else output.points
    try:
        out_grid = TimeGrid(problem.grid.t0, problem.grid.t_end, points)
    except ValueError as exc:  # too fine for float resolution on this interval
        if args.points is not None:
            raise ValueError(f"argument --points: {exc}") from None
        raise ProblemFormatError([f"output.points: {exc}"]) from None
    solution = solve_fuzzy_bvp(problem)
    band = solution.band(alphas, grid=out_grid)
    text = band_to_csv(band) if args.format == "csv" else band_to_json(band)
    _write_output(text, args.out)
    return 0


def cmd_verify(args) -> int:
    problem, _ = problem_from_document(_read_document(args.problem))
    if problem.ode.order != 2:
        raise ProblemFormatError(
            [f"equation.order: verify supports order-2 two-point problems only, "
             f"got order {problem.ode.order}"])
    mesh = FDMesh(problem.grid.t0, problem.grid.t_end, args.mesh)
    oracle_band = envelope(problem, args.alpha, args.samples, mesh)
    solution = solve_fuzzy_bvp(problem)
    band_grid = TimeGrid(problem.grid.t0, problem.grid.t_end, mesh.interior_points + 2)
    band = solution.band([args.alpha], grid=band_grid)
    report = compare(band, oracle_band)
    passed = report.max_deviation <= args.tolerance
    doc = {
        "problem": args.problem,
        "mesh_interior_points": mesh.interior_points,
        "samples_per_axis": args.samples,
        "tolerance": args.tolerance,
        "passed": passed,
        **report.to_dict(),
    }
    _write_output(_to_json(doc) + "\n", args.out)
    if not passed:
        sys.stderr.write(
            f"verification failed: max deviation {report.max_deviation:.3e} "
            f"exceeds tolerance {args.tolerance:.3e}\n")
        return 3
    return 0


def cmd_example(args) -> int:
    doc = example_problem_document(args.which)
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    # Exit code 1 on usage errors; 2 is reserved for NonUniqueCrispSolution.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built on first use, then shared: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fuzzybvp",
        description="Solve linear ODE boundary value problems with fuzzy boundary values.",
        epilog="Exit codes: 0 success; 1 validation or usage error, integration "
               "blow-up, or weights missing the unit property (UnitPropertyError); "
               "2 crisp problem has no unique solution; 3 verification failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="compute an alpha-cut band for a problem file",
        description="Solve the fuzzy problem and write the alpha-cut band.")
    solve.add_argument("problem", help="path to the problem JSON file")
    solve.add_argument("--alphas", type=_parse_alpha_list, default=None,
                       help="comma-separated levels, e.g. 0,0.5,1 "
                            "(default: the problem file's output.alphas)")
    solve.add_argument("--points", type=_parse_points, default=None,
                       help="number of output rows (default: output.points)")
    solve.add_argument("--out", default=None, help="output path (default: stdout)")
    solve.add_argument("--format", choices=("csv", "json"), default="csv")
    solve.set_defaults(handler=cmd_solve)

    verify = sub.add_parser(
        "verify", help="compare the band against the finite-difference oracle",
        description="Build a brute-force finite-difference envelope over the "
                    "boundary alpha-cut rectangle and report deviations from "
                    "the solver band.")
    verify.add_argument("problem", help="path to the problem JSON file")
    verify.add_argument("--alpha", type=float, default=0.0,
                        help="alpha level to verify (default: 0)")
    verify.add_argument("--samples", type=int, default=VERIFY_DEFAULT_SAMPLES,
                        help="samples per rectangle axis (default: 2, the corners)")
    verify.add_argument("--mesh", type=int, default=VERIFY_DEFAULT_MESH,
                        help="interior mesh points for the oracle (default: 1999)")
    verify.add_argument("--tolerance", type=_parse_tolerance,
                        default=VERIFY_DEFAULT_TOLERANCE,
                        help="maximum allowed deviation (default: 1e-4)")
    verify.add_argument("--out", default=None, help="report path (default: stdout)")
    verify.set_defaults(handler=cmd_verify)

    example = sub.add_parser(
        "example", help="print a built-in example problem as JSON",
        description="Write one of the two built-in problems to standard output.")
    example.add_argument("which", type=int, choices=(1, 2))
    example.set_defaults(handler=cmd_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ProblemFormatError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except NonUniqueCrispSolution as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (ValueError, IntegrationError, UnitPropertyError, SingularDiscretizationError,
            OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
