"""Command-line interface: problem files, band output, oracle verification.

Subcommands:

* ``solve``   -- compute an alpha-cut band and write it as CSV or JSON
* ``verify``  -- cross-check the band against the finite-difference oracle
* ``example`` -- print one of the two built-in problems as JSON

Every number is written as ``%.12g``, except a t column whose nodes twelve
digits would not tell apart: CSV writes it as ``%.17g`` and JSON unrounded.
``_format_bytes`` is the one writer of ``%.12g`` arrays. It builds the digits
of every cell with a decimal exponent in [-11, 11] by integer arithmetic on
the scaled value, or from the cell's own ``%.11e`` where that arithmetic
cannot decide, and leaves only 0, -0, nan, inf, other exponents and a
``%.17g`` t column to ``%``; the bytes are those of ``%`` on every cell.
``solve`` computes and writes the CSV a block of rows at a time, as bytes
from the writer to the file or ``sys.stdout.buffer``, so its memory does not
grow with the rows unless ``_t_format`` must compare the texts of all nodes
(a step near the 12th digit of |t|); JSON holds the whole band. The JSON of
``solve`` and ``verify`` is ``_to_json``'s: the bytes of ``json.dumps(...,
indent=2)`` of the rounded values. A reader that closes stdout early
(``fuzzybvp solve ... | head``) ends the output quietly.

Exit codes: 0 success, 1 validation or usage error, a failed solve
(non-finite integration, weights missing the unit property) or a size too
large for memory, 2 crisp problem not uniquely solvable, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import BinaryIO

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
from .oracle import SingularDiscretizationError, compare, envelope
from .solver import BLOCK_ROWS, FuzzyBVP, SolutionBand, alpha_levels, solve_fuzzy_bvp

DEFAULT_OUTPUT_POINTS = 101
DEFAULT_OUTPUT_ALPHAS = (0.0, 0.5, 1.0)
VERIFY_DEFAULT_MESH = 1999
VERIFY_DEFAULT_SAMPLES = 2
VERIFY_DEFAULT_TOLERANCE = 1e-4

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

    def section(value, path, keys, what="required object is missing or not an object",
                note=""):
        """``value`` if it is an object, after failing each key not in ``keys``;
        else None, after failing ``path`` with ``what``."""
        if not isinstance(value, dict):
            fail(path, what)
            return None
        for key in value:
            if key not in keys:
                fail(f"{path}.{key}", "unknown field" + note)
        return value

    def number(value, path):
        if not _is_number(value):
            fail(path, "must be a number")
            return None
        return float(value)

    def integer(value, path, least, what):
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            fail(path, f"{what}, got {value!r}")
            return None
        return value

    if not isinstance(doc, dict):
        raise ProblemFormatError(["$: problem file must be a JSON object"])
    known = {"equation", "interval", "conditions", "output"}
    for key in doc:
        if key not in known:
            fail(key, "unknown field")

    order = None
    coeff_exprs = []
    forcing_expr = None
    equation = section(doc.get("equation"), "equation", {"order", "coeffs", "forcing"})
    if equation is not None:
        order = integer(equation.get("order"), "equation.order", 1,
                        "must be a positive integer")
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
    interval = section(doc.get("interval"), "interval", {"t0", "T"})
    if interval is not None:
        t0 = number(interval.get("t0"), "interval.t0")
        t_end = number(interval.get("T"), "interval.T")
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
            cond = section(cond, path, {"t", "value"}, "must be an object with fields t and value",
                           " (only point-value conditions are supported)")
            if cond is None or (point := number(cond.get("t"), f"{path}.t")) is None:
                continue
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
    if output is not None and section(output, "output", {"points", "alphas"},
                                      "must be an object") is not None:
        points = integer(output.get("points", points), "output.points", 2,
                         "must be an integer >= 2")
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
    return FuzzyBVP(ode, tuple(parsed_conditions), grid), OutputOptions(points, alphas)


def _read_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError([f"$: not valid JSON ({exc})"]) from None


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# %.12g by digit arithmetic. A finite x != 0 whose decimal exponent E lies in
# [-11, 11] has 12 digits m = round(|x| * 10**(11 - E)) in [1e11, 1e12). For
# E >= -4 they are written without an exponent: the point after digit E + 1
# and the trailing zeros of the fraction dropped; for E < -4 as d1.d2...e-XX,
# trailing zeros and a lone "." dropped. The product rounds once (10**k is
# exact up to 10**22) and is below 2**40, so it is within 2**-14 of the
# exact one; where it lies more than 2**-11 from a half, rint gives the
# correctly rounded m. A product near a half, one rounding up to 1e12, or
# one off by a power of ten from the rounding of log10 (about 1 cell in 1 000)
# takes its m and E from "%.11e", which rounds correctly. Only 0, -0, nan,
# inf, E > 11 or E < -11, and a first column in another format are left to
# "%", over the pass's text as bytes.

# floor(log10|x|) + _BIAS is positive for every finite float, so a cast floors it
_BIAS = 400
# 10**(11 - E) at E + _BIAS for E in [-11, 11], and nan elsewhere, so that a
# cell of any other exponent, or 0, inf or nan, fails the checks on its product
_SCALE = np.array([np.nan] * (_BIAS - 11) + [float(10 ** k) for k in range(22, -1, -1)]
                  + [np.nan] * (_BIAS - 12))
# "e-XX" for E = -11 .. -5 as little-endian 32-bit words
_EXPONENTS = np.frombuffer(b"".join(b"e-%02d" % -e for e in range(-11, -4)), "<u4")
# the text of 0..9999 as four digits in a little-endian 32-bit word, then the
# same words with the first digit replaced by "."
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"), "<u2")
_QUADS = np.empty((2, 100, 100, 2), "<u2")
_QUADS[..., 0] = _PAIRS[:, None]
_QUADS[..., 1] = _PAIRS
_QUADS.view(np.uint8)[1, ..., 0] = ord(".")
_QUADS = _QUADS.view("<u4").ravel()
# trailing zeros of 0..9999 written as four digits: those of the last two
# digits, or two more than those of the first two where the last are "00"
_PAIR_ZEROS = [2] + [int(i % 10 == 0) for i in range(1, 100)]
_TRAILING_ZEROS = np.array([_PAIR_ZEROS] * 100, np.int8)
_TRAILING_ZEROS[:, 0] = [2 + zeros for zeros in _PAIR_ZEROS]
_TRAILING_ZEROS = _TRAILING_ZEROS.ravel()
# A cell takes 32 bytes: the separator before it, "-", the first digit again
# (kept only in exponent notation, so a stale one from an earlier pass is
# never seen), "0.", "000", its 12 digits, then "." and digits 2 to 12 again,
# whose first word an exponent cell overwrites with "e-XX".
# _KEEP[276 * negative + 12 * (E + 11) + trailing zeros of m] marks the bytes
# of its text. A cell left to "%" gets its format in place of its first
# digits, and the last row keeps the separator and that format: the text of
# a block is then a format string for its "%" cells. _JSON_KEEP differs in
# two ways: an integer below 1e11 keeps "." and a "0" after it, and a cell
# left to "%" has the format "%s".
_CELL = np.frombuffer(b",-\x000.000" + b"0" * 24, np.uint8)
_BY_PERCENT = 552
# cells per pass: enough to spread the numpy calls, few enough to keep its arrays small
_FORMAT_CELLS = 4096


def _keep_table(as_json: bool) -> np.ndarray:
    keep = np.zeros((_BY_PERCENT + 1, 32), bool)
    keep[:, 0] = keep[_BY_PERCENT, 8:10 if as_json else 13] = True
    for negative in (0, 1):
        for exp in range(-11, 12):
            for zeros in range(12):
                row = keep[276 * negative + 12 * (exp + 11) + zeros]
                row[1] = negative
                if exp < -4:  # the first digit, "." if more follow, the others, "e-XX"
                    row[2] = row[9:20 - zeros] = row[20:24] = True
                    row[4] = zeros < 11
                elif exp < 0:  # "0.", -exp - 1 zeros, the digits
                    row[3:5] = row[5:4 - exp] = row[8:20 - zeros] = True
                else:  # the integer digits, then "." and the fraction if any is left
                    fraction = max(0, 11 - exp - zeros, as_json and exp < 11)
                    row[8:9 + exp] = True
                    row[20] = fraction > 0
                    row[21 + exp:21 + exp + fraction] = True
    return keep


_KEEP = _keep_table(False)
_JSON_KEEP = _keep_table(True)


def _format_bytes(cells: np.ndarray, first: str = "%.12g", as_json: bool = False) -> bytes:
    """A 2-D float block as ASCII bytes: cells joined by "," and every row
    ended by a newline. The first column is written with ``first`` ("%.12g"
    or "%.17g"), the others with "%.12g": the same bytes as one ``%`` of the
    row format over the cells. With ``as_json`` every cell is the JSON token
    ``json.dumps(float("%.12g" % x))`` instead: "3.0", "-0.0", "NaN", and
    the digits in full for exponents 12 to 15.
    """
    rows, cols = cells.shape
    step = max(1, _FORMAT_CELLS // cols)
    buf = np.empty((min(step, rows), cols, 32), np.uint8)
    buf[:] = _CELL
    buf[:, 0, 0] = ord("\n")  # a row's first cell follows the end of the row before
    return b"".join(_format_pass(cells[start:start + step], first, as_json, buf)
                    for start in range(0, rows, step))


def _format_pass(cells: np.ndarray, first: str, as_json: bool, buf: np.ndarray) -> bytes:
    rows, cols = cells.shape
    x = cells.ravel()
    cell = buf[:rows].reshape(x.size, 32)
    a = np.abs(x)
    with np.errstate(all="ignore"):  # log10(0), and casts of inf and nan
        exp = (np.log10(a) + _BIAS).astype(np.intp)
        p = a * _SCALE.take(exp, mode="clip")
        m = np.rint(p)
        fast = (p >= 1e11) & (m < 1e12) & (np.abs(p - m) < 0.5 - 2.0 ** -11)
    undecided = np.flatnonzero(~fast)
    for i, v in zip(undecided.tolist(), a[undecided].tolist()):
        if 1e-12 < v < 1e12:  # its own correctly rounded digits
            digits = "%.11e" % v
            if -11 <= (e := int(digits[14:])) <= 11:
                m[i], exp[i], fast[i] = int(digits[0] + digits[2:13]), e + _BIAS, True
    if first != "%.12g":
        fast.reshape(rows, cols)[:, 0] = False
    if as_json:  # a 12-digit integer has no room for its ".0"
        fast &= exp != _BIAS + 11
    slow = ~fast
    np.copyto(m, 1e11, where=slow)
    m = m.astype(np.intp)
    high = m // 10 ** 8
    low = m - high * 10 ** 8
    mid = low // 10 ** 4
    low -= mid * 10 ** 4
    words = cell.view("<u4")
    words[:, 2] = _QUADS.take(high)
    words[:, 3] = words[:, 6] = _QUADS.take(mid)
    words[:, 4] = words[:, 7] = _QUADS.take(low)
    words[:, 5] = _QUADS.take(high + 10000)
    if exp.min() < _BIAS - 4:  # exponent cells, or 0 or nan, which are left to "%"
        cell[:, 2] = cell[:, 8]
        np.copyto(words[:, 5], _EXPONENTS.take(exp - (_BIAS - 11), mode="clip"),
                  where=exp < _BIAS - 4)
    zeros = _TRAILING_ZEROS.take(low) + (low == 0) * (
        _TRAILING_ZEROS.take(mid) + (mid == 0) * _TRAILING_ZEROS.take(high))
    code = 12 * (exp - (_BIAS - 11)) + zeros + 276 * (x < 0)
    np.copyto(code, _BY_PERCENT, where=slow)
    keep = (_JSON_KEEP if as_json else _KEEP).take(code, axis=0)
    keep[0, 0] = False
    by_percent = np.flatnonzero(slow)
    if by_percent.size:
        fill = b"%s" if as_json else b"%.12g"
        cell[by_percent, 8:8 + len(fill)] = np.frombuffer(fill, np.uint8)
        if first != "%.12g":
            cell[::cols, 8:13] = np.frombuffer(first.encode("ascii"), np.uint8)
    text = np.compress(keep.ravel(), cell.ravel()).tobytes()
    if by_percent.size:
        slow_cells = x[by_percent].tolist()
        text %= tuple([json.dumps(float(_fmt(v))).encode("ascii") for v in slow_cells]
                      if as_json else slow_cells)
    return text + b"\n"


class _Unrounded(list):
    """Floats that ``_to_json`` writes unrounded, as ``json.dumps`` does."""


def _to_json(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)`` with every float rounded through ``%.12g``.

    Floats and the cells of 1-D numpy arrays are rounded, except in an
    ``_Unrounded`` list; arrays are written as lists. Dict keys must be
    strings. ``indent`` is the indentation of the line ``obj`` starts on.
    """
    if isinstance(obj, _Unrounded):
        return json.dumps(obj, indent=2).replace("\n", "\n" + indent)
    inner = indent + "  "
    if isinstance(obj, np.ndarray):
        if not obj.size:
            return "[]"
        text = _format_bytes(obj.reshape(-1, 1), as_json=True).decode("ascii")
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


def _t_format(grid: TimeGrid) -> str:
    """``%.12g``, or ``%.17g`` when twelve digits would print two nodes alike.

    Adjacent nodes a step h apart round to different 12-digit texts when h
    exceeds a unit in the 12th digit at the largest |t|; a unit a hundred
    times larger leaves room for the rounding of log10 and of the nodes.
    Only finer grids format the column to compare its texts.
    """
    widest = max(abs(grid.t0), abs(grid.t_end))
    if grid.step > 10.0 ** (math.floor(math.log10(widest)) - 9):
        return "%.12g"
    texts = _format_bytes(grid.nodes()[:, None]).split()
    return "%.12g" if all(a != b for a, b in zip(texts, texts[1:])) else "%.17g"


def band_to_csv(alphas, blocks, t_format: str, handle: BinaryIO | None = None) -> str | None:
    """The band as CSV: one t column and a lower and an upper column per level.

    ``blocks`` yields ``(t, lower, upper)`` as ``band_blocks(alphas, grid)``
    does; ``t_format`` is ``_t_format`` of the grid. The text is returned, or
    written to the binary ``handle`` block by block as it is formatted.
    """
    alphas = alpha_levels(alphas)
    parts = []
    write = parts.append if handle is None else handle.write
    write(("t" + "".join(f",lower_{_fmt(a)},upper_{_fmt(a)}" for a in alphas)
           + "\n").encode("ascii"))
    block = np.empty((BLOCK_ROWS, 1 + 2 * len(alphas)))
    for t, lower, upper in blocks:
        rows = block[:t.size]
        rows[:, 0], rows[:, 1::2], rows[:, 2::2] = t, lower.T, upper.T
        write(_format_bytes(rows, t_format))
    return b"".join(parts).decode("ascii") if handle is None else None


def band_to_json(band: SolutionBand) -> str:
    t = band.grid.nodes()
    if _t_format(band.grid) != "%.12g":  # twelve digits would print two nodes alike
        t = _Unrounded(t.tolist())
    doc = {
        "grid": {"t0": band.grid.t0, "t_end": band.grid.t_end,
                 "num_points": band.grid.num_points},
        "alphas": list(band.alphas),
        "t": t,
        "levels": [
            {"alpha": alpha, "lower": band.lower[k], "upper": band.upper[k]}
            for k, alpha in enumerate(band.alphas)
        ],
    }
    return _to_json(doc) + "\n"


@contextlib.contextmanager
def _output(out: str | None):
    """The binary handle that the result goes to: the file ``out``, or stdout.

    When the reader of stdout has gone (``| head``), the rest of the output,
    the flush at exit included, goes to devnull, as the "Note on SIGPIPE" in
    the Python documentation of ``signal`` does, and the command keeps its
    exit code.
    """
    if out is not None:
        with open(out, "wb") as handle:
            yield handle
        return
    sys.stdout.flush()  # the text layer's bytes before the buffer's
    try:
        yield sys.stdout.buffer
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _checked(convert, what: str, test, message: str):
    """An argparse type: ``convert`` the text, or fail with "not <what>", then
    fail with ``message``, formatted with the text and the value, unless
    ``test`` holds of the value."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(message.format(text=text, value=value))
        return value

    return check


# each range test is false for nan
_parse_alpha = _checked(float, "a number", lambda alpha: 0.0 <= alpha <= 1.0,
                        "alpha must lie in [0, 1]: {text!r}")
_parse_alpha_list = _checked(lambda text: tuple(float(part) for part in text.split(",")),
                             "a comma-separated list of numbers",
                             lambda values: all(0.0 <= a <= 1.0 for a in values),
                             "alpha levels must lie in [0, 1]: {text!r}")
_parse_tolerance = _checked(float, "a number", lambda value: 0.0 <= value < float("inf"),
                            "tolerance must be finite and >= 0: {text!r}")
_parse_count = _checked(int, "an integer", lambda value: value >= 2,
                        "must be an integer >= 2, got {value}")
_parse_mesh = _checked(int, "an integer", lambda value: value >= 3,
                       "need at least 3 interior points, got {value}")


def cmd_solve(args) -> int:
    problem, output = problem_from_document(_read_document(args.problem))
    alphas = args.alphas if args.alphas is not None else output.alphas
    levels = alpha_levels(alphas)
    for low, high in zip(levels, levels[1:]):  # rounding keeps the order: alike texts are adjacent
        if _fmt(low) == _fmt(high):  # two levels the output could not tell apart
            message = f"alpha levels {low!r} and {high!r} both print as {_fmt(low)}"
            if args.alphas is None:
                raise ProblemFormatError([f"output.alphas: {message}"])
            raise ValueError(f"argument --alphas: {message}")
    points = args.points if args.points is not None else output.points
    try:
        out_grid = TimeGrid(problem.grid.t0, problem.grid.t_end, points)
    except ValueError as exc:  # too fine for float resolution on this interval
        if args.points is not None:
            raise ValueError(f"argument --points: {exc}") from None
        raise ProblemFormatError([f"output.points: {exc}"]) from None
    solution = solve_fuzzy_bvp(problem)
    # the JSON text and the t format before the output opens: a size error leaves no file
    if args.format == "json":
        text = band_to_json(solution.band(alphas, grid=out_grid))
    else:
        t_format = _t_format(out_grid)
    with _output(args.out) as handle:
        if args.format == "json":
            handle.write(text.encode("utf-8"))
        else:
            band_to_csv(alphas, solution.band_blocks(alphas, out_grid), t_format, handle)
    return 0


def cmd_verify(args) -> int:
    problem, _ = problem_from_document(_read_document(args.problem))
    if problem.ode.order != 2:
        raise ProblemFormatError(
            [f"equation.order: verify supports order-2 two-point problems only, "
             f"got order {problem.ode.order}"])
    try:  # the grid before any solve, so that a bad --mesh fails at once
        grid = TimeGrid(problem.grid.t0, problem.grid.t_end, args.mesh + 2)
    except ValueError as exc:
        raise ValueError(f"argument --mesh: {exc}") from None
    # positional: the benchmark tracer's counter takes envelope's own arguments
    oracle_band = envelope(problem, args.alpha, args.samples, grid)
    report = compare(solve_fuzzy_bvp(problem).band([args.alpha], grid=grid), oracle_band)
    passed = report.max_deviation <= args.tolerance
    doc = {
        "problem": args.problem,
        "mesh_interior_points": args.mesh,
        "samples_per_axis": args.samples,
        "tolerance": args.tolerance,
        "passed": passed,
        **report.to_dict(),
    }
    if _t_format(grid) != "%.12g":  # twelve digits would print two nodes alike
        doc["t"] = _Unrounded(doc["t"].tolist())
    with _output(args.out) as handle:
        handle.write((_to_json(doc) + "\n").encode("utf-8"))
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
               "blow-up, weights missing the unit property (UnitPropertyError), or "
               "a size too large for memory; 2 crisp problem has no unique solution; "
               "3 verification failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="compute an alpha-cut band for a problem file",
        description="Solve the fuzzy problem and write the alpha-cut band.")
    solve.add_argument("problem", help="path to the problem JSON file")
    solve.add_argument("--alphas", type=_parse_alpha_list, default=None,
                       help="comma-separated levels, e.g. 0,0.5,1 "
                            "(default: the problem file's output.alphas)")
    solve.add_argument("--points", type=_parse_count, default=None,
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
    verify.add_argument("--alpha", type=_parse_alpha, default=0.0,
                        help="alpha level to verify (default: 0)")
    verify.add_argument("--samples", type=_parse_count, default=VERIFY_DEFAULT_SAMPLES,
                        help="samples per rectangle axis (default: 2, the corners)")
    verify.add_argument("--mesh", type=_parse_mesh, default=VERIFY_DEFAULT_MESH,
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
    except MemoryError as exc:  # a size too large to allocate, as --points 10**11
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
