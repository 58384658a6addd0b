"""Problem-file fuzzer: every document that ``fuzzybvp solve`` is given either
solves into a well-formed band (exit 0) or fails with a documented exit code
(1 or 2) and a one-line message, or a validation report of one line per field,
and never raises or warns (the suite turns warnings into errors).  The same
holds of ``fuzzybvp verify`` on order-2 documents with a condition at each
end, whose report (exit 0 or 3) is read back.

The documents are drawn mostly valid, so that most of them reach the solver:
orders 1-4, expressions from the grammar with literals such as 1e300 and
-1600, intervals from 1e-6 to 100 long at t0 far from 0 or not, boundary
points at the ends, at 0.5, 0.7 and 0.7003 of the length and at random,
triangular and parametric values, output levels on and off the parametric
knots, and CSV or JSON output.  A few are broken on purpose, so that
validation errors go through the same checks.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fuzzybvp import cli

LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)  # the knots of the parametric values
OFF_KNOTS = (0.1, 0.6, 0.9)  # output levels that cut a parametric value between knots

literals = st.sampled_from(["0", "1", "2", "-3", "16", "0.5", "-1600", "400", "1e300", "1e-8"])
leaves = st.one_of(literals, literals, st.just("t"), st.just("pi"), st.just("e"))


def _combine(children):
    unary = st.builds(lambda f, a: f"{f}({a})",
                      st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "-"]), children)
    binary = st.builds(lambda a, op, b: f"({a}{op}{b})", children,
                       st.sampled_from(["+", "-", "*", "/", "^"]), children)
    return st.one_of(unary, binary)


expressions = st.recursive(leaves, _combine, max_leaves=4)


@st.composite
def fuzzy_values(draw):
    m = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0, 1e6]))
    left = draw(st.sampled_from([0.0, 0.1, 0.5, 2.0]))
    right = draw(st.sampled_from([0.0, 0.3, 1.0]))
    if draw(st.booleans()):
        return {"type": "triangular", "l": m - left, "m": m, "r": m + right}
    return {"type": "parametric", "alphas": list(LEVELS),
            "lower": [m - left * (1.0 - a) ** 2 for a in LEVELS],
            "upper": [m + right * (1.0 - a * a) for a in LEVELS]}


@st.composite
def documents(draw, orders=st.integers(1, 4), at_ends=False):
    order = draw(orders)
    t0 = draw(st.sampled_from([0.0, -1.0, 5.0, 1e6]))
    length = draw(st.sampled_from([1e-6, 1e-3, 0.5, 1.0, 2.0, 10.0, 100.0])
                  | st.floats(1e-6, 100.0))
    pool = [0.0, 1.0, 0.5, 0.7, 0.7003, draw(st.floats(0.0, 1.0))]
    fractions = draw(st.permutations(pool))[:order]
    if at_ends:  # the oracle of verify needs a condition at each end
        fractions = [0.0, 1.0]
    doc = {"equation": {"order": order,
                        "coeffs": [draw(expressions) for _ in range(order)],
                        "forcing": draw(expressions)},
           "interval": {"t0": t0, "T": t0 + length},
           "conditions": [{"t": t0 + f * length, "value": draw(fuzzy_values())}
                          for f in fractions],
           "output": {"points": draw(st.sampled_from([2, 11, 101])),
                      "alphas": sorted(draw(st.sets(st.sampled_from(LEVELS + OFF_KNOTS),
                                                    min_size=1)))}}
    broken = draw(st.sampled_from([None] * 28 + ["condition", "value", "expression", "interval"]))
    if broken == "condition":
        doc["conditions"].pop()
    elif broken == "value":
        doc["conditions"][0]["value"] = {"type": "triangular", "l": 2, "m": 1, "r": 3}
    elif broken == "expression":
        doc["equation"]["forcing"] = "sin(t"
    elif broken == "interval":
        doc["interval"]["T"] = t0
    return doc


def check_band(levels, t, lower, upper):
    """t strictly increases, lower <= upper, and the cuts nest as alpha grows."""
    t, lower, upper = np.array(t), np.array(lower), np.array(upper)
    assert list(levels) == sorted(set(levels))
    assert (t[:-1] < t[1:]).all()
    assert (lower <= upper).all()
    assert (lower[:-1] <= lower[1:]).all() and (upper[1:] <= upper[:-1]).all()


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    alphas = [name.split("_", 1)[1] for name in header[1::2]]
    assert header == ["t"] + [f"{side}_{a}" for a in alphas for side in ("lower", "upper")]
    columns = np.array(rows, dtype=float).T
    return [float(a) for a in alphas], columns[0], columns[1::2], columns[2::2]


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    levels = doc["levels"]
    return ([level["alpha"] for level in levels], doc["t"],
            [level["lower"] for level in levels], [level["upper"] for level in levels])


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.sampled_from(["csv", "json"]))
def test_solve_ends_in_a_band_or_one_documented_line(doc, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        problem, out = os.path.join(tmp, "problem.json"), os.path.join(tmp, "band.out")
        with open(problem, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["solve", problem, "--format", fmt, "--out", out])
        message = stderr.getvalue()
        event(f"exit {code}")
        assert code in (0, 1, 2), (code, message)
        if code:
            check_failure(message, out)
            return
        assert message == ""
        check_band(*(read_csv(out) if fmt == "csv" else read_json(out)))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(orders=st.just(2), at_ends=True), st.integers(3, 60), st.integers(2, 5),
       st.floats(0.0, 1.0))
def test_verify_ends_in_a_report_or_one_documented_line(doc, mesh, samples, alpha):
    with tempfile.TemporaryDirectory() as tmp:
        problem, out = os.path.join(tmp, "problem.json"), os.path.join(tmp, "report.json")
        with open(problem, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["verify", problem, "--mesh", str(mesh), "--samples", str(samples),
                             "--alpha", repr(alpha), "--out", out])
        message = stderr.getvalue()
        event(f"exit {code}")
        assert code in (0, 1, 2, 3), (code, message)
        if code in (1, 2):
            check_failure(message, out)
            return
        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)
        t = report["t"]
        assert len(t) == mesh + 2 and all(a < b for a, b in zip(t, t[1:]))
        assert report["passed"] is (code == 0)
        assert (message == "") if code == 0 else message.startswith("verification failed:")


def check_failure(message, out):
    """One line, or a validation report: a heading and one line per field; and
    no output file."""
    first, *fields = message.splitlines()
    assert message.endswith("\n") and first and "Traceback" not in message, message
    if fields:
        assert first == "invalid problem file:", message
        assert all(line.startswith("  ") for line in fields), message
    assert not os.path.exists(out)
