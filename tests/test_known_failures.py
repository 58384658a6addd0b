"""The solver's known failures as one table of ``fuzzybvp solve`` runs (ROADMAP item 15).

Each row is a problem document, its exact solution as a function of crisp
boundary values, and the correct outcome: exit 0 with every band end within
the row's tolerance of the exact one, or exit 2 with a one-line message for a
resonance.  A row whose outcome is wrong today carries a strict xfail mark
that names the ROADMAP item that mends it: item 2 (multiple shooting) for
growing and decaying modes that single shooting cannot combine, item 8 (a
grid that follows the stiffness) for damping past RK4's stability limit.  The
change that mends a row drops its mark.

The solution is affine in the boundary values, so the band ends at a level
are the least and the greatest exact solution over the corners of that
level's box of boundary values (the extension principle).  No check uses the
solver's own weights.  Tolerances are relative, pointwise, to max(1, |x|):
RK4's relative error at 1 001 nodes is about L k (hk)^4 / 120 on a mode
e^{kt} over a length L, 1e-7 to 2e-4 on the rows below.

Three tests elsewhere pin today's wrong outcomes and flip when items 2 and 8
land:
- tests/test_cli.py::TestSolveCommand::test_damped_problem_past_the_power_overflow_exits_2_with_one_line
  (k = 3 100 and 3 200, exit 2; item 8);
- tests/test_cli.py::TestSolveCommand::test_unit_property_failure_exits_1_with_one_line
  (x'' = 34^2 x with points 0 and 0.7003, exit 1; item 2);
- tests/test_ode.py::TestWeightFunctions::test_unit_property_failure_is_a_documented_error
  (the same problem through the library; item 2).
The one-line guards they also hold stay here as rows that hold today and
afterwards: the resonances for exit 2, and a deliberately broken weight solve
for exit 1.
"""

import json
import math

import numpy as np
import pytest

from fuzzybvp import ode as ode_module
from fuzzybvp.cli import main

LEVELS = (0.0, 0.5, 1.0)
POINTS = 1001  # output points: every node of the CLI's 1 001-node grid


def document(coeffs, forcing, interval, points, vertices):
    """An order-2 problem with triangular values of spread 0.5 about ``vertices``."""
    return {"equation": {"order": 2, "coeffs": list(coeffs), "forcing": forcing},
            "interval": {"t0": interval[0], "T": interval[1]},
            "conditions": [{"t": p, "value": {"type": "triangular", "l": v - 0.5, "m": v,
                                              "r": v + 0.5}}
                           for p, v in zip(points, vertices)]}


def growing(k, p, q):
    """x'' = k^2 x with x(p) = v_p and x(q) = v_q."""
    def exact(t, v):
        return (v[0] * np.sinh(k * (q - t)) + v[1] * np.sinh(k * (t - p))) / math.sinh(k * (q - p))
    return exact


def damped(k, p, q):
    """x'' + k x' = 0 with x(p) = v_p and x(q) = v_q: v_p + (v_q - v_p) times the
    rise (1 - e^{-k(t - p)}) / (1 - e^{-k(q - p)})."""
    def exact(t, v):
        return v[0] + (v[1] - v[0]) * np.expm1(-k * (t - p)) / math.expm1(-k * (q - p))
    return exact


def shot(a1, a2, f, p, q, substeps=5):
    """x'' + a1(t) x' + a2(t) x = f(t) with x(p) = v_p and x(q) = v_q, for a p on
    the output grid: classical RK4 from p, forward and backward through each
    output interval in ``substeps`` steps, of the augmented fundamental matrix
    Phi (Phi(p) = I); x = Phi_0 (v_p, d, 1) with d from x(q) = v_q.  From p both
    ways, no mode decays in the direction of integration where the solution
    lives, so it is well conditioned."""
    def slope(s, z):
        return np.array([z[1], -a2(s) * z[0] - a1(s) * z[1] + f(s) * z[2], np.zeros(3)])

    def first_rows(t):  # Phi_0 at each time of t
        rows = np.empty((len(t), 3))
        start = int(np.argmin(np.abs(t - p)))
        for stop in (len(t), -1):
            z, direction = np.eye(3), 1 if stop > start else -1
            rows[start] = z[0]
            for i in range(start, stop - direction, direction):
                h = (t[i + direction] - t[i]) / substeps
                for j in range(substeps):
                    s = t[i] + j * h
                    k1 = slope(s, z)
                    k2 = slope(s + h / 2, z + h / 2 * k1)
                    k3 = slope(s + h / 2, z + h / 2 * k2)
                    k4 = slope(s + h, z + h * k3)
                    z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                rows[i + direction] = z[0]
        return rows

    def exact(t, v):
        rows = first_rows(t)
        at_q = rows[int(np.argmin(np.abs(t - q)))]
        d = (v[1] - at_q[0] * v[0] - at_q[2]) / at_q[1]
        return rows @ np.array([v[0], d, 1.0])
    return exact


ITEM_2 = pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
ITEM_8 = pytest.mark.xfail(strict=True, reason="ROADMAP item 8")

SOLVES = [
    # x'' = k^2 x, points 0 and 1: exit 2 today, as "numerically singular"
    *(pytest.param(document(["0", f"-{k * k}"], "0", (0, 1), (0, 1), (1, 2)), growing(k, 0, 1),
                   1e-5, id=f"growing-k{k}", marks=ITEM_2) for k in (26, 33, 40)),
    # points 0 and 0.7003: exit 1 today, UnitPropertyError
    *(pytest.param(document(["0", f"-{k * k}"], "0", (0, 1), (0, 0.7003), (1, 2)),
                   growing(k, 0, 0.7003), 1e-5, id=f"short-k{k}", marks=ITEM_2) for k in (24, 34)),
    # decaying from t0 = -1 to the points 0.4 and 1: exit 2 today
    pytest.param(document(["20", "0"], "0", (-1, 1), (0.4, 1), (1, 2)), damped(20, 0.4, 1), 1e-5,
                 id="decaying-k20", marks=ITEM_2),
    pytest.param(document(["60", "t"], "2.4", (-1, 1), (0.4, 1), (1, 2)),
                 shot(lambda t: 60.0, lambda t: t, lambda t: 2.4, 0.4, 1.0), 1e-3,
                 id="decaying-k60-tx", marks=ITEM_2),
    # past RK4's stability limit at h = 1e-3: wrong answers with exit 0 (1 000 and
    # 2 000, crisp errors 7.1e-3 and 0.20), exit 2 (2 900) and exit 1 (3 300)
    *(pytest.param(document([str(k), "0"], "0", (0, 1), (0, 1), (0, 1)), damped(k, 0, 1), 1e-4,
                   id=f"damped-k{k}", marks=ITEM_8) for k in (1000, 2000, 2900, 3300)),
]

RESONANCES = [
    pytest.param(document(["0", "pi^2"], "0", (0, 1), (0, 1), (1, 2)), id="pi"),
    pytest.param(document(["0", "(pi/100)^2"], "0", (0, 100), (0, 100), (1, 2)),
                 id="pi-over-100"),
    # |det| = 6.5e-12 at 1 001 nodes, above the threshold: exit 0 with a band near
    # +-7e10 (refused at 2 001 and 4 001 nodes)
    pytest.param(document(["0", "4*pi^2"], "0", (0, 1), (0, 0.5), (1, 2)), id="2pi-half",
                 marks=ITEM_2),
]


def run_solve(tmp_path, capsys, doc, *extra):
    path, out = tmp_path / "problem.json", tmp_path / "band.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["solve", str(path), "--format", "json", "--out", str(out), *extra])
    return code, capsys.readouterr().err, out


def corners(doc, alpha):
    """The 2^n corners of the level-``alpha`` box of the boundary values."""
    cuts = [(c["value"]["l"] + alpha * (c["value"]["m"] - c["value"]["l"]),
             c["value"]["r"] - alpha * (c["value"]["r"] - c["value"]["m"]))
            for c in doc["conditions"]]
    return np.array(np.meshgrid(*cuts, indexing="ij")).reshape(len(cuts), -1).T


@pytest.mark.parametrize("doc, exact, tolerance", SOLVES)
def test_well_posed_problem_solves_to_its_exact_band(tmp_path, capsys, doc, exact, tolerance):
    code, err, out = run_solve(tmp_path, capsys, doc, "--alphas", ",".join(map(str, LEVELS)),
                               "--points", str(POINTS))
    assert code == 0, err
    band = json.loads(out.read_text(encoding="utf-8"))
    t = np.array(band["t"])
    for level in band["levels"]:
        solutions = np.array([exact(t, v) for v in corners(doc, level["alpha"])])
        for got, want in ((level["lower"], solutions.min(axis=0)),
                          (level["upper"], solutions.max(axis=0))):
            error = np.abs(np.array(got) - want) / np.maximum(1.0, np.abs(want))
            assert error.max() <= tolerance, (level["alpha"], t[error.argmax()], error.max())


@pytest.mark.parametrize("doc", RESONANCES)
def test_resonance_exits_2_with_one_line(tmp_path, capsys, doc):
    code, err, out = run_solve(tmp_path, capsys, doc)
    assert code == 2
    assert err.startswith("boundary matrix is numerically singular")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_unit_property_miss_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # a weight solve that misses by 1e-6 stands for any rounding past KRONECKER_TOL
    solve = ode_module._solve_dividing

    def broken(mat, x):  # the weights overwrite the right-hand sides x
        solve(mat, x)
        x *= 1 + 1e-6
        return x

    monkeypatch.setattr(ode_module, "_solve_dividing", broken)
    doc = document(["-3", "2"], "4*t - 6", (0, 1), (0, 1), (2, 3))
    code, err, out = run_solve(tmp_path, capsys, doc)
    assert code == 1
    assert err.startswith("error: weight functions miss the unit property")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
