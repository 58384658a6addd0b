"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import time

import numpy as np

import reference
from fuzzybvp import fuzzy
from fuzzybvp.cli import main as cli_main
from fuzzybvp.ode import (
    LinearODE,
    TimeGrid,
    boundary_matrix,
    homogeneous_basis,
    integrate_ivp,
)
from fuzzybvp.oracle import compare, envelope, fd_solve
from fuzzybvp.solver import solve_fuzzy_bvp


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_example1_reproduction():
    start = time.perf_counter()
    solution = solve_fuzzy_bvp(reference.make_example1())
    ts = np.linspace(0.0, 1.0, 101)
    w_err = 0.0
    x_err = 0.0
    for t in ts:
        w = solution.weight_basis.weight_at(float(t))
        w_err = max(w_err, abs(w[0] - reference.ex1_w1(t)), abs(w[1] - reference.ex1_w2(t)))
        x_err = max(x_err, abs(solution.crisp.value(float(t)) - reference.ex1_crisp(t)))
    elapsed = time.perf_counter() - start
    ok = w_err <= 1e-8 and x_err <= 1e-8 and elapsed < 1.0
    report(1, ok, f"w sup err {w_err:.2e} <= 1e-8, x_cr sup err {x_err:.2e} <= 1e-8, "
                  f"runtime {elapsed:.2f}s < 1s")


def test_criterion_02_example2_reproduction():
    solution = solve_fuzzy_bvp(reference.make_example2())
    ts = np.linspace(0.0, 2.0, 101)
    x_err = max(abs(solution.crisp.value(float(t)) - reference.ex2_crisp(t)) for t in ts)
    w_err = 0.0
    w1_values = []
    for t in ts:
        w = solution.weight_basis.weight_at(float(t))
        w1_values.append(w[0])
        w_err = max(w_err, abs(w[0] - reference.ex2_w1(t)), abs(w[1] - reference.ex2_w2(t)))
    w1_values = np.array(w1_values)
    changes_sign = w1_values.min() < 0.0 < w1_values.max()
    ok = x_err <= 1e-8 and w_err <= 1e-8 and changes_sign
    report(2, ok, f"x_cr sup err {x_err:.2e} <= 1e-8, w sup err {w_err:.2e} <= 1e-8, "
                  f"w1 changes sign on (0, 2): {changes_sign}")


def test_criterion_03_boundary_reproduction(solution1, solution2, example1, example2):
    worst = 0.0
    for solution, problem in ((solution1, example1), (solution2, example2)):
        for point, condition in problem.conditions:
            for alpha in np.linspace(0.0, 1.0, 11):
                cut = solution.value_at(point, float(alpha))
                expected = condition.alpha_cut(float(alpha))
                worst = max(worst, abs(cut.lo - expected.lo), abs(cut.hi - expected.hi))
    report(3, worst <= 1e-9, f"max boundary-cut deviation {worst:.2e} <= 1e-9 "
                             f"(both examples, 11 levels)")


def test_criterion_04_triangular_similarity(solution1):
    worst = 0.0
    for t in (0.25, 0.5, 0.75):
        base = solution1.value_at(t, 0.0)
        width0 = base.hi - base.lo
        for alpha in np.arange(0.1, 0.95, 0.1):
            cut = solution1.value_at(t, float(alpha))
            width = cut.hi - cut.lo
            expected = (1.0 - alpha) * width0
            worst = max(worst, abs(width - expected) / expected)
    report(4, worst <= 1e-12,
           f"max relative width error {worst:.2e} <= 1e-12 (homogeneous part scales "
           f"with 1 - alpha)")


def test_criterion_05_extension_principle_equivalence(solution1, solution2):
    levels = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for solution in (solution1, solution2):
        band = solution.band(levels)
        weights = solution.weight_basis.weights
        crisp = solution.crisp.values
        for node in range(solution.grid.num_points):
            total = fuzzy.scale(float(weights[node, 0]), solution.uncertain_parts[0])
            total = fuzzy.add(total, fuzzy.scale(float(weights[node, 1]),
                                                 solution.uncertain_parts[1]))
            for k, alpha in enumerate(band.alphas):
                cut = total.alpha_cut(float(alpha))
                worst = max(worst,
                            abs(crisp[node] + cut.lo - band.lower[k, node]),
                            abs(crisp[node] + cut.hi - band.upper[k, node]))
    report(5, worst <= 1e-12,
           f"max |min/max formula - interval arithmetic| {worst:.2e} <= 1e-12 "
           f"(every node and level, both examples)")


def test_criterion_06_oracle_equivalence():
    start = time.perf_counter()
    worst_dev = 0.0
    worst_ext = 0.0
    for make in (reference.make_example1, reference.make_example2):
        problem = make()
        solution = solve_fuzzy_bvp(problem)
        grid = TimeGrid(problem.grid.t0, problem.grid.t_end, 1999 + 2)
        band = solution.band([0.0, 0.5], grid=grid)
        for alpha in (0.0, 0.5):
            corners = envelope(problem, alpha, 2, grid)
            worst_dev = max(worst_dev, compare(band, corners).max_deviation)
            dense = envelope(problem, alpha, 21, grid)
            worst_ext = max(worst_ext,
                            float(np.max(corners.lower - dense.lower)),
                            float(np.max(dense.upper - corners.upper)))
    elapsed = time.perf_counter() - start
    ok = worst_dev <= 1e-4 and worst_ext <= 1e-9 and elapsed < 30.0
    report(6, ok, f"max band-envelope deviation {worst_dev:.2e} <= 1e-4, "
                  f"max interior extension {worst_ext:.2e} <= 1e-9, "
                  f"runtime {elapsed:.1f}s < 30s")


def test_criterion_07_convergence_orders():
    ode1 = LinearODE.from_strings(2, ["-3", "2"], "4*t - 6")

    def rk4_error(steps):
        grid = TimeGrid(0.0, 1.0, steps + 1)
        traj = integrate_ivp(ode1.homogeneous(), [1.0, 0.0], grid)
        nodes = grid.nodes()
        return np.max(np.abs(traj.values - (2.0 * np.exp(nodes) - np.exp(2.0 * nodes))))

    def fd_error(m):
        grid = TimeGrid(0.0, 1.0, m + 2)
        x = fd_solve(ode1, 2.0, 3.0, grid)
        closed = np.array([reference.ex1_crisp(t) for t in grid.nodes()])
        return np.max(np.abs(x - closed))

    rk4_ratio = rk4_error(40) / rk4_error(80)
    fd_ratio = fd_error(499) / fd_error(999)
    ok = 12.0 <= rk4_ratio <= 20.0 and 3.2 <= fd_ratio <= 4.8
    report(7, ok, f"RK4 halving ratio {rk4_ratio:.2f} in [12, 20], "
                  f"FD doubling ratio {fd_ratio:.2f} in [3.2, 4.8]")


def test_criterion_08_singular_detection(tmp_path, capsys):
    # x'' + k^2 x = 0 with k*T = pi: the boundary matrix determinant vanishes
    ode = LinearODE.from_strings(2, ["0", "pi^2"], "0")
    basis = homogeneous_basis(ode, TimeGrid(0.0, 1.0, 1001))
    mat = boundary_matrix(basis, [0.0, 1.0])
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    threshold = 1e-12 * np.abs(mat).sum(axis=1).max() ** 2

    doc = {
        "equation": {"order": 2, "coeffs": ["0", "pi^2"], "forcing": "0"},
        "interval": {"t0": 0, "T": 1},
        "conditions": [
            {"t": 0, "value": {"type": "triangular", "l": -0.5, "m": 0, "r": 1}},
            {"t": 1, "value": {"type": "triangular", "l": -1, "m": 0, "r": 1}},
        ],
    }
    path = tmp_path / "resonant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli_main(["solve", str(path)])
    err = capsys.readouterr().err
    ok = abs(det) <= threshold and code == 2 and "no unique solution" in err
    report(8, ok, f"direct |det| {abs(det):.2e} <= threshold {threshold:.2e}, "
                  f"solve exit code {code} == 2")


def test_criterion_09_membership(solution1):
    vertex = solution1.membership_of([2.0, 3.0])
    half = solution1.membership_of([2.5, 3.5])
    outside_first = solution1.membership_of([1.0, 3.0])
    outside_second = solution1.membership_of([2.0, 4.5])
    ok = (abs(vertex - 1.0) <= 1e-12 and abs(half - 0.5) <= 1e-12
          and outside_first == 0.0 and outside_second == 0.0)
    report(9, ok, f"membership at vertices {vertex}, at (2.5, 3.5) {half}, "
                  f"outside support {outside_first}, {outside_second}")


def test_criterion_10_band_data_replaces_figures(solution1, solution2):
    # the plots are qualitative bar overlays; the banded data at their levels
    # is produced and checked by criteria 3-6 instead
    checked = []
    for solution, level in ((solution1, 0.5), (solution2, 0.6)):
        band = solution.band([0.0, level, 1.0])
        nested = (np.all(np.diff(band.lower, axis=0) >= -1e-12)
                  and np.all(np.diff(band.upper, axis=0) <= 1e-12))
        checked.append(nested)
    ok = all(checked)
    report(10, ok, "figure-level bands (alpha = 0.5 and 0.6) emitted as data and "
                   "nested; image reproduction intentionally out of scope")
