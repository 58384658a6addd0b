import warnings

import numpy as np
import pytest

import reference
from fuzzybvp.fuzzy import TriangularFuzzyNumber
from fuzzybvp.ode import LinearODE, TimeGrid
from fuzzybvp.oracle import (
    FDMesh,
    SingularDiscretizationError,
    compare,
    envelope,
    fd_solve,
)
from fuzzybvp.solver import FuzzyBVP

EX1_ODE = LinearODE.from_strings(2, ["-3", "2"], "4*t - 6")
EX2_ODE = LinearODE.from_strings(2, ["0", "16"], "47 - 8*t^2")
VARIABLE_ODE = LinearODE.from_strings(2, ["sin(t)", "1 + t^2"], "t")


class TestFdSolve:
    @pytest.mark.parametrize("t0, t_end", [(0.0, float("inf")), (-1e308, 1e308)])
    def test_mesh_of_non_finite_length_rejected(self, t0, t_end):
        with pytest.raises(ValueError, match="must be finite"):
            FDMesh(t0, t_end, 9)

    def test_exact_on_linear_solutions(self):
        ode = LinearODE.from_strings(2, ["0", "0"], "0")
        mesh = FDMesh(0.0, 1.0, 9)
        x = fd_solve(ode, 0.0, 1.0, mesh)
        assert np.max(np.abs(x - mesh.nodes())) <= 1e-13

    def test_example2_crisp_midpoint(self):
        mesh = FDMesh(0.0, 2.0, 1999)
        x = fd_solve(EX2_ODE, 3.0, 1.0, mesh)
        nodes = mesh.nodes()
        mid = int(np.argmin(np.abs(nodes - 1.0)))
        assert abs(nodes[mid] - 1.0) < 1e-12
        assert x[mid] == pytest.approx(2.5, abs=5e-6)

    def test_example1_crisp_midpoint(self):
        mesh = FDMesh(0.0, 1.0, 1999)
        x = fd_solve(EX1_ODE, 2.0, 3.0, mesh)
        nodes = mesh.nodes()
        mid = int(np.argmin(np.abs(nodes - 0.5)))
        assert x[mid] == pytest.approx(reference.ex1_crisp(0.5), abs=5e-6)

    def test_boundary_values_embedded(self):
        mesh = FDMesh(0.0, 1.0, 9)
        x = fd_solve(EX1_ODE, 2.0, 3.0, mesh)
        assert x[0] == 2.0 and x[-1] == 3.0

    def test_second_order_convergence(self):
        def sup_error(m):
            mesh = FDMesh(0.0, 1.0, m)
            x = fd_solve(EX1_ODE, 2.0, 3.0, mesh)
            closed = np.array([reference.ex1_crisp(t) for t in mesh.nodes()])
            return np.max(np.abs(x - closed))

        ratio = sup_error(499) / sup_error(999)
        assert 3.2 <= ratio <= 4.8

    def test_order_restriction(self):
        ode = LinearODE.from_strings(3, ["0", "0", "0"], "0")
        with pytest.raises(ValueError, match="order 2 only"):
            fd_solve(ode, 0.0, 1.0, FDMesh(0.0, 1.0, 9))

    def test_zero_pivot_detected(self):
        # h = 1/4, so a2 = 2/h^2 = 32 zeroes the first pivot
        ode = LinearODE.from_strings(2, ["0", "32"], "0")
        with pytest.raises(SingularDiscretizationError, match="pivot"):
            fd_solve(ode, 0.0, 1.0, FDMesh(0.0, 1.0, 3))

    def test_overflow_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDiscretizationError, match="non-finite"):
                fd_solve(EX1_ODE, 1e308, 0.0, FDMesh(0.0, 1.0, 9))

    def test_mesh_validation(self):
        with pytest.raises(ValueError, match="interior points"):
            FDMesh(0.0, 1.0, 2)

    @pytest.mark.parametrize("t0, t_end, message", [
        (1.0, 1.0, "need t_end > t0, got [1.0, 1.0]"),
        (1.0, 0.0, "need t_end > t0, got [1.0, 0.0]"),
    ])
    def test_mesh_needs_t_end_above_t0(self, t0, t_end, message):
        with pytest.raises(ValueError) as info:
            FDMesh(t0, t_end, 3)
        assert str(info.value) == message


def formula_band_on_mesh(solution, alpha, mesh):
    grid = TimeGrid(mesh.t0, mesh.t_end, mesh.interior_points + 2)
    return solution.band([alpha], grid=grid)


@pytest.fixture(scope="module")
def mesh1():
    return FDMesh(0.0, 1.0, 499)


class TestEnvelope:
    def test_corner_envelope_matches_band(self, solution1, mesh1, example1):
        env = envelope(example1, 0.0, 2, mesh1)
        band = formula_band_on_mesh(solution1, 0.0, mesh1)
        report = compare(band, env)
        assert report.max_deviation <= 1e-4

    def test_interior_samples_never_extend_the_envelope(self, example1, mesh1):
        corners = envelope(example1, 0.0, 2, mesh1)
        dense = envelope(example1, 0.0, 7, mesh1)
        assert np.max(corners.lower - dense.lower) <= 1e-9
        assert np.max(dense.upper - corners.upper) <= 1e-9

    def test_example2_at_level_used_by_its_figure(self, solution2, example2):
        mesh = FDMesh(0.0, 2.0, 999)
        env = envelope(example2, 0.6, 2, mesh)
        band = formula_band_on_mesh(solution2, 0.6, mesh)
        assert compare(band, env).max_deviation <= 1e-4

    def test_every_sample_inside_inflated_band(self, solution1, example1, mesh1):
        band = formula_band_on_mesh(solution1, 0.0, mesh1)
        cut_a = example1.conditions[0][1].alpha_cut(0.0)
        cut_b = example1.conditions[1][1].alpha_cut(0.0)
        for a in np.linspace(cut_a.lo, cut_a.hi, 4):
            for b in np.linspace(cut_b.lo, cut_b.hi, 4):
                x = fd_solve(example1.ode, float(a), float(b), mesh1)
                assert np.all(x >= band.lower[0] - 1e-4)
                assert np.all(x <= band.upper[0] + 1e-4)

    def test_degenerate_cut_at_alpha_one(self, example1, mesh1):
        env = envelope(example1, 1.0, 2, mesh1)
        assert np.max(env.upper - env.lower) <= 1e-12

    def test_zero_pivot_detected(self):
        # h = 1/4, so a2 = 2/h^2 = 32 zeroes the first pivot
        ode = LinearODE.from_strings(2, ["0", "32"], "0")
        conds = ((0.0, TriangularFuzzyNumber(0, 1, 2)), (1.0, TriangularFuzzyNumber(0, 1, 2)))
        problem = FuzzyBVP(ode, conds, TimeGrid(0.0, 1.0, 101))
        with pytest.raises(SingularDiscretizationError, match="pivot at interior node 1"):
            envelope(problem, 0.0, 3, FDMesh(0.0, 1.0, 3))

    def test_overflow_raises_without_warnings(self):
        conds = ((0.0, TriangularFuzzyNumber(1e307, 2e307, 1e308)),
                 (1.0, TriangularFuzzyNumber(0, 1, 2)))
        problem = FuzzyBVP(EX1_ODE, conds, TimeGrid(0.0, 1.0, 101))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDiscretizationError, match="non-finite"):
                envelope(problem, 0.0, 3, FDMesh(0.0, 1.0, 9))

    def test_cut_wider_than_float_range_raises_without_warnings(self):
        conds = ((0.0, TriangularFuzzyNumber(-1e308, 0.0, 1e308)),
                 (1.0, TriangularFuzzyNumber(0, 1, 2)))
        problem = FuzzyBVP(EX1_ODE, conds, TimeGrid(0.0, 1.0, 101))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDiscretizationError, match="non-finite"):
                envelope(problem, 0.0, 3, FDMesh(0.0, 1.0, 9))

    def test_sample_count_validated(self, example1, mesh1):
        with pytest.raises(ValueError, match="2 samples"):
            envelope(example1, 0.0, 1, mesh1)

    def test_requires_endpoint_conditions(self, mesh1):
        conds = ((0.25, TriangularFuzzyNumber(0, 1, 2)),
                 (0.75, TriangularFuzzyNumber(0, 1, 2)))
        problem = FuzzyBVP(EX1_ODE, conds, TimeGrid(0.0, 1.0, 101))
        with pytest.raises(ValueError, match="each interval end"):
            envelope(problem, 0.0, 2, mesh1)

    def test_order_restriction(self):
        ode = LinearODE.from_strings(3, ["0", "0", "0"], "0")
        conds = ((0.0, TriangularFuzzyNumber(0, 1, 2)),
                 (0.5, TriangularFuzzyNumber(0, 1, 2)),
                 (1.0, TriangularFuzzyNumber(0, 1, 2)))
        problem = FuzzyBVP(ode, conds, TimeGrid(0.0, 1.0, 101))
        with pytest.raises(ValueError, match="order 2 only"):
            envelope(problem, 0.0, 2, FDMesh(0.0, 1.0, 9))


def variable_problem():
    conds = ((0.0, TriangularFuzzyNumber(-1.0, 0.0, 0.5)),
             (1.5, TriangularFuzzyNumber(1.0, 2.0, 4.0)))
    return FuzzyBVP(VARIABLE_ODE, conds, TimeGrid(0.0, 1.5, 101))


EXACTNESS_PROBLEMS = {
    "example1-alpha0": (reference.make_example1, 0.0),
    "example2-alpha0.6": (reference.make_example2, 0.6),
    "variable-alpha0.3": (variable_problem, 0.3),
    "example1-alpha1": (reference.make_example1, 1.0),
}


class TestExactness:
    """The shared-factorization kernel against one scalar Thomas solve per pair."""

    @pytest.mark.parametrize("interior", [3, 199])
    @pytest.mark.parametrize("samples", [2, 3, 21])
    @pytest.mark.parametrize("name", list(EXACTNESS_PROBLEMS))
    def test_envelope_equals_scalar_loop(self, name, samples, interior):
        make, alpha = EXACTNESS_PROBLEMS[name]
        problem = make()
        mesh = FDMesh(problem.grid.t0, problem.grid.t_end, interior)
        env = envelope(problem, alpha, samples, mesh)
        lower, upper = reference.envelope_scalar(problem, alpha, samples, mesh)
        assert np.array_equal(env.lower, lower)
        assert np.array_equal(env.upper, upper)

    @pytest.mark.parametrize("interior", [3, 199, 1999])
    @pytest.mark.parametrize("ode, t_end", [(EX1_ODE, 1.0), (EX2_ODE, 2.0), (VARIABLE_ODE, 1.5)])
    def test_fd_solve_equals_scalar_loop(self, ode, t_end, interior):
        mesh = FDMesh(0.0, t_end, interior)
        for a, b in ((2.0, 3.0), (-1.25, 0.0), (1e-3, -7.5)):
            assert np.array_equal(fd_solve(ode, a, b, mesh),
                                  reference.fd_solve_scalar(ode, a, b, mesh))


class TestCompare:
    def test_identical_bands_have_zero_deviation(self, solution1, example1):
        mesh = FDMesh(0.0, 1.0, 99)
        env = envelope(example1, 0.0, 2, mesh)
        band = formula_band_on_mesh(solution1, 0.0, mesh)
        report = compare(band, env)
        self_report = compare(band, type(env)(mesh, 0.0,
                                              band.lower[0].copy(), band.upper[0].copy()))
        assert self_report.max_deviation == 0.0
        assert report.max_deviation >= 0.0
        assert np.all(report.lower_deviation >= 0.0)
        assert np.all(report.upper_deviation >= 0.0)

    def test_grid_mismatch_rejected(self, solution1, example1):
        mesh = FDMesh(0.0, 1.0, 99)
        env = envelope(example1, 0.0, 2, mesh)
        band = solution1.band([0.0])  # 1001-node solution grid
        with pytest.raises(ValueError, match="grid mismatch"):
            compare(band, env)

    def test_missing_level_rejected(self, solution1, example1):
        mesh = FDMesh(0.0, 1.0, 99)
        env = envelope(example1, 0.25, 2, mesh)
        band = formula_band_on_mesh(solution1, 0.5, mesh)
        with pytest.raises(ValueError, match="no level"):
            compare(band, env)

    def test_report_serializes(self, solution1, example1):
        mesh = FDMesh(0.0, 1.0, 99)
        report = compare(formula_band_on_mesh(solution1, 0.0, mesh),
                         envelope(example1, 0.0, 2, mesh))
        doc = report.to_dict()
        assert doc["alpha"] == 0.0
        assert len(doc["t"]) == 101
        assert doc["max_deviation"] == report.max_deviation
