import tracemalloc
import warnings

import numpy as np
import pytest

import reference
from fuzzybvp.fuzzy import TriangularFuzzyNumber
from fuzzybvp.ode import LinearODE, TimeGrid
from fuzzybvp.oracle import SingularDiscretizationError, compare, envelope, fd_solve
from fuzzybvp.solver import FuzzyBVP, SolutionBand

EX1_ODE = LinearODE.from_strings(2, ["-3", "2"], "4*t - 6")
EX2_ODE = LinearODE.from_strings(2, ["0", "16"], "47 - 8*t^2")
VARIABLE_ODE = LinearODE.from_strings(2, ["sin(t)", "1 + t^2"], "t")


class TestFdSolve:
    def test_exact_on_linear_solutions(self):
        ode = LinearODE.from_strings(2, ["0", "0"], "0")
        grid = TimeGrid(0.0, 1.0, 11)
        x = fd_solve(ode, 0.0, 1.0, grid)
        assert np.max(np.abs(x - grid.nodes())) <= 1e-13

    def test_example2_crisp_midpoint(self):
        grid = TimeGrid(0.0, 2.0, 2001)
        x = fd_solve(EX2_ODE, 3.0, 1.0, grid)
        nodes = grid.nodes()
        mid = int(np.argmin(np.abs(nodes - 1.0)))
        assert abs(nodes[mid] - 1.0) < 1e-12
        assert x[mid] == pytest.approx(2.5, abs=5e-6)

    def test_example1_crisp_midpoint(self):
        grid = TimeGrid(0.0, 1.0, 2001)
        x = fd_solve(EX1_ODE, 2.0, 3.0, grid)
        nodes = grid.nodes()
        mid = int(np.argmin(np.abs(nodes - 0.5)))
        assert x[mid] == pytest.approx(reference.ex1_crisp(0.5), abs=5e-6)

    def test_boundary_values_embedded(self):
        grid = TimeGrid(0.0, 1.0, 11)
        x = fd_solve(EX1_ODE, 2.0, 3.0, grid)
        assert x[0] == 2.0 and x[-1] == 3.0

    def test_second_order_convergence(self):
        def sup_error(m):
            grid = TimeGrid(0.0, 1.0, m + 2)
            x = fd_solve(EX1_ODE, 2.0, 3.0, grid)
            closed = np.array([reference.ex1_crisp(t) for t in grid.nodes()])
            return np.max(np.abs(x - closed))

        ratio = sup_error(499) / sup_error(999)
        assert 3.2 <= ratio <= 4.8

    def test_order_restriction(self):
        ode = LinearODE.from_strings(3, ["0", "0", "0"], "0")
        with pytest.raises(ValueError, match="order 2 only"):
            fd_solve(ode, 0.0, 1.0, TimeGrid(0.0, 1.0, 11))

    def test_zero_pivot_detected(self):
        # h = 1/4, so a2 = 2/h^2 = 32 zeroes the first pivot
        ode = LinearODE.from_strings(2, ["0", "32"], "0")
        with pytest.raises(SingularDiscretizationError, match="pivot"):
            fd_solve(ode, 0.0, 1.0, TimeGrid(0.0, 1.0, 5))

    def test_overflow_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDiscretizationError, match="non-finite"):
                fd_solve(EX1_ODE, 1e308, 0.0, TimeGrid(0.0, 1.0, 11))

    @pytest.mark.parametrize("ode, t_end", [
        (LinearODE.from_strings(2, ["0", "0"], "0"), 1e-170),  # h^2 underflows to 0
        (LinearODE.from_strings(2, ["1e300/t", "0"], "t"), 1e-6),  # a1 / (2h) overflows
    ])
    def test_coefficients_past_the_float_range_raise_without_warnings(self, ode, t_end):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDiscretizationError, match="non-finite"):
                fd_solve(ode, 1.0, 1.0, TimeGrid(0.0, t_end, 5))

    def test_mesh_validation(self, example1):
        # t_end > t0 and a finite length are TimeGrid's own checks
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError) as info:
            fd_solve(EX1_ODE, 0.0, 1.0, grid)
        assert str(info.value) == "need at least 3 interior points, got 2"
        with pytest.raises(ValueError, match="interior points"):
            envelope(example1, 0.0, 2, grid)


@pytest.fixture(scope="module")
def grid1():
    return TimeGrid(0.0, 1.0, 501)


class TestEnvelope:
    def test_corner_envelope_matches_band(self, solution1, grid1, example1):
        env = envelope(example1, 0.0, 2, grid1)
        band = solution1.band([0.0], grid=grid1)
        report = compare(band, env)
        assert report.max_deviation <= 1e-4

    def test_envelope_is_a_one_level_band_on_the_grid(self, example1, grid1):
        env = envelope(example1, 0.5, 3, grid1)
        assert isinstance(env, SolutionBand)
        assert env.grid is grid1 and env.alphas == (0.5,)
        assert env.lower.shape == env.upper.shape == (1, grid1.num_points)
        assert np.all(env.lower <= env.upper)

    def test_interior_samples_never_extend_the_envelope(self, example1, grid1):
        corners = envelope(example1, 0.0, 2, grid1)
        dense = envelope(example1, 0.0, 7, grid1)
        assert np.max(corners.lower[0] - dense.lower[0]) <= 1e-9
        assert np.max(dense.upper[0] - corners.upper[0]) <= 1e-9

    def test_example2_at_level_used_by_its_figure(self, solution2, example2):
        grid = TimeGrid(0.0, 2.0, 1001)
        env = envelope(example2, 0.6, 2, grid)
        band = solution2.band([0.6], grid=grid)
        assert compare(band, env).max_deviation <= 1e-4

    def test_every_sample_inside_inflated_band(self, solution1, example1, grid1):
        band = solution1.band([0.0], grid=grid1)
        cut_a = example1.conditions[0][1].alpha_cut(0.0)
        cut_b = example1.conditions[1][1].alpha_cut(0.0)
        for a in np.linspace(cut_a.lo, cut_a.hi, 4):
            for b in np.linspace(cut_b.lo, cut_b.hi, 4):
                x = fd_solve(example1.ode, float(a), float(b), grid1)
                assert np.all(x >= band.lower[0] - 1e-4)
                assert np.all(x <= band.upper[0] + 1e-4)

    def test_degenerate_cut_at_alpha_one(self, example1, grid1):
        env = envelope(example1, 1.0, 2, grid1)
        assert np.max(env.upper[0] - env.lower[0]) <= 1e-12

    def test_zero_pivot_detected(self):
        # h = 1/4, so a2 = 2/h^2 = 32 zeroes the first pivot
        ode = LinearODE.from_strings(2, ["0", "32"], "0")
        conds = ((0.0, TriangularFuzzyNumber(0, 1, 2)), (1.0, TriangularFuzzyNumber(0, 1, 2)))
        problem = FuzzyBVP(ode, conds, TimeGrid(0.0, 1.0, 101))
        with pytest.raises(SingularDiscretizationError, match="pivot at interior node 1"):
            envelope(problem, 0.0, 3, TimeGrid(0.0, 1.0, 5))

    def test_overflow_raises_without_warnings(self):
        conds = ((0.0, TriangularFuzzyNumber(1e307, 2e307, 1e308)),
                 (1.0, TriangularFuzzyNumber(0, 1, 2)))
        problem = FuzzyBVP(EX1_ODE, conds, TimeGrid(0.0, 1.0, 101))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDiscretizationError, match="non-finite"):
                envelope(problem, 0.0, 3, TimeGrid(0.0, 1.0, 11))

    def test_cut_wider_than_float_range_raises_without_warnings(self):
        conds = ((0.0, TriangularFuzzyNumber(-1e308, 0.0, 1e308)),
                 (1.0, TriangularFuzzyNumber(0, 1, 2)))
        problem = FuzzyBVP(EX1_ODE, conds, TimeGrid(0.0, 1.0, 101))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDiscretizationError, match="non-finite"):
                envelope(problem, 0.0, 3, TimeGrid(0.0, 1.0, 11))

    def test_sample_count_validated(self, example1, grid1):
        with pytest.raises(ValueError, match="2 samples"):
            envelope(example1, 0.0, 1, grid1)

    def test_requires_endpoint_conditions(self, grid1):
        conds = ((0.25, TriangularFuzzyNumber(0, 1, 2)),
                 (0.75, TriangularFuzzyNumber(0, 1, 2)))
        problem = FuzzyBVP(EX1_ODE, conds, TimeGrid(0.0, 1.0, 101))
        with pytest.raises(ValueError, match="each interval end"):
            envelope(problem, 0.0, 2, grid1)

    def test_order_restriction(self):
        ode = LinearODE.from_strings(3, ["0", "0", "0"], "0")
        conds = ((0.0, TriangularFuzzyNumber(0, 1, 2)),
                 (0.5, TriangularFuzzyNumber(0, 1, 2)),
                 (1.0, TriangularFuzzyNumber(0, 1, 2)))
        problem = FuzzyBVP(ode, conds, TimeGrid(0.0, 1.0, 101))
        with pytest.raises(ValueError, match="order 2 only"):
            envelope(problem, 0.0, 2, TimeGrid(0.0, 1.0, 11))


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
        grid = TimeGrid(problem.grid.t0, problem.grid.t_end, interior + 2)
        env = envelope(problem, alpha, samples, grid)
        lower, upper = reference.envelope_scalar(problem, alpha, samples, grid)
        assert np.array_equal(env.lower[0], lower)
        assert np.array_equal(env.upper[0], upper)

    # The back sweep fills one block of rows (2**15 doubles, at least one row) at a time,
    # h = 74 rows at 21 samples and 8192 at 2, over the m - 1 rows below the last node.
    @pytest.mark.parametrize("samples, interior", [
        (200, 3), (200, 199),  # one row per block
        (21, 75), (21, 76), (21, 149),  # m - 1 = h, h + 1 and 2h
        (2, 8194),  # two blocks, the last holding one row
    ])
    def test_block_edges_equal_scalar_loop(self, samples, interior):
        problem = variable_problem()
        grid = TimeGrid(problem.grid.t0, problem.grid.t_end, interior + 2)
        env = envelope(problem, 0.3, samples, grid)
        lower, upper = reference.envelope_scalar(problem, 0.3, samples, grid)
        assert np.array_equal(env.lower[0], lower)
        assert np.array_equal(env.upper[0], upper)

    # tracemalloc peaks (bytes) of a second envelope call when each back-sweep
    # row was a multiply and a 2-D broadcast subtract, with CPython 3.11 and
    # numpy 2.4.6; the flat rows may add at most one row of samples**2 doubles
    @pytest.mark.parametrize("samples, interior, before", [(21, 1999, 1162764),
                                                           (200, 199, 1018336)])
    def test_envelope_peak_memory(self, example1, samples, interior, before):
        grid = TimeGrid(0.0, 1.0, interior + 2)
        envelope(example1, 0.0, samples, grid)
        tracemalloc.start()
        try:
            envelope(example1, 0.0, samples, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= before + samples * samples * 8

    @pytest.mark.parametrize("interior", [3, 199, 1999])
    @pytest.mark.parametrize("ode, t_end", [(EX1_ODE, 1.0), (EX2_ODE, 2.0), (VARIABLE_ODE, 1.5)])
    def test_fd_solve_equals_scalar_loop(self, ode, t_end, interior):
        grid = TimeGrid(0.0, t_end, interior + 2)
        for a, b in ((2.0, 3.0), (-1.25, 0.0), (1e-3, -7.5)):
            assert np.array_equal(fd_solve(ode, a, b, grid),
                                  reference.fd_solve_scalar(ode, a, b, grid))


class TestCompare:
    def test_identical_bands_have_zero_deviation(self, solution1, example1):
        grid = TimeGrid(0.0, 1.0, 101)
        env = envelope(example1, 0.0, 2, grid)
        band = solution1.band([0.0], grid=grid)
        report = compare(band, env)
        self_report = compare(band, band)
        assert self_report.max_deviation == 0.0
        assert report.max_deviation >= 0.0
        assert np.all(report.lower_deviation >= 0.0)
        assert np.all(report.upper_deviation >= 0.0)

    def test_grid_mismatch_rejected(self, solution1, example1):
        grid = TimeGrid(0.0, 1.0, 101)
        env = envelope(example1, 0.0, 2, grid)
        band = solution1.band([0.0])  # 1001-node solution grid
        with pytest.raises(ValueError, match="^grid mismatch"):
            compare(band, env)
        # the same node count on another interval
        shifted = solution1.band([0.0], grid=TimeGrid(0.0, 0.5, 101))
        with pytest.raises(ValueError, match="^grid mismatch"):
            compare(shifted, env)

    def test_missing_level_rejected(self, solution1, example1):
        grid = TimeGrid(0.0, 1.0, 101)
        env = envelope(example1, 0.25, 2, grid)
        band = solution1.band([0.5], grid=grid)
        with pytest.raises(ValueError, match="no level"):
            compare(band, env)

    def test_report_serializes(self, solution1, example1):
        grid = TimeGrid(0.0, 1.0, 101)
        report = compare(solution1.band([0.0], grid=grid),
                         envelope(example1, 0.0, 2, grid))
        doc = report.to_dict()
        assert doc["alpha"] == 0.0
        assert len(doc["t"]) == 101
        assert doc["max_deviation"] == report.max_deviation
        # the deviations are computed once, on first access
        assert doc["lower_deviation"] is report.lower_deviation
        assert doc["upper_deviation"] is report.upper_deviation
        assert np.array_equal(doc["lower_deviation"],
                              np.abs(doc["formula_lower"] - doc["oracle_lower"]))
