import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from fuzzybvp import ode as ode_module
from fuzzybvp import solver as solver_module
from fuzzybvp.expressions import ZERO, EvaluationError, parse
from fuzzybvp.fuzzy import TriangularFuzzyNumber
from fuzzybvp.ode import (
    KRONECKER_TOL,
    IntegrationError,
    LinearODE,
    NonUniqueCrispSolution,
    TimeGrid,
    Trajectory,
    UnitPropertyError,
    _propagate,
    _solve_dividing,
    boundary_matrix,
    homogeneous_basis,
    integrate_ivp,
    solve_crisp_bvp,
    weight_functions,
)
from fuzzybvp.solver import BLOCK_ROWS, FuzzyBVP, solve_fuzzy_bvp

EX1_ODE = LinearODE.from_strings(2, ["-3", "2"], "4*t - 6")
EX2_ODE = LinearODE.from_strings(2, ["0", "16"], "47 - 8*t^2")


def rk4_loop(ode, initial_state, grid):
    """Reference: classical RK4 on the companion system, one step at a
    time.  The coefficients are evaluated beforehand at the stage times
    t_j, t_j + h/2 and t_j + h of every step."""
    n = ode.order
    h = grid.step
    starts = grid.t0 + h * np.arange(grid.num_points - 1)
    stages = [([c.evaluate(t).tolist() for c in ode.coeffs], ode.forcing.evaluate(t).tolist())
              for t in (starts, starts + 0.5 * h, starts + h)]

    def rhs(stage, j, s):
        coeffs, forcing = stages[stage]
        d = np.empty(n)
        d[:-1] = s[1:]
        d[-1] = forcing[j] - sum(coeffs[i][j] * s[n - 1 - i] for i in range(n))
        return d

    states = [np.array(initial_state, dtype=float)]
    for j in range(grid.num_points - 1):
        s = states[-1]
        d1 = rhs(0, j, s)
        d2 = rhs(1, j, s + 0.5 * h * d1)
        d3 = rhs(1, j, s + 0.5 * h * d2)
        d4 = rhs(2, j, s + h * d3)
        states.append(s + h / 6.0 * (d1 + 2.0 * (d2 + d3) + d4))
    return np.array(states)


VARIABLE_ODES = {
    1: LinearODE.from_strings(1, ["cos(t)"], "exp(-t) + t"),
    2: LinearODE.from_strings(2, ["sin(t)", "1 + t^2"], "t^3 - sqrt(1 + t)"),
    4: LinearODE.from_strings(4, ["sin(t)", "1 + t^2", "exp(-t)", "-2*cos(3*t)"],
                              "t^3 - sqrt(1 + t)"),
    5: LinearODE.from_strings(5, ["sin(t)", "1 + t^2", "exp(-t)", "-2*cos(3*t)", "t/4 - 1"],
                              "t^3 - sqrt(1 + t)"),
}

# 200 steps leave the scan's last block short (blocks of 3), 64 fill every
# block (of 2), 8 and 16 make blocks of one step (16 is the first count with
# steps // 16 = 1), 1 and 2 steps are the smallest grids, and the prime
# 1009 points make 144 blocks of 7 steps
EDGE_POINTS = [201, 65, 9, 2, 3, 17, 1009]


ORDER3_ODE = LinearODE.from_strings(3, ["sin(t)", "1 + t^2", "exp(-t)"], "t^3 - sqrt(1 + t)")

# grids whose scans carry across 0, 1, 2, 3, 4, 7 and 8 block edges (blocks
# of one step), 31, 32 and 33 (blocks of two steps) and 142 (blocks of seven):
# block counts at and around powers of two, where the recursive doubling
# takes one more product
CARRY_POINTS = [2, 3, 4, 5, 6, 9, 10, 65, 67, 69, 1001]


def propagate(ode, grid, initial):
    """``_propagate``'s node rows as node states (N, n, c) and value slopes (N, c)."""
    columns = _propagate(ode, grid, initial)
    return columns[:, :ode.order].transpose(2, 1, 0), columns[:, 1].T


def basis_weights(basis, points):
    """``weight_functions`` of a ``homogeneous_basis``: its node values and
    slopes stacked into the (n, 2, N) block that the weights overwrite."""
    block = np.array([[b.values, b.slopes] for b in basis])
    return weight_functions(basis[0].grid, block, points)


def analytic_trajectory(grid, fn, dfn):
    nodes = grid.nodes()
    states = np.column_stack([[fn(t) for t in nodes], [dfn(t) for t in nodes]])
    return Trajectory(grid, states, np.array([dfn(t) for t in nodes]))


class TestTimeGrid:
    @pytest.mark.parametrize("t0, t_end", [(0.0, float("inf")), (-1e308, 1e308)])
    def test_non_finite_length_rejected(self, t0, t_end):
        with pytest.raises(ValueError, match="t_end - t0 must be finite"):
            TimeGrid(t0, t_end, 11)

    @pytest.mark.parametrize("num_points", [2, 4095, 4096, 4097, 8195, 100001])
    @pytest.mark.parametrize("t0, t_end", [(0.0, 1.0), (0.0, 2.0), (-3.0, 7.0),
                                           (5.0, 5.0 + 1e-11)])
    def test_nodes_and_their_blocks_are_those_of_linspace(self, t0, t_end, num_points):
        # a band's blocks take grid.nodes(start, stop) BLOCK_ROWS at a time;
        # they must be the bits of the whole-grid linspace, at the last node too
        if t0 == 5.0 and num_points > 5000:  # finer than floats resolve: no grid
            with pytest.raises(ValueError, match="half a step"):
                TimeGrid(t0, t_end, num_points)
            return
        grid = TimeGrid(t0, t_end, num_points)
        expected = np.linspace(t0, t_end, num_points)
        assert grid.nodes().tobytes() == expected.tobytes()
        for start in range(0, num_points, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, num_points)
            assert grid.nodes(start, stop).tobytes() == expected[start:stop].tobytes()
        assert grid.nodes(num_points - 1).tobytes() == expected[-1:].tobytes()

    def test_numpy_integer_sizes_solve_to_the_bits_of_int(self):
        # a numpy integer order or point count is stored as a Python int and
        # solves as that int does
        ode = LinearODE.from_strings(np.int64(2), ["-3", "2"], "4*t - 6")
        grid = TimeGrid(0.0, 1.0, np.int64(1001))
        assert type(ode.order) is int and type(grid.num_points) is int
        assert ode == EX1_ODE and grid == TimeGrid(0.0, 1.0, 1001)
        conds = ((0.0, TriangularFuzzyNumber(1.5, 2.0, 3.0)),
                 (1.0, TriangularFuzzyNumber(2.0, 3.0, 4.0)))
        got = solve_fuzzy_bvp(FuzzyBVP(ode, conds, grid)).columns
        expected = solve_fuzzy_bvp(FuzzyBVP(EX1_ODE, conds, TimeGrid(0.0, 1.0, 1001))).columns
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("num_points", [2.5, 1001.0, True, np.float64(11.0), np.True_])
    def test_non_integer_point_counts_are_refused(self, num_points):
        with pytest.raises(ValueError) as info:
            TimeGrid(0.0, 1.0, num_points)
        assert str(info.value) == (f"the number of grid points must be an integer, "
                                   f"got {num_points}")

    @pytest.mark.parametrize("order", [2.5, 2.0, True, np.float64(2.0), np.True_])
    def test_non_integer_orders_are_refused(self, order):
        with pytest.raises(ValueError) as info:
            LinearODE(order, (ZERO, ZERO), ZERO)
        assert str(info.value) == f"order must be a positive integer, got {order}"


def bits(array):
    return np.shape(array), np.asarray(array).tobytes()


class TestHermite:
    """``_hermite`` reads its arrays with the node axis last; every entry is
    the float arithmetic of the node-first formula it replaced
    (``reference.hermite_node_first``), so the bits are the same."""

    GRID = TimeGrid(0.3, 1.7, 11)

    @classmethod
    def times(cls):
        # nodes (t0 and t_end among them), times within SNAP_TOL of a node,
        # times just past SNAP_TOL and times between nodes
        grid = cls.GRID
        nodes = grid.nodes()
        up, down = np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf)
        near = np.concatenate([up, np.nextafter(up, np.inf), down[1:], down[1:] - 1e-13])
        between = np.concatenate([nodes[:-1] + 0.5 * grid.step,
                                  np.random.default_rng(3).uniform(grid.t0, grid.t_end, 19)])
        return np.clip(np.concatenate([nodes, near, nodes[:-1] + 1e-13, between]),
                       grid.t0, grid.t_end)

    @classmethod
    def arrays(cls):
        # 1-D values, and (N, c) values for c = 1..6, both as transposed views
        # of contiguous (c, 2, N) rows (the callers' layout) and contiguous;
        # some zeros of either sign
        rng = np.random.default_rng(7)
        n = cls.GRID.num_points
        columns = rng.standard_normal((6, 2, n))
        columns[:, :, ::4] = 0.0
        columns[:, :, 1::5] = -0.0
        yield columns[0, 0], columns[0, 1]
        yield np.ascontiguousarray(columns[:3, 0].T)[:, 1], columns[3, 1]  # a strided column
        for c in range(1, 7):
            values, slopes = columns[:c].transpose(1, 2, 0)
            yield values, slopes
            yield np.ascontiguousarray(values), np.ascontiguousarray(slopes)

    @pytest.mark.parametrize("form", ["scalar", "1-D", "2-D"])
    def test_bits_of_the_node_first_formula(self, form):
        grid, times = self.GRID, self.times()
        assert times.size % 4 == 0
        if form == "scalar":
            cases = [float(t) for t in times]
        else:
            cases = [times if form == "1-D" else times.reshape(4, -1)]
        for values, slopes in self.arrays():
            for t in cases:
                got = ode_module._hermite(grid, values, slopes, t)
                want = reference.hermite_node_first(grid, values, slopes, t)
                assert bits(got) == bits(want)

    def test_the_callers_shapes_and_bits(self):
        solution = reference.solved_example1()
        grid, crisp, weights = solution.grid, solution.crisp, solution.weight_basis
        t = np.array([[0.0, 0.137, 0.5], [0.731, 0.999, 1.0]])
        value = crisp.value(0.137)
        assert type(value) is np.float64
        assert value == reference.hermite_node_first(grid, crisp.values, crisp.slopes, 0.137)
        for times in (t, t[0]):
            assert bits(crisp.value(times)) == bits(
                reference.hermite_node_first(grid, crisp.values, crisp.slopes, times))
            assert bits(weights.weight_at(times)) == bits(reference.hermite_node_first(
                grid, weights.weights, weights.weight_slopes, times))
        assert weights.weight_at(0.137).shape == (2,)
        assert weights.weight_at(t).shape == (2, 3, 2)
        cut = solution.value_at(0.137, 0.5)
        assert type(cut.lo) is float and type(cut.hi) is float and cut.lo <= cut.hi
        at = ode_module._at_points(grid, solution.columns, [0.0, 0.137, 1.0])
        assert bits(at) == bits(reference.hermite_node_first(
            grid, *solution.columns.transpose(1, 2, 0), np.array([0.0, 0.137, 1.0])))
        assert at.shape == (3, 3)


class TestIntegrateIvp:
    def test_free_particle_is_exact(self):
        # RK4 reproduces polynomials of degree <= 3 exactly
        ode = LinearODE.from_strings(2, ["0", "0"], "0")
        grid = TimeGrid(0.0, 1.0, 1001)
        traj = integrate_ivp(ode, [0.0, 1.0], grid)
        # no truncation error; only float accumulation remains
        assert np.max(np.abs(traj.values - grid.nodes())) <= 1e-12

    def test_exponential_growth(self):
        grid = TimeGrid(0.0, 1.0, 1001)
        traj = integrate_ivp(EX1_ODE.homogeneous(), [1.0, 1.0], grid)
        assert traj.value(1.0) == pytest.approx(math.e, abs=1e-10)

    def test_oscillator(self):
        grid = TimeGrid(0.0, 2.0, 2001)
        traj = integrate_ivp(EX2_ODE.homogeneous(), [1.0, 0.0], grid)
        assert traj.value(2.0) == pytest.approx(math.cos(8.0), abs=1e-9)

    def test_blow_up_reports_node(self):
        ode = LinearODE.from_strings(1, ["-1000"], "0")  # x' = 1000 x
        grid = TimeGrid(0.0, 1.0, 1001)
        with pytest.raises(IntegrationError, match="node"):
            integrate_ivp(ode, [1.0], grid)

    @pytest.mark.parametrize("order, num_points, message", [
        (1, 1001, "integration blew up at node 713 (t = 0.713)"),
        (1, 4001, "integration blew up at node 2840 (t = 0.71)"),
        (2, 1001, "integration blew up at node 707 (t = 0.707)"),
    ])
    def test_blow_up_names_the_first_bad_node(self, order, num_points, message):
        # x' = 1000 x and x'' = 1e6 x overflow part way through the interval
        coeffs = ["-1000"] if order == 1 else ["0", "-1e6"]
        ode = LinearODE.from_strings(order, coeffs, "0")
        with pytest.raises(IntegrationError) as info:
            homogeneous_basis(ode, TimeGrid(0.0, 1.0, num_points))
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
    @pytest.mark.parametrize("column, row, node", [(0, 0, 0), (2, 1, 357), (1, 0, 1000)])
    def test_nan_or_negative_overflow_names_its_node(self, monkeypatch, bad, column, row, node):
        # the check reduces the states by min and max, which NaN and -inf pass
        # through as +inf does; the blow-up cases above reach +inf only
        grid = TimeGrid(0.0, 1.0, 1001)
        rows = np.ones((3, 2, grid.num_points))
        rows[column, row, node] = bad
        monkeypatch.setattr(ode_module, "_rk4_scan", lambda ode, grid, initial: rows)
        with pytest.raises(IntegrationError) as info:
            _propagate(EX1_ODE, grid, np.eye(3))
        assert str(info.value) == f"integration blew up at node {node} (t = {node / 1000:g})"

    def test_finite_states_whose_sum_overflows_pass(self):
        # x = e^t reaches ~8e307 at t = 709, below the float range, but the
        # states of 100 001 nodes sum past it
        ode = LinearODE.from_strings(2, ["0", "-1"], "0")
        traj = integrate_ivp(ode, [1.0, 1.0], TimeGrid(0.0, 709.0, 100001))
        assert np.isfinite(traj.states).all()
        with np.errstate(over="ignore"):
            assert np.isinf(traj.states.sum())

    def test_only_the_state_rows_are_checked(self, monkeypatch):
        # for order 1 row 1 holds the slope, which the check leaves alone
        rows = np.ones((2, 2, 11))
        rows[0, 1, 4] = np.nan
        monkeypatch.setattr(ode_module, "_rk4_scan", lambda ode, grid, initial: rows)
        ode = LinearODE.from_strings(1, ["1"], "0")
        assert _propagate(ode, TimeGrid(0.0, 1.0, 11), np.eye(2)) is rows

    @pytest.mark.parametrize("num_points", [1001, 1009])
    def test_domain_error_names_the_first_offending_stage_time(self, num_points):
        # the scan lays the lattice out block by block; the error must still
        # name the earliest stage time, as a time-ordered evaluation would
        ode = LinearODE.from_strings(2, ["0", "sqrt(0.55 - t)"], "0")
        grid = TimeGrid(0.0, 1.0, num_points)
        half = grid.t0 + 0.5 * grid.step * np.arange(2 * grid.num_points - 1)
        first = half[np.flatnonzero(0.55 - half < 0.0)[0]]
        with pytest.raises(EvaluationError, match="sqrt of negative") as info:
            integrate_ivp(ode, [1.0, 0.0], grid)
        assert info.value.t == first

    def test_wrong_state_length_rejected(self):
        with pytest.raises(ValueError, match="2 components"):
            integrate_ivp(EX1_ODE, [1.0], TimeGrid(0.0, 1.0, 11))

    def test_hermite_interpolation_accuracy(self):
        grid = TimeGrid(0.0, 1.0, 101)
        traj = integrate_ivp(EX1_ODE.homogeneous(), [1.0, 1.0], grid)
        # off-node points: interpolation keeps 4th-order accuracy
        for t in (0.0051, 0.4984, 0.9033):
            assert traj.value(t) == pytest.approx(math.exp(t), abs=1e-8)

    def test_value_outside_interval_rejected(self):
        grid = TimeGrid(0.0, 1.0, 11)
        traj = integrate_ivp(EX1_ODE.homogeneous(), [1.0, 1.0], grid)
        with pytest.raises(ValueError, match="outside"):
            traj.value(1.5)

    @pytest.mark.parametrize("num_points", EDGE_POINTS)
    @pytest.mark.parametrize("order", [1, 2, 4, 5])
    def test_step_map_scan_matches_plain_rk4_loop(self, order, num_points):
        ode = VARIABLE_ODES[order]
        grid = TimeGrid(0.0, 2.0, num_points)
        initial = np.linspace(1.0, -0.5, order)
        expected = rk4_loop(ode, initial, grid)
        states = integrate_ivp(ode, initial, grid).states
        assert np.max(np.abs(states - expected)) <= 1e-10 * np.max(np.abs(expected))
        basis = homogeneous_basis(ode, grid)
        for i, traj in enumerate(basis):
            expected = rk4_loop(ode.homogeneous(), np.eye(order)[i], grid)
            assert np.max(np.abs(traj.states - expected)) <= 1e-10 * np.max(np.abs(expected))


class TestFusedScan:
    """One scan of the augmented identity: columns 0..n-1 are the basis,
    column n the particular solution from a zero state."""

    @pytest.mark.parametrize("num_points", EDGE_POINTS)
    @pytest.mark.parametrize("order", [1, 2, 4, 5])
    def test_columns_match_plain_rk4_loops(self, order, num_points):
        ode = VARIABLE_ODES[order]
        grid = TimeGrid(0.0, 2.0, num_points)
        states, slopes = propagate(ode, grid, np.eye(order + 1))
        assert states.shape == (num_points, order, order + 1)
        expected = [rk4_loop(ode.homogeneous(), np.eye(order)[i], grid) for i in range(order)]
        expected.append(rk4_loop(ode, np.zeros(order), grid))
        nodes = grid.nodes()
        for i, exp in enumerate(expected):
            scale = np.max(np.abs(exp))
            assert np.max(np.abs(states[:, :, i] - exp)) <= 1e-10 * scale
            if order == 1:  # x' = -a_1(t) x + f(t) on the particular column only
                forced = np.array([ode.forcing.evaluate(t) for t in nodes]) * (i == order)
                slope = forced - np.array([ode.coeffs[0].evaluate(t) for t in nodes]) * exp[:, 0]
            else:
                slope = exp[:, 1]
            assert np.max(np.abs(slopes[:, i] - slope)) <= 1e-10 * max(scale, 1.0)

    @pytest.mark.parametrize("order", [1, 2, 4, 5])
    def test_basis_columns_ignore_the_forcing_bit_for_bit(self, order):
        ode = VARIABLE_ODES[order]
        grid = TimeGrid(0.0, 2.0, 201)
        fused_states, fused_slopes = propagate(ode, grid, np.eye(order + 1))
        free_states, free_slopes = propagate(ode.homogeneous(), grid, np.eye(order + 1, order))
        assert np.array_equal(fused_states[:, :, :order], free_states)
        assert np.array_equal(fused_slopes[:, :order], free_slopes)

    @pytest.mark.parametrize("name", ["example1", "example2", "order4", "stiff-k18"])
    def test_solve_weights_equal_the_separate_basis_weights(self, name):
        ode, t_end, points = {
            "example1": (EX1_ODE, 1.0, (0.0, 1.0)),
            "example2": (EX2_ODE, 2.0, (0.0, 2.0)),
            "order4": (VARIABLE_ODES[4], 2.0, (0.0, 0.5, 1.5, 2.0)),
            "stiff-k18": (LinearODE.from_strings(2, ["0", "-324"], "0"), 1.0, (0.0, 1.0)),
        }[name]
        grid = TimeGrid(0.0, t_end, 1001)
        conds = tuple((p, TriangularFuzzyNumber(0.5 + i, 1.0 + i, 1.5 + i))
                      for i, p in enumerate(points))
        solution = solve_fuzzy_bvp(FuzzyBVP(ode, conds, grid))
        basis = homogeneous_basis(ode, grid)
        separate = basis_weights(basis, points)
        assert np.array_equal(solution.weight_basis.weights, separate.weights)
        assert np.array_equal(solution.weight_basis.weight_slopes, separate.weight_slopes)
        # the crisp trajectory agrees with a particular solution integrated
        # on its own and corrected by the same basis combination, to rounding
        # (amplified by the boundary matrix's condition ~1e6 for k = 18)
        vertices = [1.0 + i for i in range(len(points))]
        crisp = solve_crisp_bvp(ode, list(zip(points, vertices)), grid)
        assert np.array_equal(solution.crisp.values, crisp.values)
        assert np.array_equal(solution.crisp.slopes, crisp.slopes)
        particular = integrate_ivp(ode, np.zeros(ode.order), grid)
        residual = np.array(vertices) - particular.value(points)
        coefficients = np.linalg.solve(boundary_matrix(basis, points), residual)
        states = particular.states + sum(c * b.states for c, b in zip(coefficients, basis))
        slopes = particular.slopes + sum(c * b.slopes for c, b in zip(coefficients, basis))
        scale = np.max(np.abs(states))
        tol = 2e-9 if name == "stiff-k18" else 1e-13
        assert np.max(np.abs(crisp.states - states)) <= tol * scale
        assert np.max(np.abs(crisp.slopes - slopes)) <= tol * scale

    @pytest.mark.parametrize("num_points", [1001, 100001])
    def test_example1_exponentials_within_rk4_bound(self, num_points):
        # e^t and e^2t from one scan.  RK4's global relative error for
        # x' = lam x on [0, 1] is about lam^5 h^4 / 120 <= 0.27 h^4; rounding
        # over 1e5 steps adds some 3e-13.
        grid = TimeGrid(0.0, 1.0, num_points)
        initial = np.array([[1.0, 1.0], [1.0, 2.0], [0.0, 0.0]])
        states, _ = propagate(EX1_ODE.homogeneous(), grid, initial)
        t = grid.nodes()
        tol = 0.5 * grid.step ** 4 + 1e-12
        for col, lam in enumerate((1.0, 2.0)):
            exact = np.exp(lam * t)
            assert np.max(np.abs(states[:, 0, col] / exact - 1.0)) <= tol
            assert np.max(np.abs(states[:, 1, col] / (lam * exact) - 1.0)) <= tol

    def test_memory_stays_a_small_multiple_of_the_states(self):
        # the coefficient lattice, the in-block states (kept where the node
        # states go) and expression temporaries: about 2.1x the output
        grid = TimeGrid(0.0, 1.0, 100001)
        tracemalloc.start()
        try:
            states, _ = propagate(EX1_ODE, grid, np.eye(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * states.nbytes

    @pytest.mark.parametrize("order", [1, 2])
    def test_block_maps_free_their_lattice(self, order):
        # the coefficient lattice is about the size of the node rows; it must
        # be gone when the block maps return, before the node rows are allocated
        ode = VARIABLE_ODES[order]
        grid = TimeGrid(0.0, 2.0, 100001)
        tracemalloc.start()
        try:
            local = ode_module._block_maps(ode, grid)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current <= 1.01 * local.nbytes

    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5, "stiff-k18"])
    def test_crisp_row_is_the_particular_plus_the_basis_combination(self, case):
        # the crisp row is p + c_1 b_1 + ... + c_n b_n summed left to right in
        # every row and order: the bits of that sum in Python floats, and
        # within (n + 1) eps (|p| + sum |c_j b_j|) of its exact value, the
        # bound of a sequential dot product (Higham 2002, section 3.1)
        if case == "stiff-k18":  # x'' = 18^2 x, points 0 and 1
            order, ode = 2, LinearODE.from_strings(2, ["0", "-324"], "0")
            grid, points = TimeGrid(0.0, 1.0, 1001), np.array([0.0, 1.0])
        else:
            order, ode, grid = case, VARIABLE_ODES.get(case) or ORDER3_ODE, TimeGrid(0.0, 2.0, 1001)
            points = np.linspace(0.0, 2.0, order) if order > 1 else np.array([0.7])
        values = np.arange(1.0, order + 1.0)
        rows = _propagate(ode, grid, np.eye(order + 1))  # before the correction
        at_points = ode_module._hermite(grid, rows[:, 0].T, rows[:, 1].T, points)
        coefficients = np.linalg.solve(at_points[:, :order], values - at_points[:, order]).tolist()
        scanned, solved, _ = ode_module._scan(ode, grid, points, values)
        assert solved.tolist() == coefficients
        crisp = ode_module.combine(scanned, solved)[order]
        eps = Fraction(np.finfo(float).eps)
        for row in range(rows.shape[1]):
            for node in np.linspace(0, grid.num_points - 1, 11).astype(int).tolist():
                column = rows[:, row, node].tolist()
                p, basis = column[order], column[:order]
                total = p
                for c, b in zip(coefficients, basis):
                    total += c * b
                assert crisp[row, node] == total, (row, node)
                terms = [Fraction(c) * Fraction(b) for c, b in zip(coefficients, basis)]
                exact = Fraction(p) + sum(terms)
                bound = (order + 1) * eps * (abs(Fraction(p)) + sum(map(abs, terms)))
                assert abs(Fraction(float(crisp[row, node])) - exact) <= bound
        trajectory = solve_crisp_bvp(ode, list(zip(points, values)), grid)
        assert np.array_equal(trajectory.states, crisp[:order].T)
        assert np.array_equal(trajectory.slopes, crisp[1])

    def test_one_scan_per_solve(self, monkeypatch):
        calls = []
        scan = ode_module._rk4_scan

        def counting(*args):
            calls.append(1)
            return scan(*args)

        monkeypatch.setattr(ode_module, "_rk4_scan", counting)
        grid = TimeGrid(0.0, 1.0, 101)
        conds = ((0.0, TriangularFuzzyNumber(1.5, 2.0, 3.0)),
                 (1.0, TriangularFuzzyNumber(2.0, 3.0, 4.0)))
        solve_fuzzy_bvp(FuzzyBVP(EX1_ODE, conds, grid))
        assert len(calls) == 1
        solve_crisp_bvp(EX1_ODE, [(0.0, 2.0), (1.0, 3.0)], grid)
        assert len(calls) == 2

    def test_one_combination_per_solve(self, monkeypatch):
        # the crisp correction is one call of ``combine``, looked up by the
        # solving module's own name: the fuzzy solve's under ``solver``
        calls = []
        combine = ode_module.combine

        def counting(rows, coefficients):
            calls.append(rows.shape)
            return combine(rows, coefficients)

        monkeypatch.setattr(solver_module, "combine", counting)
        monkeypatch.setattr(ode_module, "combine", counting)
        grid = TimeGrid(0.0, 1.0, 101)
        conds = tuple((t, TriangularFuzzyNumber(v - 0.5, v, v + 0.5))
                      for t, v in zip((0.0, 0.5, 1.0), (1.0, 2.0, 3.0)))
        solve_fuzzy_bvp(FuzzyBVP(ORDER3_ODE, conds, grid))
        assert calls == [(4, 2, 101)]  # only the values and slopes are corrected
        solve_crisp_bvp(ORDER3_ODE, [(t, u.peak) for t, u in conds], grid)
        assert calls == [(4, 2, 101), (4, 3, 101)]  # every state row

    @pytest.mark.parametrize("num_points", CARRY_POINTS)
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_log_depth_carry_matches_the_sequential_carry(self, order, num_points):
        # the prefix product of the block maps reassociates the sequential
        # carry's products: every node row agrees to a few eps times the
        # column's largest entry (16 eps at most, order 4 on 1 001 nodes)
        ode = VARIABLE_ODES.get(order) or ORDER3_ODE
        grid = TimeGrid(0.0, 2.0, num_points)
        initial = np.eye(order + 1)
        rows = ode_module._rk4_scan(ode, grid, initial)
        expected = reference.rk4_scan_sequential(ode, grid, initial)
        assert rows.shape == expected.shape == (order + 1, max(order, 2), num_points)
        scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
        assert (np.abs(rows - expected) <= 32 * np.finfo(float).eps * scale).all()

    def test_one_boundary_matrix_per_solve(self, monkeypatch):
        # the boundary rows of the basis and the particular column, then the
        # unit-property check on the weights: the weight solve reuses the
        # matrix that the crisp solve checked
        hermite, check = ode_module._hermite, ode_module.require_invertible
        columns, checks = [], []

        def counting_hermite(grid, values, slopes, t):
            columns.append(values.shape[-1])
            return hermite(grid, values, slopes, t)

        def counting_check(mat, length):
            checks.append(mat.copy())
            return check(mat, length)

        monkeypatch.setattr(ode_module, "_hermite", counting_hermite)
        monkeypatch.setattr(ode_module, "require_invertible", counting_check)
        points = (0.0, 0.5, 1.5, 2.0)
        conds = tuple((p, TriangularFuzzyNumber(i - 0.5, i, i + 0.5)) for i, p in enumerate(points))
        grid = TimeGrid(0.0, 2.0, 1001)
        solution = solve_fuzzy_bvp(FuzzyBVP(VARIABLE_ODES[4], conds, grid))
        assert columns == [5, 4] and len(checks) == 1
        basis = homogeneous_basis(VARIABLE_ODES[4], grid)
        assert np.array_equal(checks[0], boundary_matrix(basis, points))
        # a direct call evaluates and checks the matrix itself, to the same weights
        columns.clear()
        separate = basis_weights(basis, points)
        assert columns == [4, 4] and len(checks) == 2
        assert np.array_equal(checks[1], checks[0])
        assert np.array_equal(separate.weights, solution.weight_basis.weights)


# constant coefficients and a forcing in t, by order; written "0*t + (c)", the
# same coefficients take the scan's general path, with the same values
CONSTANT_COEFFS = {1: ["0.7"], 2: ["-3", "2"], 3: ["1.5", "-2", "0.5"],
                   4: ["0.3", "1", "-0.2", "2"], 5: ["0.1", "1", "0.7", "-2", "0.25"]}


def with_zero_t(ode):
    """``ode`` with every coefficient c written 0*t + (c): the general path."""
    coeffs = tuple(parse(f"0*t + ({c.to_text()})") for c in ode.coeffs)
    return LinearODE(ode.order, coeffs, ode.forcing)


class TestConstantCoefficients:
    """Coefficients without t take ``_constant_maps``: the homogeneous maps of
    one block, shared by all blocks, and the forcing columns stepped in
    increment form.  Only the particular column's rounding moves."""

    @pytest.mark.parametrize("num_points", CARRY_POINTS + [2001, 4001, 20001])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_rows_match_the_general_path(self, order, num_points):
        # the basis keeps the stage arithmetic: its bits wherever the blocks
        # have more than one step, as at 1 001 to 4 001 nodes, and a few eps
        # on one-step blocks, whose product is a vector product (1.6 eps at
        # most); the particular column moves by a few eps (3.5 at most)
        ode = LinearODE.from_strings(order, CONSTANT_COEFFS[order], "t^3 - sqrt(1 + t)")
        grid = TimeGrid(0.0, 2.0, num_points)
        initial = np.eye(order + 1)
        rows = ode_module._rk4_scan(ode, grid, initial)
        expected = ode_module._rk4_scan(with_zero_t(ode), grid, initial)
        assert rows.shape == expected.shape == (order + 1, max(order, 2), num_points)
        eps = np.finfo(float).eps
        if num_points in (1001, 2001, 4001):
            assert np.array_equal(rows[:order], expected[:order])
        scale = np.abs(expected[:order]).max(axis=(1, 2), keepdims=True)
        assert (np.abs(rows[:order] - expected[:order]) <= 4 * eps * scale).all()
        scale = np.abs(expected[order]).max()
        assert np.abs(rows[order] - expected[order]).max() <= 32 * eps * scale
        if order == 1:  # the slope row is x' = -a_1 x + z f at the node values, on both paths
            f = ode.forcing.evaluate(grid.nodes())
            assert np.array_equal(rows[:, 1], -0.7 * rows[:, 0] + np.outer(initial[1], f))
            assert np.array_equal(expected[:, 1], -0.7 * expected[:, 0] + np.outer(initial[1], f))

    @pytest.mark.parametrize("num_points", [1001, 2001, 4001, 100001])
    @pytest.mark.parametrize("example", [1, 2])
    def test_examples_keep_their_weights(self, example, num_points):
        # the weights keep every bit; the crisp column moves by up to 16.3 eps
        # of its largest entry and the bands by up to 6.9
        problem = (reference.make_example1 if example == 1 else reference.make_example2)(num_points)
        general = FuzzyBVP(with_zero_t(problem.ode), problem.conditions, problem.grid)
        solution, expected = solve_fuzzy_bvp(problem), solve_fuzzy_bvp(general)
        assert np.array_equal(solution.columns[:-1], expected.columns[:-1])
        eps = np.finfo(float).eps
        crisp, want = solution.columns[-1], expected.columns[-1]
        assert np.abs(crisp - want).max() <= 32 * eps * np.abs(want).max()
        band, want = solution.band([0.0, 0.5, 1.0]), expected.band([0.0, 0.5, 1.0])
        for got, exp in ((band.lower, want.lower), (band.upper, want.upper)):
            assert np.abs(got - exp).max() <= 16 * eps * np.abs(exp).max()

    @pytest.mark.parametrize("coeffs", [["-3", "2"], ["0*t - 3", "2"]])
    def test_node_rows_hold_exactly_the_nodes(self, coeffs):
        # 1 000 steps make 143 blocks of 7, one step past the grid; the rows
        # are allocated for the 1 001 nodes alone, so a solve of order 2 keeps
        # them without a copy
        ode = LinearODE.from_strings(2, coeffs, "4*t - 6")
        rows = ode_module._rk4_scan(ode, TimeGrid(0.0, 1.0, 1001), np.eye(3))
        assert rows.shape == (3, 2, 1001)
        assert rows.flags.c_contiguous and rows.base is None

    def test_a_failing_constant_coefficient_names_t0(self):
        ode = LinearODE.from_strings(2, ["1", "1/0"], "t")
        with pytest.raises(EvaluationError, match="division by zero") as info:
            integrate_ivp(ode, [1.0, 0.0], TimeGrid(0.5, 2.0, 1001))
        assert info.value.t == 0.5

    @pytest.mark.parametrize("num_points", [1001, 1009])
    def test_a_failing_forcing_names_its_first_stage_time(self, num_points):
        ode = LinearODE.from_strings(2, ["0", "1"], "sqrt(0.55 - t)")
        grid = TimeGrid(0.0, 1.0, num_points)
        half = grid.t0 + 0.5 * grid.step * np.arange(2 * grid.num_points - 1)
        first = half[np.flatnonzero(0.55 - half < 0.0)[0]]
        with pytest.raises(EvaluationError, match="sqrt of negative") as info:
            integrate_ivp(ode, [1.0, 0.0], grid)
        assert info.value.t == first


class TestHomogeneousBasis:
    def test_example1_closed_forms(self):
        basis = homogeneous_basis(EX1_ODE, TimeGrid(0.0, 1.0, 1001))
        for t in np.linspace(0.0, 1.0, 21):
            assert basis[0].value(t) == pytest.approx(reference.ex1_basis1(t), abs=1e-9)
            assert basis[1].value(t) == pytest.approx(reference.ex1_basis2(t), abs=1e-9)

    def test_example2_closed_forms(self):
        basis = homogeneous_basis(EX2_ODE, TimeGrid(0.0, 2.0, 2001))
        for t in np.linspace(0.0, 2.0, 21):
            assert basis[0].value(t) == pytest.approx(math.cos(4 * t), abs=1e-9)
            assert basis[1].value(t) == pytest.approx(math.sin(4 * t) / 4.0, abs=1e-9)

    def test_first_order_basis(self):
        ode = LinearODE.from_strings(1, ["1"], "0")  # x' + x = 0
        basis = homogeneous_basis(ode, TimeGrid(0.0, 1.0, 1001))
        assert len(basis) == 1
        assert basis[0].value(1.0) == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_unit_wronskian_at_start(self):
        basis = homogeneous_basis(EX1_ODE, TimeGrid(0.0, 1.0, 101))
        initial = np.column_stack([traj.states[0] for traj in basis])
        assert np.linalg.det(initial) == pytest.approx(1.0, abs=1e-14)

    def test_forcing_is_ignored(self):
        # basis depends only on the homogeneous part
        forced = homogeneous_basis(EX1_ODE, TimeGrid(0.0, 1.0, 101))
        free = homogeneous_basis(EX1_ODE.homogeneous(), TimeGrid(0.0, 1.0, 101))
        for a, b in zip(forced, free):
            assert np.array_equal(a.states, b.states)


class TestBoundaryMatrix:
    def test_example1_matrix(self):
        grid = TimeGrid(0.0, 1.0, 1001)
        basis = (analytic_trajectory(grid, math.exp, math.exp),
                 analytic_trajectory(grid, lambda t: math.exp(2 * t),
                                     lambda t: 2 * math.exp(2 * t)))
        mat = boundary_matrix(basis, [0.0, 1.0])
        expected = np.array([[1.0, 1.0], [math.e, math.e**2]])
        assert np.allclose(mat, expected, atol=1e-12)

    def test_example2_matrix(self):
        grid = TimeGrid(0.0, 2.0, 2001)
        basis = (analytic_trajectory(grid, lambda t: math.cos(4 * t),
                                     lambda t: -4 * math.sin(4 * t)),
                 analytic_trajectory(grid, lambda t: math.sin(4 * t),
                                     lambda t: 4 * math.cos(4 * t)))
        mat = boundary_matrix(basis, [0.0, 2.0])
        expected = np.array([[1.0, 0.0], [math.cos(8.0), math.sin(8.0)]])
        assert np.allclose(mat, expected, atol=1e-12)

    def test_canonical_basis_rows_at_start(self):
        basis = homogeneous_basis(EX1_ODE, TimeGrid(0.0, 1.0, 101))
        mat = boundary_matrix(basis, [0.0, 0.0])
        # every row at t0 is the canonical value row (1, 0); the identity
        # shows up in the state matrix (see the Wronskian test)
        assert np.allclose(mat, [[1.0, 0.0], [1.0, 0.0]], atol=1e-15)

    def test_point_outside_interval_rejected(self):
        basis = homogeneous_basis(EX1_ODE, TimeGrid(0.0, 1.0, 101))
        with pytest.raises(ValueError, match="outside"):
            boundary_matrix(basis, [0.0, 2.0])


class TestWeightFunctions:
    def test_example1_closed_form(self):
        basis = homogeneous_basis(EX1_ODE, TimeGrid(0.0, 1.0, 1001))
        wb = basis_weights(basis, [0.0, 1.0])
        w = wb.weight_at(0.5)
        assert w[0] == pytest.approx(reference.ex1_w1(0.5), abs=1e-9)
        assert w[1] == pytest.approx(reference.ex1_w2(0.5), abs=1e-9)

    def test_example2_closed_form(self):
        basis = homogeneous_basis(EX2_ODE, TimeGrid(0.0, 2.0, 1001))
        wb = basis_weights(basis, [0.0, 2.0])
        w = wb.weight_at(1.0)
        assert w[0] == pytest.approx(reference.ex2_w1(1.0), abs=1e-9)
        assert w[1] == pytest.approx(reference.ex2_w2(1.0), abs=1e-9)
        # both weights collapse to sin(4)/sin(8) at t = 1
        assert w[0] == pytest.approx(w[1], abs=1e-9)

    def test_kronecker_property(self):
        for ode, t_end in ((EX1_ODE, 1.0), (EX2_ODE, 2.0)):
            basis = homogeneous_basis(ode, TimeGrid(0.0, t_end, 1001))
            wb = basis_weights(basis, [0.0, t_end])
            for j, p in enumerate(wb.boundary_points):
                unit = np.zeros(2)
                unit[j] = 1.0
                assert np.max(np.abs(wb.weight_at(p) - unit)) <= 1e-9

    def test_interior_boundary_points_accepted(self):
        # points need not be the interval ends
        basis = homogeneous_basis(EX1_ODE, TimeGrid(0.0, 1.0, 1001))
        wb = basis_weights(basis, [0.25, 0.75])
        assert np.max(np.abs(wb.weight_at(0.25) - [1.0, 0.0])) <= 1e-9

    def test_weights_overwrite_the_basis_block_in_any_layout(self):
        # the solve runs on the rows of the block in place and the weights
        # view it; a block that is not C-contiguous gives the same bits
        grid = TimeGrid(0.0, 1.0, 1001)
        basis = homogeneous_basis(EX1_ODE, grid)
        block = np.array([[b.values, b.slopes] for b in basis])
        strided = np.array([[b.values for b in basis], [b.slopes for b in basis]]).transpose(1, 0, 2)
        assert not strided.flags.c_contiguous
        wb = weight_functions(grid, block, [0.0, 1.0])
        assert np.shares_memory(wb.weights, block) and np.shares_memory(wb.weight_slopes, block)
        assert not block.flags.writeable
        assert np.array_equal(block[:, 0].T, wb.weights)
        other = weight_functions(grid, strided, [0.0, 1.0])
        assert np.array_equal(other.weights, wb.weights)
        assert np.array_equal(other.weight_slopes, wb.weight_slopes)

    def test_resonant_problem_detected_as_singular(self):
        ode = LinearODE.from_strings(2, ["0", "pi^2"], "0")
        basis = homogeneous_basis(ode, TimeGrid(0.0, 1.0, 1001))
        mat = boundary_matrix(basis, [0.0, 1.0])
        # direct determinant: sin(pi)/pi-type entry vanishes
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        assert abs(det) < 1e-12 * np.abs(mat).sum(axis=1).max() ** 2
        with pytest.raises(NonUniqueCrispSolution):
            basis_weights(basis, [0.0, 1.0])

    @pytest.mark.parametrize("k", [18, 19, 20])
    def test_stiff_weights_match_sinh_closed_forms(self, k):
        ode = LinearODE.from_strings(2, ["0", f"-{k * k}"], "0")
        grid = TimeGrid(0.0, 1.0, 1001)
        wb = basis_weights(homogeneous_basis(ode, grid), [0.0, 1.0])
        t = grid.nodes()
        assert np.max(np.abs(wb.weights[:, 0] - np.sinh(k * (1 - t)) / np.sinh(k))) <= 1e-6
        assert np.max(np.abs(wb.weights[:, 1] - np.sinh(k * t) / np.sinh(k))) <= 1e-6
        assert np.max(np.abs(wb.weight_at(np.array([0.0, 1.0])) - np.eye(2))) <= KRONECKER_TOL

    def test_unit_property_failure_is_a_documented_error(self):
        # x'' = 1156 x with points 0 and 0.7003: the off-grid point's boundary
        # row mixes two nodes, so the weights meet the unit property there
        # only to eps * cond(B), some 2e-6
        ode = LinearODE.from_strings(2, ["0", "-1156"], "0")
        basis = homogeneous_basis(ode, TimeGrid(0.0, 1.0, 1001))
        with pytest.raises(UnitPropertyError, match="unit property at boundary point"):
            basis_weights(basis, [0.0, 0.7003])

    @pytest.mark.parametrize("num_points", [1001, 2001, 4001])
    def test_point_within_rounding_of_a_node_is_that_node(self, num_points):
        # 0.7 lies one float spacing below the node 0.7000000000000001; it is
        # evaluated at that node, so the weights meet the unit property exactly
        ode = LinearODE.from_strings(2, ["0", "-1156"], "0")
        basis = homogeneous_basis(ode, TimeGrid(0.0, 1.0, num_points))
        wb = basis_weights(basis, [0.0, 0.7])
        assert np.array_equal(wb.weight_at(0.7), [0.0, 1.0])
        assert np.array_equal(wb.weight_at(0.0), [1.0, 0.0])

    @pytest.mark.parametrize("num_points", [1001, 2001, 4001])
    @pytest.mark.parametrize("points, ks", [((0.0, 1.0), range(10, 26)),
                                            ((0.3, 1.0), range(10, 20))],
                             ids=["points 0 and 1", "points 0.3 and 1"])
    def test_stiff_weights_solve_and_match_sinh_closed_forms(self, points, ks, num_points):
        # x'' = k^2 x: weight 0 is sinh(k (q - t)) / sinh(k (q - p)) and
        # weight 1 is sinh(k (t - p)) / sinh(k (q - p)) for points p, q
        p, q = points
        grid = TimeGrid(0.0, 1.0, num_points)
        t = grid.nodes()
        for k in ks:
            ode = LinearODE.from_strings(2, ["0", f"-{k * k}"], "0")
            wb = basis_weights(homogeneous_basis(ode, grid), points)
            exact = np.column_stack([np.sinh(k * (q - t)), np.sinh(k * (t - p))])
            assert np.max(np.abs(wb.weights - exact / np.sinh(k * (q - p)))) <= 5e-5, k

    @pytest.mark.parametrize("num_points", [1001, 2001, 4001])
    @pytest.mark.parametrize("q, tol", [(1.0, 5e-6), (0.7003, 1e-7)],
                             ids=["points 0 and 1", "points 0 and 0.7003"])
    def test_stiff_fuzzy_solves_match_sinh_closed_forms(self, q, tol, num_points):
        # x'' = k^2 x for k = 10..23, the whole solve: weights
        # sinh(k (q - t)) / sinh(k q) and sinh(k t) / sinh(k q), and the crisp
        # solution with vertices 1 and 2, relative to their largest values.
        # Rounding in the boundary system dominates near k = 23.  The worst
        # errors read 9.7e-7 (crisp) and 1.9e-6 (weights) for points 0 and 1,
        # 1.5e-8 for both with 0 and 0.7003; with the sequential carry they
        # read 8.6e-7, 1.9e-6 and 1.6e-8, 1.5e-8
        grid = TimeGrid(0.0, 1.0, num_points)
        t = grid.nodes()
        conds = ((0.0, TriangularFuzzyNumber(0.5, 1.0, 1.5)),
                 (q, TriangularFuzzyNumber(1.5, 2.0, 2.5)))
        for k in range(10, 24):
            ode = LinearODE.from_strings(2, ["0", f"-{k * k}"], "0")
            solution = solve_fuzzy_bvp(FuzzyBVP(ode, conds, grid))
            weights = np.column_stack([np.sinh(k * (q - t)), np.sinh(k * t)]) / np.sinh(k * q)
            crisp = weights @ [1.0, 2.0]
            got = solution.weight_basis.weights
            assert np.abs(got - weights).max() <= tol * np.abs(weights).max(), k
            assert np.abs(solution.crisp.values - crisp).max() <= tol * np.abs(crisp).max(), k


def test_singularity_verdict_matches_the_unscaled_formula_and_never_overflows():
    # random matrices, half of them near-singular (one row a combination of
    # the others plus a relative 10^-18 .. 10^-6 perturbation), over 600
    # decades of scale and interval lengths from 1e-3 to 1e3: wherever the
    # unscaled formula stays in the float range it gives the same verdict,
    # and every matrix gets one, with no overflow warning
    rng = np.random.default_rng(20261019)
    compared = overflowed = singular = 0
    for _ in range(4000):
        n = int(rng.integers(1, 6))
        mat = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        if n > 1 and rng.random() < 0.5:
            mat[-1] = rng.standard_normal(n - 1) @ mat[:-1]
            mat[-1] += 10.0 ** rng.uniform(-18, -6) * np.abs(mat[-1]).max() * rng.standard_normal(n)
        mat *= 10.0 ** rng.uniform(-300, 300)
        length = 10.0 ** rng.uniform(-3, 3)
        try:
            ode_module.require_invertible(mat, length)
            verdict = False
        except NonUniqueCrispSolution:
            verdict = True
        expected = reference.singular_unscaled(mat, length)
        if expected is None:
            overflowed += 1
            continue
        assert verdict == expected, (mat, length)
        compared += 1
        singular += verdict
    assert compared > 1000 and overflowed > 100 and 100 < singular < compared - 100


def test_singularity_verdict_scales_out_any_length_without_overflow():
    # a basis column j over a length L grows like L^j, so B = V diag(L^j) has
    # the verdict of V on a unit length, for L from 1e-120 to 1e70, where
    # L^-j passes the float range: V well conditioned or with one row a
    # combination of the others plus a relative 1e-18 .. 1e-15 perturbation.
    # Where an entry of B underflows only a verdict is asked for.
    rng = np.random.default_rng(20261020)
    compared = singular = 0
    for _ in range(2000):
        n = int(rng.integers(2, 6))
        base = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        dependent = rng.random() < 0.5
        if dependent:
            base[-1] = rng.standard_normal(n - 1) @ base[:-1]
            noise = 10.0 ** rng.uniform(-18, -15) * np.abs(base[-1]).max()
            base[-1] += noise * rng.standard_normal(n)
        length = 10.0 ** rng.uniform(-120, 70)
        with np.errstate(under="ignore"):
            mat = base * length ** np.arange(n)
        try:
            ode_module.require_invertible(mat, length)
            verdict = False
        except NonUniqueCrispSolution:
            verdict = True
        if not (np.finfo(float).tiny <= np.abs(mat)).all():
            continue
        assert verdict == dependent, (base, length)
        compared += 1
        singular += verdict
    assert compared > 500 and 100 < singular < compared - 100


@st.composite
def pivoting_systems(draw):
    """A nonsingular (n, n) matrix whose large entries sit off the diagonal,
    so that partial pivoting has to swap rows, with columns scaled over 12
    decades, and an (n, m) right-hand side."""
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(n)).filter(lambda p: n == 1 or p[0] != 0))
    small = draw(hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    mat = small + 2.0 * n * np.eye(n)[list(perm)]
    mat *= 10.0 ** np.array(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    m = draw(st.integers(1, 4))
    rhs = draw(hnp.arrays(float, (n, m), elements=st.floats(-1e3, 1e3)))
    return mat, rhs


@given(pivoting_systems())
def test_dividing_elimination_agrees_with_lapack(system):
    mat, rhs = system
    expected = np.linalg.solve(mat, rhs)
    tol = 8 * len(mat) * np.finfo(float).eps * np.linalg.cond(mat) * np.abs(expected).max()
    assert np.max(np.abs(_solve_dividing(mat, rhs.copy()) - expected)) <= tol + 1e-300


@given(pivoting_systems())
def test_dividing_elimination_returns_the_identity_for_its_own_columns(system):
    # each pivot row is divided by its pivot, so column j of the matrix
    # reduces to e_j without rounding: the unit property at on-grid points
    mat, _ = system
    assert np.array_equal(_solve_dividing(mat, mat.copy()), np.eye(len(mat)))


class TestSolveCrispBvp:
    def test_example2_quadratic_solution(self):
        grid = TimeGrid(0.0, 2.0, 1001)
        traj = solve_crisp_bvp(EX2_ODE, [(0.0, 3.0), (2.0, 1.0)], grid)
        nodes = grid.nodes()
        sup = np.max(np.abs(traj.values - (3.0 - 0.5 * nodes**2)))
        assert sup <= 1e-8

    def test_example1_midpoint_value(self):
        grid = TimeGrid(0.0, 1.0, 1001)
        traj = solve_crisp_bvp(EX1_ODE, [(0.0, 2.0), (1.0, 3.0)], grid)
        assert traj.value(0.5) == pytest.approx(reference.ex1_crisp(0.5), abs=1e-7)

    def test_straight_line_is_exact(self):
        ode = LinearODE.from_strings(2, ["0", "0"], "0")
        grid = TimeGrid(0.0, 1.0, 101)
        traj = solve_crisp_bvp(ode, [(0.0, 0.0), (1.0, 1.0)], grid)
        assert np.max(np.abs(traj.values - grid.nodes())) <= 1e-12

    def test_boundary_given_as_an_iterator(self):
        grid = TimeGrid(0.0, 1.0, 101)
        listed = solve_crisp_bvp(EX1_ODE, [(0.0, 2.0), (1.0, 3.0)], grid)
        streamed = solve_crisp_bvp(EX1_ODE, iter([(0.0, 2.0), (1.0, 3.0)]), grid)
        assert np.array_equal(streamed.states, listed.states)

    def test_line_far_from_zero_ends_on_its_boundary_value(self):
        # h = 1e-14 is about 11 float spacings at 5: a time placed in its
        # step from the rounded node t0 + i h lands off by a share of h
        ode = LinearODE.from_strings(2, ["0", "0"], "0")
        grid = TimeGrid(5.0, 5.0 + 1e-11, 1001)
        traj = solve_crisp_bvp(ode, [(5.0, 1.0), (grid.t_end, 2.0)], grid)
        assert traj.values[-1] == 2.0 and traj.value(grid.t_end) == 2.0

    def test_boundary_values_hit_exactly(self):
        grid = TimeGrid(0.0, 1.0, 1001)
        traj = solve_crisp_bvp(EX1_ODE, [(0.0, 2.0), (1.0, 3.0)], grid)
        assert traj.value(0.0) == pytest.approx(2.0, abs=1e-12)
        assert traj.value(1.0) == pytest.approx(3.0, abs=1e-12)

    def test_superposition(self):
        grid = TimeGrid(0.0, 1.0, 501)
        u = [(0.0, 2.0), (1.0, 3.0)]
        v = [(0.0, -1.0), (1.0, 0.5)]
        uv = [(0.0, 1.0), (1.0, 3.5)]
        zero = [(0.0, 0.0), (1.0, 0.0)]
        s = {key: solve_crisp_bvp(EX1_ODE, bc, grid).values
             for key, bc in (("u", u), ("v", v), ("uv", uv), ("0", zero))}
        assert np.max(np.abs(s["uv"] - (s["u"] + s["v"] - s["0"]))) <= 1e-9

    def test_three_point_third_order_problem(self):
        # x''' = 0 with three point values picks out the parabola t^2
        ode = LinearODE.from_strings(3, ["0", "0", "0"], "0")
        grid = TimeGrid(0.0, 1.0, 1001)
        traj = solve_crisp_bvp(ode, [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)], grid)
        nodes = grid.nodes()
        assert np.max(np.abs(traj.values - nodes**2)) <= 1e-12

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            solve_crisp_bvp(EX1_ODE, [(0.0, 2.0), (0.0, 3.0)], TimeGrid(0.0, 1.0, 101))

    def test_condition_count_must_match_order(self):
        with pytest.raises(ValueError, match="expected 2"):
            solve_crisp_bvp(EX1_ODE, [(0.0, 2.0)], TimeGrid(0.0, 1.0, 101))

    def test_resonant_problem_raises(self):
        ode = LinearODE.from_strings(2, ["0", "pi^2"], "0")
        with pytest.raises(NonUniqueCrispSolution):
            solve_crisp_bvp(ode, [(0.0, 1.0), (1.0, 1.0)], TimeGrid(0.0, 1.0, 1001))


def residual_sup(ode, traj):
    """ODE residual from finite differences of the stored states (order 2)."""
    nodes = traj.grid.nodes()
    h = traj.grid.step
    x = traj.states[:, 0]
    xp = traj.states[:, 1]
    xpp = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (h * h)
    a1 = np.array([ode.coeffs[0].evaluate(float(t)) for t in nodes[1:-1]])
    a2 = np.array([ode.coeffs[1].evaluate(float(t)) for t in nodes[1:-1]])
    force = np.array([ode.forcing.evaluate(float(t)) for t in nodes[1:-1]])
    return float(np.max(np.abs(xpp + a1 * xp[1:-1] + a2 * x[1:-1] - force)))


class TestNumericalQuality:
    def test_residual_of_crisp_solutions(self):
        grid1 = TimeGrid(0.0, 1.0, 1001)
        traj1 = solve_crisp_bvp(EX1_ODE, [(0.0, 2.0), (1.0, 3.0)], grid1)
        assert residual_sup(EX1_ODE, traj1) <= 1e-5
        grid2 = TimeGrid(0.0, 2.0, 1001)
        traj2 = solve_crisp_bvp(EX2_ODE, [(0.0, 3.0), (2.0, 1.0)], grid2)
        assert residual_sup(EX2_ODE, traj2) <= 1e-5

    def test_rk4_is_fourth_order(self):
        def sup_error(steps):
            grid = TimeGrid(0.0, 1.0, steps + 1)
            traj = integrate_ivp(EX1_ODE.homogeneous(), [1.0, 0.0], grid)
            nodes = grid.nodes()
            closed = 2.0 * np.exp(nodes) - np.exp(2.0 * nodes)
            return np.max(np.abs(traj.values - closed))

        ratio = sup_error(40) / sup_error(80)
        assert 12.0 <= ratio <= 20.0


class TestIntervalLength:
    """The singularity test gives the same verdict on any interval length."""

    @pytest.mark.parametrize("order, length", [
        (2, 1e-12), (2, 1e-6), (2, 1.0), (2, 1e4),
        (4, 1e-4), (4, 1.0), (4, 100.0), (4, 1e3),
    ])
    def test_straight_line_solves_on_any_length(self, order, length):
        # x^(n) = 0 through n equally spaced points of the line 1 + t / L;
        # a determinant test on the unscaled columns calls L = 1e-12
        # (order 2) and L = 1e-4 and 1e3 (order 4) singular
        ode = LinearODE.from_strings(order, ["0"] * order, "0")
        points = [length * k / (order - 1) for k in range(order)]
        conditions = [(p, TriangularFuzzyNumber(0.5 + p / length, 1 + p / length,
                                                1.5 + p / length)) for p in points]
        grid = TimeGrid(0.0, length, 1001)
        solution = solve_fuzzy_bvp(FuzzyBVP(ode, conditions, grid))
        assert np.max(np.abs(solution.crisp.values - (1 + grid.nodes() / length))) <= 2e-15

    @pytest.mark.parametrize("length", [1e-3, 1.0, 100.0])
    def test_resonance_is_singular_on_any_length(self, length):
        # x'' + (pi/L)^2 x = 0 with points 0 and L: sin vanishes at both
        ode = LinearODE.from_strings(2, ["0", f"(pi/{length!r})^2"], "0")
        basis = homogeneous_basis(ode, TimeGrid(0.0, length, 1001))
        with pytest.raises(NonUniqueCrispSolution, match="numerically singular"):
            basis_weights(basis, [0.0, length])
        with pytest.raises(NonUniqueCrispSolution, match="numerically singular"):
            solve_crisp_bvp(ode, [(0.0, 1.0), (length, 1.0)], TimeGrid(0.0, length, 1001))

    def test_grid_finer_than_float_resolution_rejected(self):
        # h/2 = 5e-16 lies below the float spacing at 5 (8.9e-16)
        with pytest.raises(ValueError, match=r"half a step must exceed the float spacing "
                                             r"8\.88e-16 at the ends"):
            TimeGrid(5.0, 5.0 + 1e-12, 1001)

    @pytest.mark.parametrize("length", [1e-80, 1e-70])
    def test_order_5_weights_are_lagrange_or_a_subnormal_column_is_refused(self, length):
        # x^(5) + x = 0 at 0, L/4, L/2, 3L/4 and L: the weights are the
        # quartic Lagrange basis of the points to O(L^5).  At 1e-80 the
        # column x^(4)/24 ~ 4e-322 is subnormal and both paths that evaluate
        # the boundary matrix refuse it; at 1e-70 it is normal (4e-282).
        ode = LinearODE.from_strings(5, ["0", "0", "0", "0", "1"], "0")
        grid = TimeGrid(0.0, length, 1001)
        points = [length * k / 4 for k in range(5)]
        basis = homogeneous_basis(ode, grid)
        if length == 1e-80:
            message = "basis solution 5 is at most 4.2e-322 at the boundary points"
            with pytest.raises(ValueError, match=message):
                basis_weights(basis, points)
            with pytest.raises(ValueError, match=message):
                solve_crisp_bvp(ode, list(zip(points, [0.0, 0.25, 0.5, 0.75, 1.0])), grid)
            return
        t = grid.nodes()
        lagrange = np.ones((t.size, 5))
        for i, p in enumerate(points):
            for q in points[:i] + points[i + 1:]:
                lagrange[:, i] *= (t - q) / (p - q)
        assert np.abs(basis_weights(basis, points).weights - lagrange).max() <= 1e-13

    def test_grid_on_a_short_interval_at_five_accepted(self):
        # h/2 = 5e-15 is above the float spacing at 5
        ode = LinearODE.from_strings(2, ["0", "0"], "0")
        grid = TimeGrid(5.0, 5.0 + 1e-11, 1001)
        assert solve_crisp_bvp(ode, [(5.0, 1.0), (grid.t_end, 2.0)], grid).grid == grid


@pytest.mark.parametrize("build, message", [
    (lambda: LinearODE(0, (), ZERO), "order must be a positive integer, got 0"),
    (lambda: LinearODE(2, (ZERO,), ZERO), "expected 2 coefficient expressions, got 1"),
    (lambda: TimeGrid(1.0, 1.0, 11), "need t_end > t0, got [1.0, 1.0]"),
    (lambda: TimeGrid(1.0, 0.0, 11), "need t_end > t0, got [1.0, 0.0]"),
    (lambda: TimeGrid(0.0, 1.0, 1), "need at least 2 grid points, got 1"),
    (lambda: Trajectory(TimeGrid(0.0, 1.0, 3), np.zeros((2, 2)), np.zeros(3)),
     "states must have one row per grid node"),
    (lambda: Trajectory(TimeGrid(0.0, 1.0, 3), np.zeros(3), np.zeros(3)),
     "states must have one row per grid node"),
    (lambda: Trajectory(TimeGrid(0.0, 1.0, 3), np.zeros((3, 2)), np.zeros(2)),
     "slopes must hold one value per grid node"),
    (lambda: Trajectory(TimeGrid(0.0, 1.0, 3), np.zeros((3, 2)), [0.0, np.inf, 0.0]),
     "trajectory contains non-finite entries"),
    (lambda: Trajectory(TimeGrid(0.0, 1.0, 3), [[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0]],
                        np.zeros(3)),
     "trajectory contains non-finite entries"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
