import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from fuzzybvp import fuzzy, solver
from fuzzybvp.fuzzy import ParametricFuzzyNumber, TriangularFuzzyNumber
from fuzzybvp.ode import LinearODE, TimeGrid, Trajectory, solve_crisp_bvp
from fuzzybvp.solver import (BLOCK_ROWS, FuzzyBVP, FuzzySolution, SolutionBand,
                             solve_fuzzy_bvp)


class TestProblemValidation:
    def test_condition_count_must_match_order(self):
        ode = LinearODE.from_strings(2, ["-3", "2"], "4*t - 6")
        with pytest.raises(ValueError, match="expected 2"):
            FuzzyBVP(ode, ((0.0, TriangularFuzzyNumber(0, 1, 2)),), TimeGrid(0, 1, 11))

    def test_condition_points_must_be_distinct(self):
        ode = LinearODE.from_strings(2, ["-3", "2"], "0")
        conds = ((0.0, TriangularFuzzyNumber(0, 1, 2)), (0.0, TriangularFuzzyNumber(0, 1, 2)))
        with pytest.raises(ValueError, match="distinct"):
            FuzzyBVP(ode, conds, TimeGrid(0, 1, 11))

    def test_conditions_given_as_a_generator(self, example1):
        conds = ((p, u) for p, u in example1.conditions)
        assert FuzzyBVP(example1.ode, conds, example1.grid).conditions == example1.conditions

    def test_condition_point_inside_interval(self):
        ode = LinearODE.from_strings(2, ["-3", "2"], "0")
        conds = ((0.0, TriangularFuzzyNumber(0, 1, 2)), (3.0, TriangularFuzzyNumber(0, 1, 2)))
        with pytest.raises(ValueError, match="outside"):
            FuzzyBVP(ode, conds, TimeGrid(0, 1, 11))


class TestDecompose:
    """The solution keeps each condition split into vertex and uncertain part."""

    def test_example1_split(self, solution1):
        assert solution1.crisp_boundary_values == (2.0, 3.0)
        assert solution1.uncertain_parts == (TriangularFuzzyNumber(-0.5, 0.0, 1.0),
                                             TriangularFuzzyNumber(-1.0, 0.0, 1.0))

    def test_example2_split(self, solution2):
        assert solution2.crisp_boundary_values == (3.0, 1.0)
        assert solution2.uncertain_parts == (TriangularFuzzyNumber(-1.0, 0.0, 0.5),
                                             TriangularFuzzyNumber(-0.5, 0.0, 0.5))

    def test_all_crisp_conditions(self):
        ode = LinearODE.from_strings(2, ["-3", "2"], "4*t - 6")
        conds = ((0.0, TriangularFuzzyNumber(5, 5, 5)), (1.0, TriangularFuzzyNumber(7, 7, 7)))
        solution = solve_fuzzy_bvp(FuzzyBVP(ode, conds, TimeGrid(0, 1, 11)))
        assert solution.crisp_boundary_values == (5.0, 7.0)
        assert all(u == TriangularFuzzyNumber(0, 0, 0) for u in solution.uncertain_parts)


class TestAssemble:
    """Constructing a FuzzySolution from solved parts."""

    def test_zero_uncertain_parts_degenerate_to_crisp(self, solution1):
        zero = TriangularFuzzyNumber(0.0, 0.0, 0.0)
        degenerate = FuzzySolution(solution1.grid, solution1.boundary_points, solution1.columns,
                                   (zero, zero), solution1.crisp_boundary_values)
        for t in (0.0, 0.3, 0.72, 1.0):
            for alpha in (0.0, 0.5, 1.0):
                cut = degenerate.value_at(t, alpha)
                assert cut.lo == cut.hi == pytest.approx(solution1.crisp.value(t), abs=1e-14)

    def test_nonzero_vertex_rejected(self, solution1):
        bad = TriangularFuzzyNumber(-0.5, 0.1, 1.0)
        with pytest.raises(ValueError, match="vertex"):
            FuzzySolution(solution1.grid, solution1.boundary_points, solution1.columns,
                          (bad, solution1.uncertain_parts[1]),
                          solution1.crisp_boundary_values)


class TestValueAt:
    def test_boundary_reproduction_example1(self, solution1, example1):
        for (point, condition) in example1.conditions:
            for alpha in np.linspace(0.0, 1.0, 11):
                cut = solution1.value_at(point, float(alpha))
                expected = condition.alpha_cut(float(alpha))
                assert cut.lo == pytest.approx(expected.lo, abs=1e-9)
                assert cut.hi == pytest.approx(expected.hi, abs=1e-9)

    def test_example2_interior_support(self, solution2):
        # independent evaluation of the min/max accumulation from the
        # closed-form weights at t = 1
        w1 = reference.ex2_w1(1.0)
        w2 = reference.ex2_w2(1.0)
        lo = 2.5 + min(-1.0 * w1, 0.5 * w1) + min(-0.5 * w2, 0.5 * w2)
        hi = 2.5 + max(-1.0 * w1, 0.5 * w1) + max(-0.5 * w2, 0.5 * w2)
        cut = solution2.value_at(1.0, 0.0)
        assert cut.lo == pytest.approx(lo, abs=1e-7)
        assert cut.hi == pytest.approx(hi, abs=1e-7)

    def test_alpha_one_collapses_to_crisp(self, solution1):
        for t in (0.0, 0.25, 0.8, 1.0):
            cut = solution1.value_at(t, 1.0)
            assert cut.lo == cut.hi == pytest.approx(solution1.crisp.value(t), abs=1e-14)

    def test_domain_errors(self, solution1):
        with pytest.raises(ValueError):
            solution1.value_at(2.0, 0.5)
        with pytest.raises(ValueError):
            solution1.value_at(0.5, 1.5)

    def test_corner_enumeration_cross_check(self, solution1, solution2):
        # band endpoints equal the min/max over the 2^n corner solutions
        for solution, ts in ((solution1, (0.1, 0.5, 0.9)), (solution2, (0.3, 1.0, 1.7))):
            for t, alpha in itertools.product(ts, (0.0, 0.4, 0.8)):
                base = solution.crisp.value(t)
                w = solution.weight_basis.weight_at(t)
                cuts = [u.alpha_cut(alpha) for u in solution.uncertain_parts]
                corners = [base + w[0] * ca + w[1] * cb
                           for ca in (cuts[0].lo, cuts[0].hi)
                           for cb in (cuts[1].lo, cuts[1].hi)]
                cut = solution.value_at(t, alpha)
                assert cut.lo == pytest.approx(min(corners), abs=1e-12)
                assert cut.hi == pytest.approx(max(corners), abs=1e-12)


class TestBand:
    def test_alpha_zero_borders_are_crisp_solutions(self, solution1, example1):
        # weights are positive inside (0, 1): the upper border solves the
        # crisp problem with both upper boundary values, the lower border
        # with both lower values
        band = solution1.band([0.0])
        upper = solve_crisp_bvp(example1.ode, [(0.0, 3.0), (1.0, 4.0)], example1.grid)
        lower = solve_crisp_bvp(example1.ode, [(0.0, 1.5), (1.0, 2.0)], example1.grid)
        assert np.max(np.abs(band.upper[0] - upper.values)) <= 1e-9
        assert np.max(np.abs(band.lower[0] - lower.values)) <= 1e-9

    def test_half_level_halves_the_homogeneous_band(self, solution1):
        full = solution1.band([0.0, 0.5])
        width_full = full.upper[0] - full.lower[0]
        width_half = full.upper[1] - full.lower[1]
        assert np.max(np.abs(width_half - 0.5 * width_full)) <= 1e-12

    def test_example2_borders_swap_roles_where_weights_change_sign(self, solution2, example2):
        # all-upper corners do NOT give the upper border once a weight goes negative
        band = solution2.band([0.0])
        upper_corners = solve_crisp_bvp(example2.ode, [(0.0, 3.5), (2.0, 1.5)], example2.grid)
        weights = solution2.weight_basis.weights
        sign_changed = np.where(weights[:, 0] < -1e-6)[0]
        assert sign_changed.size > 0
        node = int(sign_changed[sign_changed.size // 2])
        assert band.upper[0][node] > upper_corners.values[node] + 1e-6

    def test_levels_sorted_and_deduplicated(self, solution1):
        band = solution1.band([1.0, 0.5, 0.0, 0.5])
        assert band.alphas == (0.0, 0.5, 1.0)

    def test_nesting_across_levels(self, solution2):
        band = solution2.band(np.linspace(0.0, 1.0, 11))
        assert np.all(np.diff(band.lower, axis=0) >= -1e-12)
        assert np.all(np.diff(band.upper, axis=0) <= 1e-12)

    def test_band_on_output_grid(self, solution1):
        out = TimeGrid(0.0, 1.0, 11)
        band = solution1.band([0.0, 1.0], grid=out)
        assert band.grid == out
        assert band.lower.shape == (2, 11)
        # matches pointwise evaluation
        for i, t in enumerate(out.nodes()):
            cut = solution1.value_at(float(t), 0.0)
            assert band.lower[0, i] == pytest.approx(cut.lo, abs=1e-12)
            assert band.upper[0, i] == pytest.approx(cut.hi, abs=1e-12)

    def test_off_grid_band_matches_value_at_everywhere(self, solution2):
        # 997 output nodes fall between the 1001 solution nodes; band and
        # value_at share one cut evaluator, so they agree bit for bit, on
        # the solution grid as well as off it
        levels = [0.0, 0.6, 1.0]
        for out in (TimeGrid(0.0, 2.0, 997), solution2.grid):
            band = solution2.band(levels, grid=out)
            for k, alpha in enumerate(levels):
                cuts = [solution2.value_at(float(t), alpha) for t in out.nodes()]
                lower, upper = [c.lo for c in cuts], [c.hi for c in cuts]
                assert np.max(np.abs(band.lower[k] - lower)) <= 1e-12
                assert np.max(np.abs(band.upper[k] - upper)) <= 1e-12
                assert np.array_equal(band.lower[k], lower)
                assert np.array_equal(band.upper[k], upper)

    @pytest.mark.parametrize("num_points", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                            2 * BLOCK_ROWS + 3])
    def test_blocked_off_grid_band_equals_one_pass(self, solution2, num_points):
        # the band interpolates BLOCK_ROWS nodes at a time; one pass over all
        # nodes gives the same bits, on both sides of every block edge
        levels = [0.0, 0.6, 1.0]
        out = TimeGrid(0.0, 2.0, num_points)
        nodes = out.nodes()
        columns = np.column_stack([solution2.weight_basis.weight_at(nodes),
                                   solution2.crisp.value(nodes)])
        lower, upper = solution2._cuts(columns, solution2._cut_table(levels))
        band = solution2.band(levels, grid=out)
        assert np.array_equal(band.lower, lower)
        assert np.array_equal(band.upper, upper)

    @pytest.mark.parametrize("num_points", [None, 2 * BLOCK_ROWS + 3],
                             ids=["solution grid", "off grid"])
    def test_band_blocks_are_blocks_of_one_whole_grid_pass(self, solution2, num_points):
        # on the solution grid the blocks are slices of the node values, off
        # it interpolated nodes; each holds BLOCK_ROWS nodes but the last, and
        # together they give the bits of one pass over all nodes
        out = solution2.grid if num_points is None else TimeGrid(0.0, 2.0, num_points)
        nodes = np.linspace(0.0, 2.0, out.num_points)
        if num_points is None:
            crisp, weights = solution2.crisp.values, solution2.weight_basis.weights
        else:
            crisp, weights = solution2.crisp.value(nodes), solution2.weight_basis.weight_at(nodes)
        lower, upper = solution2._cuts(np.column_stack([weights, crisp]),
                                       solution2._cut_table([0.0, 0.6, 1.0]))
        t, lo, hi = zip(*solution2.band_blocks([0.6, 0.0, 1.0, 0.6], out))
        assert [block.size for block in t[:-1]] == [BLOCK_ROWS] * (len(t) - 1)
        assert np.concatenate(t).tobytes() == nodes.tobytes()
        assert np.concatenate(lo, axis=1).tobytes() == lower.tobytes()
        assert np.concatenate(hi, axis=1).tobytes() == upper.tobytes()

    @pytest.mark.parametrize("num_points", [None, 200001], ids=["solution grid", "off grid"])
    def test_band_is_written_in_place(self, num_points):
        # each block's cuts go straight into the band's arrays, so beyond them
        # the band holds one block's temporaries: about 0.7 MB (1.4 MB on the
        # grid and 1.5 MB off it when each block was computed and then copied)
        solution = solve_fuzzy_bvp(reference.make_example1(100001))
        out = None if num_points is None else TimeGrid(0.0, 1.0, num_points)
        tracemalloc.start()
        try:
            band = solution.band([0.0, 0.25, 0.5, 0.75, 1.0], grid=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert band.lower.shape == (5, num_points or 100001)
        assert peak - band.lower.nbytes - band.upper.nbytes <= 1.0e6


class TestOneSolutionArray:
    """A solution is one (n+1, 2, N) array: node values, then slopes, of the
    n weights and then of the crisp solution."""

    def test_columns_hold_the_weights_then_the_crisp_solution(self, solution2):
        columns = solution2.columns
        assert columns.shape == (3, 2, solution2.grid.num_points)
        assert not columns.flags.writeable
        assert np.array_equal(columns[:2, 0].T, solution2.weight_basis.weights)
        assert np.array_equal(columns[:2, 1].T, solution2.weight_basis.weight_slopes)
        assert not solution2.weight_basis.weights.flags.writeable
        assert np.array_equal(columns[2, 0], solution2.crisp.values)
        assert np.array_equal(columns[2, 1], solution2.crisp.slopes)
        assert solution2.crisp.states.shape == (solution2.grid.num_points, 1)

    def test_one_hermite_pass_per_off_grid_block_and_per_value(self, solution2, monkeypatch):
        # the weights and the crisp solution are interpolated together
        calls = []
        hermite = solver._hermite

        def counting(*args):
            calls.append(args)
            return hermite(*args)

        monkeypatch.setattr(solver, "_hermite", counting)
        solution2.band([0.0, 0.6, 1.0], grid=TimeGrid(0.0, 2.0, 2 * BLOCK_ROWS + 3))
        assert len(calls) == 3
        solution2.value_at(0.7, 0.5)
        assert len(calls) == 4
        solution2.band([0.0, 0.6, 1.0])  # the solution grid is sliced, not interpolated
        assert len(calls) == 4

    def test_node_times_are_built_once_per_block(self, solution2, monkeypatch):
        # off the grid, band_blocks yields the times its Hermite pass took;
        # on the grid, band builds none
        calls = []
        nodes = TimeGrid.nodes

        def counting(grid, start=0, stop=None):
            calls.append((start, stop))
            return nodes(grid, start, stop)

        monkeypatch.setattr(TimeGrid, "nodes", counting)
        out = TimeGrid(0.0, 2.0, 2 * BLOCK_ROWS + 3)
        blocks = [(0, BLOCK_ROWS), (BLOCK_ROWS, 2 * BLOCK_ROWS), (2 * BLOCK_ROWS, out.num_points)]
        assert len(list(solution2.band_blocks([0.5], out))) == 3 and calls == blocks
        calls.clear()
        solution2.band([0.5], out)
        assert calls == blocks
        calls.clear()
        solution2.band([0.5])
        assert calls == []
        list(solution2.band_blocks([0.5], solution2.grid))
        assert calls == [(0, solution2.grid.num_points)]

    @pytest.mark.parametrize("which", ["example2", "order4"])
    def test_solve_builds_at_most_one_trajectory(self, example2, which, monkeypatch):
        if which == "order4":
            ode = LinearODE.from_strings(4, ["sin(t)", "1 + t^2", "exp(-t)", "-2*cos(3*t)"],
                                         "t^3 - sqrt(1 + t)")
            conds = [(p, TriangularFuzzyNumber(p - 1.0, p, p + 0.5)) for p in (0.0, 0.5, 1.5, 2.0)]
            problem = FuzzyBVP(ode, conds, TimeGrid(0.0, 2.0, 1001))
        else:
            problem = example2
        built = []
        post_init = Trajectory.__post_init__

        def counting(traj):
            built.append(traj)
            post_init(traj)

        monkeypatch.setattr(Trajectory, "__post_init__", counting)
        solve_fuzzy_bvp(problem)
        assert len(built) <= 1

    def test_crisp_is_built_once(self, example2, monkeypatch):
        built = []
        post_init = Trajectory.__post_init__

        def counting(traj):
            built.append(traj)
            post_init(traj)

        monkeypatch.setattr(Trajectory, "__post_init__", counting)
        solution = solve_fuzzy_bvp(example2)
        assert built == []
        crisp = solution.crisp
        assert solution.crisp is crisp
        assert len(built) == 1


class TestCutTable:
    """``band``, ``band_blocks`` and ``value_at`` take each level's cuts once,
    into one table, and add each part at all levels at once: the bits of the
    per-level loop, for triangular and parametric parts, unsorted and
    repeated levels, on and off the solution grid."""

    LEVELS = [0.9, 0.0, 0.35, 0.9, 1.0, 0.35, 0.6]

    @pytest.fixture(scope="class")
    def mixed(self):
        ode = LinearODE.from_strings(2, ["0", "16"], "47 - 8*t^2")
        parametric = ParametricFuzzyNumber([0.0, 0.3, 1.0], [0.2, 0.7, 1.0], [1.9, 1.3, 1.0])
        conds = ((0.0, TriangularFuzzyNumber(2.0, 3.0, 3.5)), (2.0, parametric))
        return solve_fuzzy_bvp(FuzzyBVP(ode, conds, TimeGrid(0.0, 2.0, 1001)))

    @pytest.mark.parametrize("num_points", [None, 997, 2 * BLOCK_ROWS + 3],
                             ids=["solution grid", "off grid", "off grid, 3 blocks"])
    def test_band_and_blocks_equal_the_per_level_loop(self, mixed, num_points):
        out = mixed.grid if num_points is None else TimeGrid(0.0, 2.0, num_points)
        levels = solver.alpha_levels(self.LEVELS)
        values, slopes = mixed.columns.transpose(1, 2, 0)
        columns = values if num_points is None else solver._hermite(mixed.grid, values, slopes,
                                                                     out.nodes())
        lower, upper = reference.cuts_per_level(mixed.uncertain_parts, columns, levels)
        band = mixed.band(self.LEVELS, grid=out)
        assert band.alphas == levels == (0.0, 0.35, 0.6, 0.9, 1.0)
        assert band.lower.tobytes() == lower.tobytes()
        assert band.upper.tobytes() == upper.tobytes()
        _, lo, hi = zip(*mixed.band_blocks(self.LEVELS, out))
        assert np.concatenate(lo, axis=1).tobytes() == lower.tobytes()
        assert np.concatenate(hi, axis=1).tobytes() == upper.tobytes()

    @pytest.mark.parametrize("t", [0.0, 0.7, 1.2345, 2.0])
    def test_value_at_equals_the_per_level_loop(self, mixed, t):
        column = solver._hermite(mixed.grid, *mixed.columns.transpose(1, 2, 0), t)
        lower, upper = reference.cuts_per_level(mixed.uncertain_parts, column, self.LEVELS)
        for k, alpha in enumerate(self.LEVELS):
            cut = mixed.value_at(t, alpha)
            assert (cut.lo, cut.hi) == (lower[k], upper[k])

    def test_cut_table_holds_lower_then_upper_endpoints(self, mixed):
        table = mixed._cut_table([0.35, 1.0])
        assert table.shape == (2, 2, 2)
        for part, rows in zip(mixed.uncertain_parts, table):
            cuts = [part.alpha_cut(0.35), part.alpha_cut(1.0)]
            assert rows.tolist() == [[c.lo for c in cuts], [c.hi for c in cuts]]

    def test_each_part_is_cut_once_per_level_per_band(self, mixed, monkeypatch):
        calls = []
        for cls in (TriangularFuzzyNumber, ParametricFuzzyNumber):
            def counting(part, alpha, cut=cls.alpha_cut):
                calls.append(alpha)
                return cut(part, alpha)

            monkeypatch.setattr(cls, "alpha_cut", counting)
        mixed.band([0.0, 0.5, 1.0], grid=TimeGrid(0.0, 2.0, 2 * BLOCK_ROWS + 3))
        assert len(calls) == 2 * 3


def interval_arithmetic_cut(solution, t, alpha):
    """Evaluate the solution cut by fuzzy scale/add instead of min/max."""
    w = solution.weight_basis.weight_at(t)
    total = fuzzy.scale(w[0], solution.uncertain_parts[0])
    for wi, part in zip(w[1:], solution.uncertain_parts[1:]):
        total = fuzzy.add(total, fuzzy.scale(wi, part))
    cut = total.alpha_cut(alpha)
    base = solution.crisp.value(t)
    return base + cut.lo, base + cut.hi


class TestExtensionPrincipleEquivalence:
    @pytest.mark.parametrize("which", [1, 2])
    def test_min_max_equals_interval_arithmetic(self, which, solution1, solution2):
        solution = solution1 if which == 1 else solution2
        nodes = solution.grid.nodes()[::50]
        for t in nodes:
            for alpha in (0.0, 0.3, 0.7, 1.0):
                lo, hi = interval_arithmetic_cut(solution, float(t), alpha)
                cut = solution.value_at(float(t), alpha)
                assert cut.lo == pytest.approx(lo, abs=1e-12)
                assert cut.hi == pytest.approx(hi, abs=1e-12)

    def test_parametric_conditions_match_triangular(self, solution1, example1):
        # encoding the same triangular conditions parametrically must not
        # change the band
        conds = tuple((p, ParametricFuzzyNumber.from_triangular(u, num_levels=11))
                      for p, u in example1.conditions)
        parametric_problem = FuzzyBVP(example1.ode, conds, example1.grid)
        parametric_solution = solve_fuzzy_bvp(parametric_problem)
        for t in (0.0, 0.4, 1.0):
            for alpha in (0.0, 0.35, 1.0):
                a = solution1.value_at(t, alpha)
                b = parametric_solution.value_at(t, alpha)
                assert a.lo == pytest.approx(b.lo, abs=1e-12)
                assert a.hi == pytest.approx(b.hi, abs=1e-12)


@pytest.fixture(scope="module")
def third_order():
    # x''' = 0 with fuzzy values at three points
    ode = LinearODE.from_strings(3, ["0", "0", "0"], "0")
    conds = ((0.0, TriangularFuzzyNumber(-0.5, 0.0, 0.5)),
             (0.5, TriangularFuzzyNumber(0.0, 0.25, 0.75)),
             (1.0, TriangularFuzzyNumber(0.5, 1.0, 1.25)))
    problem = FuzzyBVP(ode, conds, TimeGrid(0.0, 1.0, 501))
    return problem, solve_fuzzy_bvp(problem)


class TestHigherOrderMultiPoint:
    def test_crisp_part_is_the_parabola(self, third_order):
        _, solution = third_order
        nodes = solution.grid.nodes()
        assert np.max(np.abs(solution.crisp.values - nodes**2)) <= 1e-10

    def test_boundary_reproduction(self, third_order):
        problem, solution = third_order
        for point, condition in problem.conditions:
            for alpha in (0.0, 0.5, 1.0):
                cut = solution.value_at(point, alpha)
                expected = condition.alpha_cut(alpha)
                assert cut.lo == pytest.approx(expected.lo, abs=1e-9)
                assert cut.hi == pytest.approx(expected.hi, abs=1e-9)

    def test_band_matches_corner_crisp_solutions(self, third_order):
        # vertex attainment with 2^3 corners, each solved independently
        # through the crisp path
        problem, solution = third_order
        points = problem.boundary_points
        cuts = [u.alpha_cut(0.0) for _, u in problem.conditions]
        corner_values = []
        for corner in itertools.product(*(((c.lo, c.hi)) for c in cuts)):
            traj = solve_crisp_bvp(problem.ode, list(zip(points, corner)), problem.grid)
            corner_values.append(traj.values)
        corner_values = np.array(corner_values)
        band = solution.band([0.0])
        assert np.max(np.abs(band.lower[0] - corner_values.min(axis=0))) <= 1e-9
        assert np.max(np.abs(band.upper[0] - corner_values.max(axis=0))) <= 1e-9


class TestMembershipOf:
    def test_vertices_have_full_membership(self, solution1):
        assert solution1.membership_of([2.0, 3.0]) == 1.0

    def test_half_membership(self, solution1):
        assert solution1.membership_of([2.5, 3.5]) == pytest.approx(0.5, abs=1e-12)

    def test_outside_support_gives_zero(self, solution1):
        assert solution1.membership_of([1.0, 3.0]) == 0.0

    def test_minimum_over_conditions(self, solution1):
        # first value at membership 1, second at 0.5: min rules
        assert solution1.membership_of([2.0, 3.5]) == pytest.approx(0.5, abs=1e-12)

    def test_wrong_arity_rejected(self, solution1):
        with pytest.raises(ValueError, match="expected 2"):
            solution1.membership_of([2.0])

    def test_nan_value_gives_zero(self, solution1):
        assert solution1.membership_of([float("nan"), 3.0]) == 0.0


@functools.lru_cache(maxsize=None)
def _session_solution():
    return reference.solved_example1()


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_value_at_nesting_property(t, a1, a2):
    solution = _session_solution()
    outer = solution.value_at(t, min(a1, a2))
    inner = solution.value_at(t, max(a1, a2))
    assert outer.lo <= inner.lo + 1e-12
    assert inner.hi <= outer.hi + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_crisp_trajectory_inside_every_cut(t):
    solution = _session_solution()
    value = solution.crisp.value(t)
    for alpha in (0.0, 0.5, 1.0):
        cut = solution.value_at(t, alpha)
        assert cut.lo - 1e-12 <= value <= cut.hi + 1e-12


def zero_band(solution, lower=None, upper=None):
    """A one-level band of zeros on the solution grid, with either array replaced."""
    shape = (1, solution.grid.num_points)
    return SolutionBand(solution.grid, (0.0,),
                        np.zeros(shape) if lower is None else lower,
                        np.zeros(shape) if upper is None else upper)


@pytest.mark.parametrize("build, message", [
    (lambda s: zero_band(s, lower=np.zeros((2, 1001))),
     "band arrays must be (num_levels, num_points)"),
    (lambda s: zero_band(s, upper=np.zeros((1, 1000))),
     "band arrays must be (num_levels, num_points)"),
    (lambda s: FuzzySolution(s.grid, s.boundary_points, s.columns, s.uncertain_parts[:1],
                             s.crisp_boundary_values),
     "one uncertain part per weight function is required"),
    (lambda s: s.band([]), "at least one alpha level is required"),
])
def test_validation_messages(solution1, build, message):
    with pytest.raises(ValueError) as info:
        build(solution1)
    assert str(info.value) == message
