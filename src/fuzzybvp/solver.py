"""Fuzzy boundary value problems: decomposition, assembly, and alpha-cut bands.

The solve pipeline:

1. split every fuzzy boundary value into its vertex plus a vertex-at-zero
   uncertain part,
2. run one RK4 scan that gives the homogeneous basis and a particular
   solution together, and solve the crisp problem with the vertex values,
3. build the weight functions at the boundary points from that basis,
4. keep the parts; the solution value at (t, alpha) is the crisp value
   plus the interval sum of weight-scaled alpha-cuts of the uncertain
   parts.

Because the map from boundary values to the solution value at a fixed t is
linear, the band endpoints at each node are attained at corners of the
boundary-value box, which is what the sign-aware min/max accumulation in
``value_at`` computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fuzzy
from .fuzzy import FuzzyNumber, Interval, _check_alpha
from .ode import LinearODE, TimeGrid, Trajectory, WeightBasis, _basis_and_crisp, weight_functions
# Unused here; bound for the benchmark tracer until ROADMAP item 6 re-points it.
from .ode import combine, homogeneous_basis, integrate_ivp  # noqa: F401


@dataclass(frozen=True)
class FuzzyBVP:
    """Linear ODE with fuzzy point-value boundary conditions."""

    ode: LinearODE
    conditions: tuple[tuple[float, FuzzyNumber], ...]
    grid: TimeGrid

    def __post_init__(self):
        conditions = tuple((float(p), u) for p, u in self.conditions)
        if len(conditions) != self.ode.order:
            raise ValueError(
                f"expected {self.ode.order} boundary conditions, got {len(conditions)}")
        points = [p for p, _ in conditions]
        if len(set(points)) != len(points):
            raise ValueError(f"boundary points must be distinct, got {points}")
        for p in points:
            if not self.grid.contains(p):
                raise ValueError(
                    f"boundary point {p} outside [{self.grid.t0}, {self.grid.t_end}]")
        object.__setattr__(self, "conditions", conditions)

    @property
    def boundary_points(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.conditions)


def decompose(problem: FuzzyBVP) -> tuple[tuple[float, ...], tuple[FuzzyNumber, ...]]:
    """Vertex values and vertex-at-zero uncertain parts of all conditions."""
    pairs = [fuzzy.split_crisp(u) for _, u in problem.conditions]
    return tuple(v for v, _ in pairs), tuple(u for _, u in pairs)


@dataclass(frozen=True)
class SolutionBand:
    """Per-node alpha-cut intervals of a fuzzy solution, one row per level."""

    grid: TimeGrid
    alphas: tuple[float, ...]
    lower: np.ndarray = field(repr=False)  # (num_levels, num_points)
    upper: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (len(self.alphas), self.grid.num_points)
        if self.lower.shape != shape or self.upper.shape != shape:
            raise ValueError("band arrays must be (num_levels, num_points)")
        self.lower.flags.writeable = False
        self.upper.flags.writeable = False

    def level_index(self, alpha: float) -> int:
        for k, a in enumerate(self.alphas):
            if abs(a - alpha) <= 1e-12:
                return k
        raise ValueError(f"band has no level alpha = {alpha}")

    def interval(self, alpha: float, node: int) -> Interval:
        k = self.level_index(alpha)
        return Interval(float(self.lower[k, node]), float(self.upper[k, node]))


@dataclass(frozen=True)
class FuzzySolution:
    """Lazy fuzzy solution: crisp trajectory, weights, and uncertain parts.

    Bands are not precomputed; ``value_at`` and ``band`` evaluate the
    requested cuts on demand.
    """

    crisp: Trajectory
    weight_basis: WeightBasis
    uncertain_parts: tuple[FuzzyNumber, ...]
    crisp_boundary_values: tuple[float, ...]

    def __post_init__(self):
        if self.crisp.grid != self.weight_basis.grid:
            raise ValueError("crisp trajectory and weight basis must share a grid")
        if len(self.uncertain_parts) != self.weight_basis.order:
            raise ValueError("one uncertain part per weight function is required")
        for u in self.uncertain_parts:
            if abs(u.vertex) > fuzzy.VERTEX_TOL:
                raise ValueError(f"uncertain part has vertex {u.vertex}, expected 0")

    @property
    def grid(self) -> TimeGrid:
        return self.crisp.grid

    @property
    def boundary_points(self) -> tuple[float, ...]:
        return self.weight_basis.boundary_points

    def value_at(self, t: float, alpha: float) -> Interval:
        """Alpha-cut of the solution value at time t.

        Sign-aware accumulation: each uncertain part contributes the min and
        max of its weighted cut endpoints, which equals the interval image
        of the boundary-value box under the (linear) value map.
        """
        alpha = _check_alpha(alpha)
        base = self.crisp.value(t)
        w = self.weight_basis.weight_at(t)
        lo = hi = base
        for wi, part in zip(w, self.uncertain_parts):
            cut = part.alpha_cut(alpha)
            a, b = wi * cut.lo, wi * cut.hi
            if a <= b:
                lo += a
                hi += b
            else:
                lo += b
                hi += a
        return fuzzy._checked_interval(float(lo), float(hi))

    def band(self, alphas, grid: TimeGrid | None = None) -> SolutionBand:
        """Alpha-cut band over a grid (the solution grid by default).

        Levels are sorted ascending and deduplicated; per node the returned
        intervals are nested across increasing alpha.
        """
        levels = sorted({_check_alpha(a) for a in alphas})
        if not levels:
            raise ValueError("at least one alpha level is required")
        if grid is None or grid == self.grid:
            grid = self.grid
            crisp_vals = self.crisp.values.copy()
            weights = self.weight_basis.weights
        else:
            nodes = grid.nodes()
            crisp_vals = self.crisp.value(nodes)
            weights = self.weight_basis.weight_at(nodes)
        lower = np.empty((len(levels), grid.num_points))
        upper = np.empty((len(levels), grid.num_points))
        for k, alpha in enumerate(levels):
            lo = crisp_vals.copy()
            hi = crisp_vals.copy()
            for i, part in enumerate(self.uncertain_parts):
                cut = part.alpha_cut(alpha)
                a = weights[:, i] * cut.lo
                b = weights[:, i] * cut.hi
                lo += np.minimum(a, b)
                hi += np.maximum(a, b)
            lower[k] = lo
            upper[k] = hi
        return SolutionBand(grid, tuple(levels), lower, upper)

    def membership_of(self, boundary_values) -> float:
        """Possibility of the crisp trajectory with these boundary values:
        the least membership of the values in their fuzzy conditions."""
        values = [float(v) for v in boundary_values]
        if len(values) != len(self.uncertain_parts):
            raise ValueError(
                f"expected {len(self.uncertain_parts)} boundary values, got {len(values)}")
        return min(part.membership(v - c) for part, v, c in
                   zip(self.uncertain_parts, values, self.crisp_boundary_values))


def assemble(crisp: Trajectory, weight_basis: WeightBasis,
             uncertain_parts, crisp_boundary_values) -> FuzzySolution:
    """Bundle the solved parts; no bands are computed eagerly."""
    return FuzzySolution(crisp, weight_basis, tuple(uncertain_parts),
                         tuple(float(v) for v in crisp_boundary_values))


def solve_fuzzy_bvp(problem: FuzzyBVP) -> FuzzySolution:
    """Full pipeline: decompose, one scan for basis and crisp, weights, assemble."""
    crisp_values, uncertain_parts = decompose(problem)
    points = problem.boundary_points
    basis, crisp = _basis_and_crisp(problem.ode, problem.grid, points, np.array(crisp_values))
    wb = weight_functions(basis, points)
    return assemble(crisp, wb, uncertain_parts, crisp_values)
