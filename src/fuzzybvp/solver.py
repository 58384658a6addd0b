"""Fuzzy boundary value problems: the solve pipeline and alpha-cut bands.

``solve_fuzzy_bvp``

1. splits every fuzzy boundary value into its vertex plus a vertex-at-zero
   uncertain part,
2. runs one RK4 scan that writes the homogeneous basis and a particular
   solution as rows of one array, whose particular row the vertex values
   correct in place into the crisp solution,
3. overwrites the basis with the weight functions at the boundary points,
4. keeps the parts in a ``FuzzySolution``; bands are evaluated on demand.

The solution value at (t, alpha) is the crisp value plus the interval sum
of the weight-scaled alpha-cuts of the uncertain parts.  Because the map
from boundary values to the solution value at a fixed t is linear, the
band endpoints at each node are attained at corners of the boundary-value
box, which is what the sign-aware min/max accumulation of ``_cuts``
computes for all levels at once; ``band``, ``band_blocks`` and ``value_at``
go through it with a table of the levels' cuts, taken once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fuzzy
from .fuzzy import FuzzyNumber, Interval, _check_alpha
from .ode import (LinearODE, TimeGrid, Trajectory, WeightBasis, _basis_and_crisp, _hermite,
                  _validate_boundary, weight_functions)
# Unused here; bound for the benchmark tracer until ROADMAP item 1 re-points it.
from .ode import combine, homogeneous_basis, integrate_ivp  # noqa: F401

# Nodes per block of a band, and rows per block of its CSV: the Hermite
# temporaries, the block's cuts and its text stay small.
BLOCK_ROWS = 4096


def alpha_levels(alphas) -> tuple[float, ...]:
    """Alpha levels sorted ascending and deduplicated: the order of a band's
    levels and of its CSV columns."""
    levels = tuple(sorted({_check_alpha(a) for a in alphas}))
    if not levels:
        raise ValueError("at least one alpha level is required")
    return levels


@dataclass(frozen=True)
class FuzzyBVP:
    """Linear ODE with fuzzy point-value boundary conditions."""

    ode: LinearODE
    conditions: tuple[tuple[float, FuzzyNumber], ...]
    grid: TimeGrid

    def __post_init__(self):
        points, values = _validate_boundary(self.ode.order, self.conditions)
        for p in points:
            if not self.grid.contains(p):
                raise ValueError(
                    f"boundary point {p} outside [{self.grid.t0}, {self.grid.t_end}]")
        object.__setattr__(self, "conditions", tuple(zip(points, values)))

    @property
    def boundary_points(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.conditions)


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


@dataclass(frozen=True)
class FuzzySolution:
    """Lazy fuzzy solution: weights and crisp solution in one array, uncertain parts.

    Bands are not precomputed; ``value_at``, ``band`` and ``band_blocks``
    evaluate the requested cuts on demand.  ``band`` and ``band_blocks`` walk
    the same blocks of nodes (``_node_blocks``); ``band`` writes each block's
    cuts straight into its arrays, ``band_blocks`` yields them.
    """

    grid: TimeGrid
    boundary_points: tuple[float, ...]
    columns: np.ndarray = field(repr=False)  # (n+1, 2, N) values, slopes; row n crisp
    uncertain_parts: tuple[FuzzyNumber, ...]
    crisp_boundary_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.uncertain_parts) != len(self.boundary_points):
            raise ValueError("one uncertain part per weight function is required")
        for u in self.uncertain_parts:
            if abs(u.vertex) > fuzzy.VERTEX_TOL:
                raise ValueError(f"uncertain part has vertex {u.vertex}, expected 0")
        self.columns.flags.writeable = False

    @cached_property
    def crisp(self) -> Trajectory:  # states hold x only; built on first access
        return Trajectory(self.grid, self.columns[-1, :1].T, self.columns[-1, 1])

    @property
    def weight_basis(self) -> WeightBasis:
        return WeightBasis(self.grid, self.boundary_points, *self.columns[:-1].transpose(1, 2, 0))

    def _cut_table(self, levels) -> np.ndarray:
        """(parts, 2, levels): each uncertain part's lower, then upper cut ends."""
        return np.array([[[c.lo, c.hi] for c in map(part.alpha_cut, levels)]
                         for part in self.uncertain_parts]).transpose(0, 2, 1)

    @staticmethod
    def _cuts(columns, cuts, lower=None, upper=None) -> tuple[np.ndarray, np.ndarray]:
        """Per-level lower and upper cut endpoints at ``columns``, whose last
        axis holds the n weights and then the crisp value, for the levels of
        ``cuts`` (see ``_cut_table``), written into ``lower`` and ``upper``
        (levels, ...) if given, else into new arrays.

        Each uncertain part adds the min and max of its weighted cut
        endpoints at every level: the interval image of the boundary-value
        box under the linear value map.
        """
        if lower is None:
            lower = np.empty((cuts.shape[-1],) + columns.shape[:-1])
            upper = np.empty_like(lower)
        lower[...] = upper[...] = columns[..., -1]
        for i, cut in enumerate(cuts):
            a, b = np.multiply.outer(cut, columns[..., i])
            lower += np.minimum(a, b)
            upper += np.maximum(a, b, out=a)
        return lower, upper

    def value_at(self, t: float, alpha: float) -> Interval:
        """Alpha-cut of the solution value at time t."""
        lower, upper = self._cuts(_hermite(self.grid, *self.columns.transpose(1, 2, 0), t),
                                  self._cut_table([_check_alpha(alpha)]))
        return fuzzy._checked_interval(float(lower[0]), float(upper[0]))

    def _node_blocks(self, grid: TimeGrid, times: bool = False):
        """``(start, stop, t, columns)`` for each ``BLOCK_ROWS`` nodes of the
        grid: the weights and the crisp value there (nodes, n+1), slices of
        the node values on the solution grid and interpolated on another, and
        the node times ``t`` that interpolation took, or that ``times`` asks
        for (None otherwise)."""
        values, slopes = self.columns.transpose(1, 2, 0)  # (nodes, n+1) each
        on_grid = grid == self.grid
        for start in range(0, grid.num_points, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, grid.num_points)
            t = grid.nodes(start, stop) if times or not on_grid else None
            yield start, stop, t, (values[start:stop] if on_grid else
                                   _hermite(self.grid, values, slopes, t))

    def band(self, alphas, grid: TimeGrid | None = None) -> SolutionBand:
        """Alpha-cut band over a grid (the solution grid by default).

        Levels are sorted ascending and deduplicated; per node the returned
        intervals are nested across increasing alpha.  Each block of nodes
        (see ``band_blocks``) has its cuts written straight into the band's
        arrays, and on the solution grid no node times are built.
        """
        grid = self.grid if grid is None else grid
        levels = alpha_levels(alphas)
        cuts = self._cut_table(levels)
        lower = np.empty((len(levels), grid.num_points))
        upper = np.empty_like(lower)
        for start, stop, _, columns in self._node_blocks(grid):
            self._cuts(columns, cuts, lower[:, start:stop], upper[:, start:stop])
        return SolutionBand(grid, levels, lower, upper)

    def band_blocks(self, alphas, grid: TimeGrid):
        """The alpha-cut band as ``(t, lower, upper)`` for each ``BLOCK_ROWS``
        nodes of the grid, lower and upper ``(levels, nodes)`` with the
        levels of ``alpha_levels``.

        The cuts are taken once.  The blocks are ``band``'s, so they give the
        bits of one whole pass: every step is elementwise.
        """
        cuts = self._cut_table(alpha_levels(alphas))
        for _, _, t, columns in self._node_blocks(grid, times=True):
            yield (t, *self._cuts(columns, cuts))

    def membership_of(self, boundary_values) -> float:
        """Possibility of the crisp trajectory with these boundary values:
        the least membership of the values in their fuzzy conditions."""
        values = [float(v) for v in boundary_values]
        if len(values) != len(self.uncertain_parts):
            raise ValueError(
                f"expected {len(self.uncertain_parts)} boundary values, got {len(values)}")
        return min(part.membership(v - c) for part, v, c in
                   zip(self.uncertain_parts, values, self.crisp_boundary_values))


def solve_fuzzy_bvp(problem: FuzzyBVP) -> FuzzySolution:
    """Full pipeline: split the conditions, one scan for basis and crisp, weights."""
    pairs = [fuzzy.split_crisp(u) for _, u in problem.conditions]
    crisp_values = tuple(float(v) for v, _ in pairs)
    points = problem.boundary_points
    rows, matrix = _basis_and_crisp(problem.ode, problem.grid, points, np.array(crisp_values))
    columns = np.ascontiguousarray(rows[:, :2])  # values and slopes; a copy only for n > 2
    weight_functions(problem.grid, columns[:-1], points, matrix)  # in place, over the basis rows
    return FuzzySolution(problem.grid, points, columns, tuple(u for _, u in pairs), crisp_values)
