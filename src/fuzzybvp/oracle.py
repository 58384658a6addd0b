"""Independent cross-check path: finite differences plus brute-force envelopes.

This module deliberately avoids the RK4/weight-function machinery.  It
discretizes order-2 two-point problems with central differences on a
``TimeGrid`` and solves the crisp problem for every sample pair on a grid
over the boundary alpha-cut rectangle.  One Thomas kernel factors the
matrix once, runs the forward sweep once per distinct left sample (the
right value enters only at the last row) and the back sweep on all pairs
at once, folding each node's min/max into a one-level ``SolutionBand``.
The back sweep keeps each node's pairs as one flat row: a block of rows is
filled with their forward values in one broadcast copy, and each row is
then one multiply and one in-place subtract on contiguous vectors.
Every pair still gets exactly the float operations of its own solve; no
superposition is used, so the envelope does not lean on the linearity the
solver rests on.  It shares only the expression evaluator and the plain
grid and band types with the main solve path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ode import LinearODE, TimeGrid
from .solver import FuzzyBVP, SolutionBand


class SingularDiscretizationError(Exception):
    """Zero pivot while eliminating the tridiagonal system."""


def _interior_coefficients(ode: LinearODE, grid: TimeGrid):
    """Tridiagonal coefficients of the central-difference discretization.

    At each interior node: (x[i+1] - 2 x[i] + x[i-1]) / h^2
    + a1 (x[i+1] - x[i-1]) / (2h) + a2 x[i] = f.
    """
    if ode.order != 2:
        raise ValueError(f"finite-difference oracle supports order 2 only, got {ode.order}")
    if grid.num_points < 5:
        raise ValueError(f"need at least 3 interior points, got {grid.num_points - 2}")
    h = np.float64(grid.step)  # so that an h^2 that underflows gives 1 / h^2 = inf
    interior = grid.nodes(1, grid.num_points - 1)
    a1 = ode.coeffs[0].evaluate(interior)
    a2 = ode.coeffs[1].evaluate(interior)
    force = ode.forcing.evaluate(interior)
    with np.errstate(all="ignore"):  # inf and nan: the elimination reports non-finite values
        inv_h2 = 1.0 / (h * h)
        half_h = 0.5 / h
        sub = inv_h2 - a1 * half_h
        diag = -2.0 * inv_h2 + a2
        sup = inv_h2 + a1 * half_h
    return sub, diag, sup, force


def _thomas_envelope(sub, diag, sup, force, lefts, rights):
    """Per-node (lower, upper) over the Thomas solutions of all (left, right) pairs."""
    sub, diag, sup, force = sub.tolist(), diag.tolist(), sup.tolist(), force.tolist()
    m = len(diag)
    tiny = np.finfo(float).tiny
    pivots, ratios = [diag[0]], []
    for i in range(m):
        if abs(pivots[i]) < tiny:
            raise SingularDiscretizationError(f"zero pivot at interior node {i + 1}")
        if i + 1 < m:
            ratios.append(sup[i] / pivots[i])
            pivots.append(diag[i + 1] - sub[i + 1] * ratios[i])
    lefts, rights = np.asarray(lefts, dtype=float), np.asarray(rights, dtype=float)
    rows = list(zip(force, sub, pivots))[1:m - 1]
    partial = np.empty((m - 1, lefts.size, 1))
    for j, a in enumerate(lefts.tolist()):
        p = (force[0] - sub[0] * a) / pivots[0]
        column = [p]
        for f, s, q in rows:
            p = (f - s * p) / q
            column.append(p)
        partial[:, j, 0] = column
    lower, upper = np.empty(m + 2), np.empty(m + 2)
    lower[0], upper[0], lower[-1], upper[-1] = lefts.min(), lefts.max(), rights.min(), rights.max()
    with np.errstate(over="ignore", invalid="ignore"):
        x = ((force[-1] - sup[-1] * rights) - sub[-1] * partial[-1]) / pivots[-1]
        lower[m], upper[m] = x.min(), x.max()
        # Back-sweep rows are held one block (at most 2**15 doubles) at a time, flat. A block's
        # rows start as their forward values; each row then subtracts the product of its ratio
        # and the row after it, taken before the fill can overwrite that row.
        stack = np.empty((min(m - 1, max(1, 2 ** 15 // x.size)),) + x.shape)
        flat, product = stack.reshape(len(stack), -1), np.multiply(x, ratios[-1], out=x).ravel()
        for stop in range(m - 1, 0, -len(stack)):
            start = max(stop - len(stack), 0)
            stack[:stop - start] = partial[start:stop]
            for i, row in zip(range(stop - 1, start - 1, -1), flat[stop - start - 1::-1]):
                np.subtract(row, product, out=row)
                np.multiply(row, ratios[i - 1], out=product)  # the next row's; unused after row 0
            values = flat[:stop - start]
            lower[start + 1:stop + 1], upper[start + 1:stop + 1] = values.min(1), values.max(1)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise SingularDiscretizationError("discretized system produced non-finite values")
    return lower, upper


def fd_solve(ode: LinearODE, left_value: float, right_value: float,
             grid: TimeGrid) -> np.ndarray:
    """Sampled solution of an order-2 two-point problem, O(h^2) accurate.

    Returns the values at all grid nodes, boundary values included.
    """
    return _thomas_envelope(*_interior_coefficients(ode, grid), [left_value], [right_value])[0]


def envelope(problem: FuzzyBVP, alpha: float, samples_per_axis: int,
             grid: TimeGrid) -> SolutionBand:
    """Brute-force envelope over the boundary alpha-cut rectangle.

    Every (a, b) on a samples_per_axis x samples_per_axis grid over the cut
    rectangle defines one crisp two-point problem; each is solved with the
    finite-difference path and the per-node min/max kept, as a band of the
    one level ``alpha`` on ``grid``.
    """
    if samples_per_axis < 2:
        raise ValueError("need at least 2 samples per axis (the rectangle corners)")
    slack = 1e-12 * (grid.t_end - grid.t0)
    ends = [[value for p, value in problem.conditions if abs(p - end) <= slack]
            for end in (grid.t0, grid.t_end)]
    if [len(values) for values in ends] != [1, 1]:
        raise ValueError("oracle envelope requires one condition at each interval end")
    samples = []
    for (value,) in ends:
        cut = value.alpha_cut(alpha)
        # Python floats: the width overflows to inf without a numpy warning.
        if not math.isfinite(float(cut.hi) - float(cut.lo)):
            raise SingularDiscretizationError(
                f"alpha cut [{cut.lo}, {cut.hi}] is wider than the float range, "
                "so its samples would be non-finite values")
        samples.append(np.linspace(cut.lo, cut.hi, samples_per_axis))
    lower, upper = _thomas_envelope(*_interior_coefficients(problem.ode, grid), *samples)
    return SolutionBand(grid, (float(alpha),), lower[None], upper[None])


@dataclass(frozen=True)
class EnvelopeReport:
    """Node-by-node deviation between the formula band and the oracle envelope."""

    alpha: float
    nodes: np.ndarray = field(repr=False)
    formula_lower: np.ndarray = field(repr=False)
    formula_upper: np.ndarray = field(repr=False)
    oracle_lower: np.ndarray = field(repr=False)
    oracle_upper: np.ndarray = field(repr=False)

    @cached_property
    def lower_deviation(self) -> np.ndarray:
        return np.abs(self.formula_lower - self.oracle_lower)

    @cached_property
    def upper_deviation(self) -> np.ndarray:
        return np.abs(self.formula_upper - self.oracle_upper)

    @cached_property
    def max_deviation(self) -> float:
        return float(max(self.lower_deviation.max(), self.upper_deviation.max()))

    def to_dict(self) -> dict:
        """Report fields; the per-node series are 1-D numpy arrays."""
        return {
            "alpha": self.alpha,
            "max_deviation": self.max_deviation,
            "t": self.nodes,
            "formula_lower": self.formula_lower,
            "formula_upper": self.formula_upper,
            "oracle_lower": self.oracle_lower,
            "oracle_upper": self.oracle_upper,
            "lower_deviation": self.lower_deviation,
            "upper_deviation": self.upper_deviation,
        }


def compare(formula: SolutionBand, oracle: SolutionBand) -> EnvelopeReport:
    """Endpoint deviations per node at the oracle's level, on the grid both share."""
    if formula.grid != oracle.grid:
        raise ValueError(f"grid mismatch: band on {formula.grid}, envelope on {oracle.grid}")
    alpha = oracle.alphas[0]
    level = formula.level_index(alpha)
    return EnvelopeReport(
        alpha=alpha,
        nodes=oracle.grid.nodes(),
        formula_lower=formula.lower[level].copy(),
        formula_upper=formula.upper[level].copy(),
        oracle_lower=oracle.lower[0].copy(),
        oracle_upper=oracle.upper[0].copy(),
    )
