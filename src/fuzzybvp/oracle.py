"""Independent cross-check path: finite differences plus brute-force envelopes.

This module deliberately avoids the RK4/weight-function machinery.  It
discretizes order-2 two-point problems with central differences on a
uniform mesh and solves the crisp problem for every sample pair on a grid
over the boundary alpha-cut rectangle.  One Thomas kernel factors the
matrix once, runs the forward sweep once per distinct left sample (the
right value enters only at the last row) and the back sweep on all pairs
at once, folding each node's min/max into the envelope.  Every pair still
gets exactly the float operations of its own solve; no superposition is
used, so the envelope does not lean on the linearity the solver rests on.
Only the expression evaluator is shared with the main solve path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ode import LinearODE
from .solver import FuzzyBVP, SolutionBand


class SingularDiscretizationError(Exception):
    """Zero pivot while eliminating the tridiagonal system."""


@dataclass(frozen=True)
class FDMesh:
    """Uniform mesh with ``interior_points`` nodes strictly inside [t0, t_end]."""

    t0: float
    t_end: float
    interior_points: int

    def __post_init__(self):
        if not self.t_end > self.t0:
            raise ValueError(f"need t_end > t0, got [{self.t0}, {self.t_end}]")
        if not math.isfinite(self.t_end - self.t0):
            raise ValueError(f"length t_end - t0 must be finite, got [{self.t0}, {self.t_end}]")
        if self.interior_points < 3:
            raise ValueError(f"need at least 3 interior points, got {self.interior_points}")

    @property
    def step(self) -> float:
        return (self.t_end - self.t0) / (self.interior_points + 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.t_end, self.interior_points + 2)


def _interior_coefficients(ode: LinearODE, mesh: FDMesh):
    """Tridiagonal coefficients of the central-difference discretization.

    At each interior node: (x[i+1] - 2 x[i] + x[i-1]) / h^2
    + a1 (x[i+1] - x[i-1]) / (2h) + a2 x[i] = f.
    """
    h = mesh.step
    interior = mesh.nodes()[1:-1]
    a1 = ode.coeffs[0].evaluate(interior)
    a2 = ode.coeffs[1].evaluate(interior)
    force = ode.forcing.evaluate(interior)
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
        # Back-sweep rows are held one block (at most 2**15 doubles) at a time.
        stack = np.empty((min(m - 1, max(1, 2 ** 15 // x.size)),) + x.shape)
        for stop in range(m - 1, 0, -len(stack)):
            start = max(stop - len(stack), 0)
            for i in range(stop - 1, start - 1, -1):
                x = np.multiply(x, ratios[i], out=stack[i - start])
                np.subtract(partial[i], x, out=x)
            values = stack[:stop - start].reshape(stop - start, -1)
            lower[start + 1:stop + 1], upper[start + 1:stop + 1] = values.min(1), values.max(1)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise SingularDiscretizationError("discretized system produced non-finite values")
    return lower, upper


def fd_solve(ode: LinearODE, left_value: float, right_value: float,
             mesh: FDMesh) -> np.ndarray:
    """Sampled solution of an order-2 two-point problem, O(h^2) accurate.

    Returns the values at all mesh nodes, boundary values included.
    """
    if ode.order != 2:
        raise ValueError(f"finite-difference solver supports order 2 only, got {ode.order}")
    return _thomas_envelope(*_interior_coefficients(ode, mesh), [left_value], [right_value])[0]


@dataclass(frozen=True)
class OracleEnvelope:
    """Per-node min/max of sampled crisp solutions at one alpha level."""

    mesh: FDMesh
    alpha: float
    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)


def envelope(problem: FuzzyBVP, alpha: float, samples_per_axis: int,
             mesh: FDMesh) -> OracleEnvelope:
    """Brute-force envelope over the boundary alpha-cut rectangle.

    Every (a, b) on a samples_per_axis x samples_per_axis grid over the cut
    rectangle defines one crisp two-point problem; each is solved with the
    finite-difference path and the per-node min/max accumulated.
    """
    if problem.ode.order != 2:
        raise ValueError(f"oracle envelope supports order 2 only, got {problem.ode.order}")
    if samples_per_axis < 2:
        raise ValueError("need at least 2 samples per axis (the rectangle corners)")
    span = mesh.t_end - mesh.t0
    by_point = {}
    for p, value in problem.conditions:
        if abs(p - mesh.t0) <= 1e-12 * span:
            by_point["left"] = value
        elif abs(p - mesh.t_end) <= 1e-12 * span:
            by_point["right"] = value
    if set(by_point) != {"left", "right"}:
        raise ValueError("oracle envelope requires one condition at each interval end")

    left_cut = by_point["left"].alpha_cut(alpha)
    right_cut = by_point["right"].alpha_cut(alpha)
    for cut in (left_cut, right_cut):
        # Python floats: the width overflows to inf without a numpy warning.
        if not math.isfinite(float(cut.hi) - float(cut.lo)):
            raise SingularDiscretizationError(
                f"alpha cut [{cut.lo}, {cut.hi}] is wider than the float range, "
                "so its samples would be non-finite values")
    left_samples = np.linspace(left_cut.lo, left_cut.hi, samples_per_axis)
    right_samples = np.linspace(right_cut.lo, right_cut.hi, samples_per_axis)

    return OracleEnvelope(mesh, float(alpha), *_thomas_envelope(
        *_interior_coefficients(problem.ode, mesh), left_samples, right_samples))


@dataclass(frozen=True)
class EnvelopeReport:
    """Node-by-node deviation between the formula band and the oracle envelope."""

    alpha: float
    nodes: np.ndarray = field(repr=False)
    formula_lower: np.ndarray = field(repr=False)
    formula_upper: np.ndarray = field(repr=False)
    oracle_lower: np.ndarray = field(repr=False)
    oracle_upper: np.ndarray = field(repr=False)

    @property
    def lower_deviation(self) -> np.ndarray:
        return np.abs(self.formula_lower - self.oracle_lower)

    @property
    def upper_deviation(self) -> np.ndarray:
        return np.abs(self.formula_upper - self.oracle_upper)

    @property
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


def compare(formula: SolutionBand, oracle: OracleEnvelope) -> EnvelopeReport:
    """Endpoint deviations per node; the band and envelope must share a grid."""
    mesh = oracle.mesh
    span = mesh.t_end - mesh.t0
    grid = formula.grid
    if (grid.num_points != mesh.interior_points + 2
            or abs(grid.t0 - mesh.t0) > 1e-12 * span
            or abs(grid.t_end - mesh.t_end) > 1e-12 * span):
        raise ValueError(
            f"grid mismatch: band has {grid.num_points} nodes on "
            f"[{grid.t0}, {grid.t_end}], envelope has {mesh.interior_points + 2} on "
            f"[{mesh.t0}, {mesh.t_end}]")
    level = formula.level_index(oracle.alpha)
    return EnvelopeReport(
        alpha=oracle.alpha,
        nodes=mesh.nodes(),
        formula_lower=formula.lower[level].copy(),
        formula_upper=formula.upper[level].copy(),
        oracle_lower=oracle.lower.copy(),
        oracle_upper=oracle.upper.copy(),
    )
