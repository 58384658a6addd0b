"""Independent cross-check path: finite differences plus brute-force envelopes.

This module deliberately avoids the RK4/weight-function machinery.  It
discretizes order-2 two-point problems with central differences on a
uniform mesh, solves the tridiagonal system with the Thomas algorithm, and
builds per-node envelopes by sampling crisp problems over the boundary
alpha-cut rectangle.  Only the expression evaluator is shared with the
main solve path.
"""

from __future__ import annotations

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


def _thomas(sub, diag, sup, rhs) -> list[float]:
    """Thomas elimination for a tridiagonal system (plain-float sweeps)."""
    m = len(diag)
    tiny = np.finfo(float).tiny
    ratios = [0.0] * m
    partial = [0.0] * m
    pivot = diag[0]
    if abs(pivot) < tiny:
        raise SingularDiscretizationError("zero pivot at interior node 1")
    partial[0] = rhs[0] / pivot
    for i in range(1, m):
        ratios[i - 1] = sup[i - 1] / pivot
        pivot = diag[i] - sub[i] * ratios[i - 1]
        if abs(pivot) < tiny:
            raise SingularDiscretizationError(f"zero pivot at interior node {i + 1}")
        partial[i] = (rhs[i] - sub[i] * partial[i - 1]) / pivot
    x = [0.0] * m
    x[m - 1] = partial[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = partial[i] - ratios[i] * x[i + 1]
    return x


def fd_solve(ode: LinearODE, left_value: float, right_value: float,
             mesh: FDMesh) -> np.ndarray:
    """Sampled solution of an order-2 two-point problem, O(h^2) accurate.

    Returns the values at all mesh nodes, boundary values included.
    """
    if ode.order != 2:
        raise ValueError(f"finite-difference solver supports order 2 only, got {ode.order}")
    sub, diag, sup, force = _interior_coefficients(ode, mesh)
    return _fd_solve_prepared(sub.tolist(), diag.tolist(), sup.tolist(), force.tolist(),
                              float(left_value), float(right_value))


def _fd_solve_prepared(sub, diag, sup, force, left_value, right_value) -> np.ndarray:
    rhs = list(force)
    rhs[0] -= sub[0] * left_value
    rhs[-1] -= sup[-1] * right_value
    interior = _thomas(sub, diag, sup, rhs)
    out = np.empty(len(interior) + 2)
    out[0] = left_value
    out[1:-1] = interior
    out[-1] = right_value
    if not np.isfinite(out).all():
        raise SingularDiscretizationError("discretized system produced non-finite values")
    return out


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
    left_samples = np.linspace(left_cut.lo, left_cut.hi, samples_per_axis)
    right_samples = np.linspace(right_cut.lo, right_cut.hi, samples_per_axis)

    sub, diag, sup, force = _interior_coefficients(problem.ode, mesh)
    sub, diag, sup, force = sub.tolist(), diag.tolist(), sup.tolist(), force.tolist()
    lower = np.full(mesh.interior_points + 2, np.inf)
    upper = np.full(mesh.interior_points + 2, -np.inf)
    for a in left_samples:
        for b in right_samples:
            x = _fd_solve_prepared(sub, diag, sup, force, float(a), float(b))
            np.minimum(lower, x, out=lower)
            np.maximum(upper, x, out=upper)
    return OracleEnvelope(mesh, float(alpha), lower, upper)


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
        return {
            "alpha": self.alpha,
            "max_deviation": self.max_deviation,
            "t": list(self.nodes),
            "formula_lower": list(self.formula_lower),
            "formula_upper": list(self.formula_upper),
            "oracle_lower": list(self.oracle_lower),
            "oracle_upper": list(self.oracle_upper),
            "lower_deviation": list(self.lower_deviation),
            "upper_deviation": list(self.upper_deviation),
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
