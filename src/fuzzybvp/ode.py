"""Crisp machinery: RK4 integration, fundamental bases, weight functions, BVPs.

A linear ODE of order n,

    x^(n) + a_1(t) x^(n-1) + ... + a_n(t) x = f(t),

is integrated as a first-order companion system with classical fixed-step RK4
in three stages: the block maps, RK4 on the block states through the companion
structure (a shift plus one row); their carry across the blocks, a log-depth
prefix product; and the node rows, one batched product.  One scan from the
augmented identity writes a fundamental basis (canonical initial states) and a
particular solution (zero initial state) as node rows of one array, whose
values and slopes (n+1, 2, N) a solve keeps.  The basis combination that meets
the boundary values corrects the particular row into the crisp one in place,
and the weight functions overwrite the basis rows: one solve of the transposed
boundary system, by an elimination that divides by each pivot so that the
weights meet the unit property exactly at on-grid boundary points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .expressions import ZERO, Expression

DEFAULT_STEPS = 1000
SINGULARITY_RTOL = 1e-12
KRONECKER_TOL = 1e-9
# A time whose step coordinate q = (t - t0) / h lies within
# SNAP_TOL * max(|q|, 1) of an integer is evaluated at that node.
SNAP_TOL = 8.0 * np.finfo(float).eps


class NonUniqueCrispSolution(Exception):
    """The boundary matrix is numerically singular: the crisp two-point
    problem has no unique solution, so no fuzzy band is produced."""


class IntegrationError(Exception):
    """The integrator produced a non-finite state."""


class UnitPropertyError(Exception):
    """The computed weight functions miss the unit property (weight i is 1
    at boundary point i and 0 at the others) by more than KRONECKER_TOL.
    Rounding in an ill-conditioned boundary system, typical of stiff
    problems with boundary points away from t0, is the usual cause."""


@dataclass(frozen=True)
class LinearODE:
    """Order-n linear ODE with expression coefficients and forcing."""

    order: int
    coeffs: tuple[Expression, ...]
    forcing: Expression

    def __post_init__(self):
        if isinstance(self.order, bool) or not hasattr(self.order, "__index__") or self.order < 1:
            raise ValueError(f"order must be a positive integer, got {self.order}")
        object.__setattr__(self, "order", operator.index(self.order))
        coeffs = tuple(self.coeffs)
        if len(coeffs) != self.order:
            raise ValueError(f"expected {self.order} coefficient expressions, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_strings(cls, order: int, coeffs: Sequence[str], forcing: str) -> "LinearODE":
        from .expressions import parse

        return cls(order, tuple(parse(c) for c in coeffs), parse(forcing))

    def homogeneous(self) -> "LinearODE":
        return replace(self, forcing=ZERO)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of num_points nodes on [t0, t_end]."""

    t0: float
    t_end: float
    num_points: int

    def __post_init__(self):
        if not self.t_end > self.t0:
            raise ValueError(f"need t_end > t0, got [{self.t0}, {self.t_end}]")
        if not math.isfinite(self.t_end - self.t0):
            raise ValueError(f"length t_end - t0 must be finite, got [{self.t0}, {self.t_end}]")
        if isinstance(self.num_points, bool) or not hasattr(self.num_points, "__index__"):
            raise ValueError(f"the number of grid points must be an integer, got {self.num_points}")
        object.__setattr__(self, "num_points", operator.index(self.num_points))
        if self.num_points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.num_points}")
        spacing = np.spacing(float(max(abs(self.t0), abs(self.t_end))))
        if not 0.5 * self.step > spacing:
            raise ValueError(f"{self.num_points} points on [{self.t0}, {self.t_end}]: half a "
                             f"step must exceed the float spacing {spacing:.3g} at the ends")

    @property
    def step(self) -> float:
        return (self.t_end - self.t0) / (self.num_points - 1)

    def nodes(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Nodes ``start`` to ``stop`` (all by default): i * step + t0, the
        last node t_end, bit for bit the arithmetic of ``np.linspace``."""
        stop = self.num_points if stop is None else stop
        t = np.arange(start, stop, dtype=float)
        t *= self.step
        t += self.t0
        if stop == self.num_points and stop > start:
            t[-1] = self.t_end
        return t

    def contains(self, t):
        """Whether t (a float, or elementwise for an array) lies in the interval."""
        slack = 1e-12 * (self.t_end - self.t0)
        return (self.t0 - slack <= t) & (t <= self.t_end + slack)


def _hermite(grid: TimeGrid, values: np.ndarray, slopes: np.ndarray, t) -> np.ndarray:
    """Cubic Hermite interpolation of per-node ``values`` with d/dt ``slopes``.

    ``t`` is a float or an array of times inside the grid interval; the
    result has shape ``np.shape(t) + values.shape[1:]`` and is exact at the
    nodes (4th-order accurate in between, matching the integrator).
    """
    t = np.asarray(t, dtype=float)
    # NaN carries through min and max; the elementwise test only names the first bad t
    if t.size and not (grid.contains(t.min()) and grid.contains(t.max())):
        bad = float(t.ravel()[np.argmin(grid.contains(t).ravel())])
        raise ValueError(f"t = {bad} outside the grid interval [{grid.t0}, {grid.t_end}]")
    h = grid.step
    # not (t - (t0 + i h)) / h: t0 + i h rounds to the float spacing at t0,
    # which can be a sizeable share of h on a short interval far from 0
    q = (t.ravel() - grid.t0) / h
    # a time within rounding of a node is that node (0.7 on [0, 1] lies one
    # float spacing below 0.7000000000000001), so it takes the node's value
    # exactly instead of a two-node mix; q > -1 inside the interval, so
    # max(q, 1) is max(|q|, 1)
    nearest = np.rint(q)
    q = np.where(np.abs(q - nearest) <= SNAP_TOL * np.maximum(q, 1.0), nearest, q)
    i = np.maximum(np.minimum(np.floor(q), grid.num_points - 2), 0).astype(np.intp)
    s = q - i
    s2 = s * s
    s3, j = s2 * s, i + 1

    def term(rows, nodes, scale):  # row by row: one long gather and multiply per row
        out = np.empty((len(rows), nodes.size))
        for row, into in zip(rows, out):
            np.multiply(row[nodes], scale, out=into)
        return out
    # the node axis last, as the callers' (c, 2, N) rows lie in memory; terms add in order
    v, d = (a.reshape(grid.num_points, -1).T for a in (values, slopes))
    out = term(v, i, 2.0 * s3 - 3.0 * s2 + 1.0)
    out += term(d, i, (s3 - 2.0 * s2 + s) * h)
    out += term(v, j, -2.0 * s3 + 3.0 * s2)
    out += term(d, j, (s3 - s2) * h)
    return out.T.reshape(t.shape + values.shape[1:])


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: per-node state vectors (x, x', ..., x^(n-1)).

    ``slopes`` holds d/dt of the value channel so that off-node values can
    be interpolated with cubic Hermite polynomials (4th-order accurate,
    matching the integrator).
    """

    grid: TimeGrid
    states: np.ndarray = field(repr=False)
    slopes: np.ndarray = field(repr=False)

    def __post_init__(self):
        states = np.array(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] != self.grid.num_points:
            raise ValueError("states must have one row per grid node")
        slopes = np.array(self.slopes, dtype=float)
        if slopes.shape != (self.grid.num_points,):
            raise ValueError("slopes must hold one value per grid node")
        if not np.isfinite(states).all() or not np.isfinite(slopes).all():
            raise ValueError("trajectory contains non-finite entries")
        states.flags.writeable = False
        slopes.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "slopes", slopes)

    @property
    def values(self) -> np.ndarray:
        return self.states[:, 0]

    def value(self, t):
        """Solution value at t, a float or an array of times (exact at
        nodes, cubic Hermite in between)."""
        return _hermite(self.grid, self.values, self.slopes, t)[()]


def _block_maps(ode: LinearODE, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray | None]:
    """In-block states ``local`` (block, blocks, n, n+1) of z' = C(t) z on the
    steps of ``grid`` cut into blocks, ``local[i, b]`` the map of block b's first
    i+1 steps, and for n = 1 the node rows (2, blocks block + 1) of -a_1 and f.

    C(t) = [[A(t), f(t) e_n], [0, 0]] is a shift plus the row
    r(t) = (-a_n, ..., -a_1, f), so C X is the rows X[1:n] plus one new row
    sum_j r_j X[j], with r_n added to the forcing column: no matmul.  Every
    block takes RK4 steps of P' = C(t) P from P = [I | 0], one in-block
    position at a time for all blocks at once; P is the first n rows of the
    block's state matrix, whose augmented row stays e_n and is never stored.
    The states are kept position-major, so that each position's store is one
    contiguous write rather than a scatter at the stride of a whole block, and
    the views the steps read are built once, before the loop.  The
    coefficients and the forcing are evaluated once on the half-step lattice
    t0 + h/2 k (t_end at its end), where all stage times fall, laid out as
    (2 block + 1, n+1, blocks): each stage row contiguous.  The lattice is
    freed on return, before the node rows are allocated.
    """
    n, m, steps, h = ode.order, ode.order + 1, grid.num_points - 1, grid.step
    # An in-block position costs about 20 numpy calls on arrays of all blocks,
    # a block one small matmul in each of the carry's log2(blocks) products;
    # blocks of sqrt(steps / 16) steps balance the two (within 10% from /32 to /8).
    block = max(1, math.isqrt(steps // 16))
    blocks = -(-steps // block)
    # one column per block, evaluated through the transpose, whose order is
    # time order, so that an EvaluationError names the earliest offending time
    times = np.arange(2 * block + 1.0)[:, None] + np.arange(0.0, 2 * steps, 2 * block)
    times *= 0.5 * h
    times += grid.t0
    # the last block may run past the end: t_end there, and its states are dropped
    times[2 * (steps - (blocks - 1) * block):, -1] = grid.t_end
    rows = np.empty((2 * block + 1, m, blocks))
    for j, coeff in enumerate(reversed(ode.coeffs)):
        np.negative(coeff.evaluate(times.T).T, out=rows[:, j])
    rows[:, n] = ode.forcing.evaluate(times.T).T
    del times
    # z[:n] holds a stage argument Y and z[n] the new row of C Y, so the
    # stage slope C Y is the view z[1:]; z1[:n] is the in-block state P
    z1, z2, z3, z4 = (np.empty((m, m, blocks)) for _ in range(4))
    prod, total = z1[:n], np.empty((n, m, blocks))
    prod[:] = np.eye(n, m)[:, :, None]
    local = np.empty((block, blocks, n, m))  # in-block states, position-major
    # every view the loop reads, built once: per stage its argument, new row,
    # forcing entry, slope and the next stage's argument; per lattice row its
    # coefficients and its forcing
    coeffs, forces = list(rows[:, :n]), list(rows[:, n])
    stages = [(z[:n], z[n], z[n, n], z[1:], None if nxt is None else nxt[:n], a, row)
              for z, nxt, a, row in ((z1, z2, 0.5 * h, 0), (z2, z3, 0.5 * h, 1),
                                     (z3, z4, h, 1), (z4, None, 0.0, 2))]
    slope1, slope2, slope3, slope4 = (stage[3] for stage in stages)
    for i in range(block):
        for arg, new, forcing, slope, nxt, a, row in stages:  # lattice row 2 i + row
            np.einsum("jb,jkb->kb", coeffs[2 * i + row], arg, out=new)
            forcing += forces[2 * i + row]
            if nxt is not None:
                np.multiply(slope, a, out=nxt)
                nxt += prod
        np.add(slope2, slope3, out=total)
        total *= 2.0
        total += slope1
        total += slope4
        total *= h / 6.0
        prod += total
        local[i] = prod.transpose(2, 0, 1)
    if n > 1:
        return local, None
    return local, np.concatenate([rows[:-1:2].transpose(1, 2, 0).reshape(m, -1), rows[-1, :, -1:]], 1)


def _carry(local: np.ndarray) -> np.ndarray:
    """Start maps (blocks, n+1, n+1) of the blocks of ``local``: map b is the product of
    the end maps of blocks b-1, ..., 0 (map 0 is I; row n stays e_n, so a column without
    forcing stays free of it), all taken by recursive doubling in ceil(log2 blocks)
    batched products (Hillis and Steele, CACM 29, 1986)."""
    blocks, n = local.shape[1:3]
    maps = np.zeros((blocks, n + 1, n + 1))
    maps[0], maps[1:, :n], maps[:, n, n] = np.eye(n + 1), local[-1, :-1], 1.0
    for s in (1 << k for k in range((blocks - 1).bit_length())):  # 1, 2, 4, ... < blocks
        maps[s:] = maps[s:] @ maps[:-s]
    return maps


def _node_rows(local: np.ndarray, starts: np.ndarray, initial: np.ndarray, steps: int,
               nodes: np.ndarray | None) -> np.ndarray:
    """Node rows (c, max(n, 2), steps + 1) from the columns of ``initial``
    (n+1, c), by one batched product of the in-block states ``local`` with the
    block starts ``starts`` (blocks, n+1, c); for n = 1, row 1 is the slope
    from the node rows ``nodes`` of -a_1 and f (see ``_block_maps``)."""
    (block, blocks, n), c = local.shape[:3], initial.shape[1]
    out = np.empty((c, max(n, 2), blocks * block + 1))
    # state row k of column j at node 1 + b block + i is (local[i, b] @ starts[b])[k, j]
    np.matmul(local.transpose(1, 2, 0, 3), starts[:, None],
              out=out[:, :n, 1:].reshape(c, n, blocks, block).transpose(2, 1, 3, 0))
    out[:, :n, 0] = initial[:n].T
    if n == 1:  # x' = -a_1 x + z f, where the augmented component z stays constant
        out[:, 1] = nodes[0] * out[:, 0] + nodes[1] * initial[n][:, None]
    return out[:, :, :steps + 1]


def _rk4_scan(ode: LinearODE, grid: TimeGrid, initial: np.ndarray) -> np.ndarray:
    """Node rows (c, max(n, 2), N) of z' = C(t) z from the columns of ``initial``
    (n+1, c) by RK4 (row k of column j is its x^(k), row 1 its x'): the block
    maps of ``_block_maps``, carried across the blocks by ``_carry``, at the nodes."""
    local, nodes = _block_maps(ode, grid)
    return _node_rows(local, _carry(local) @ initial, initial, grid.num_points - 1, nodes)


def _propagate(ode: LinearODE, grid: TimeGrid, initial: np.ndarray) -> np.ndarray:
    """``_rk4_scan`` from each column of ``initial`` (n+1, c): state, forcing
    scale; raises IntegrationError at the first node whose state is not finite."""
    # overflow is detected via the finiteness check, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        columns = _rk4_scan(ode, grid, initial)
        states = columns[:, :ode.order]
        total = np.add.reduce(states, axis=None)
    # a finite sum proves every state finite; finite states can still sum past the
    # float range, so only the per-node pass, run when the sum is not finite, raises
    if not np.isfinite(total):
        finite = np.isfinite(states).all(axis=(0, 1))
        if not finite.all():
            node = int(np.argmin(finite))
            raise IntegrationError(f"integration blew up at node {node} "
                                   f"(t = {grid.t0 + node * grid.step:g})")
    return columns


def integrate_ivp(ode: LinearODE, initial_state, grid: TimeGrid) -> Trajectory:
    """Integrate the companion first-order system with classical RK4 (see
    ``_rk4_scan``); raises IntegrationError when a state stops being finite."""
    n = ode.order
    state = np.array(initial_state, dtype=float)
    if state.shape != (n,):
        raise ValueError(f"initial state must have {n} components, got shape {state.shape}")
    rows = _propagate(ode, grid, np.append(state, 1.0)[:, None])[0]
    return Trajectory(grid, rows[:n].T, rows[1])


def homogeneous_basis(ode: LinearODE, grid: TimeGrid) -> tuple[Trajectory, ...]:
    """n fundamental solutions from canonical initial states e_1, ..., e_n.

    The state matrix at t0 is the identity, so the set is linearly
    independent (unit Wronskian at t0).  All n columns share one scan.
    """
    columns = _propagate(ode, grid, np.eye(ode.order + 1, ode.order))
    return tuple(Trajectory(grid, rows[:ode.order].T, rows[1]) for rows in columns)


def boundary_matrix(basis: Sequence[Trajectory], points: Sequence[float]) -> np.ndarray:
    """Matrix with entry [j, i] = value of basis solution i at boundary point j."""
    points = np.array(points, dtype=float)
    return np.column_stack([traj.value(points) for traj in basis])


def _at_points(grid: TimeGrid, rows: np.ndarray, points) -> np.ndarray:
    """The columns of node rows (c, >= 2, N) at ``points``; raises ValueError if a basis column
    (the first len(points)) is subnormal at every point: its few bits would set the weights."""
    at = _hermite(grid, *rows[:, :2].transpose(1, 2, 0), np.array(points, dtype=float))
    top = np.abs(at[:, :len(points)]).max(axis=0)
    if top.min() < np.finfo(float).tiny:
        raise ValueError(f"basis solution {top.argmin() + 1} is at most {top.min():.1e} at the "
                         f"boundary points, below the normal float range")
    return at


def require_invertible(mat: np.ndarray, length: float) -> None:
    """Singularity test on the boundary matrix of a basis over an interval of
    ``length``, with column j scaled by length^-j (basis column j grows like
    length^j / j!), so that the verdict depends on neither the length nor the
    scale of the values; raises NonUniqueCrispSolution."""
    n = mat.shape[0]
    # length^-j is mantissa^-j (at most 2^j) times 2^powers[j]; one more power
    # of two (no effect on the verdict) brings the largest entry below 1 first
    mantissa, exponent = math.frexp(float(length))
    powers = -exponent * np.arange(n)
    top = np.frexp(np.abs(mat).max(axis=0))[1] + powers
    mat = np.ldexp(mat, powers - top.max()) * mantissa ** -np.arange(n)
    row_sum, exponent = math.frexp(float(np.abs(mat).sum(axis=1).max()))
    det = float(np.linalg.det(np.ldexp(mat, -exponent)))  # scaled by a power of two: exact
    scale = row_sum ** n  # the row sums scaled into [0.5, 1), so no overflow
    if abs(det) <= SINGULARITY_RTOL * scale:
        raise NonUniqueCrispSolution(
            f"boundary matrix is numerically singular (|det| = {abs(det):.3e}, "
            f"threshold {SINGULARITY_RTOL * scale:.3e}); the crisp problem has "
            f"no unique solution")


@dataclass(frozen=True)
class WeightBasis:
    """Per-node weight functions of a set of boundary points.

    ``weights[k, i]`` is the i-th weight at grid node k; the weight vector
    at t maps the boundary values to the homogeneous solution value at t,
    so weight i equals 1 at boundary point i and 0 at the others.
    """

    grid: TimeGrid
    boundary_points: tuple[float, ...]
    weights: np.ndarray = field(repr=False)
    weight_slopes: np.ndarray = field(repr=False)

    def weight_at(self, t) -> np.ndarray:
        """Weight vector at t (cubic Hermite off the nodes); for an array
        of times, one weight vector per time."""
        return _hermite(self.grid, self.weights, self.weight_slopes, t)


def _solve_dividing(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Overwrite the right-hand sides ``x`` (rows x[i]) with the solution X of
    ``mat @ X = x``, and return it, by Gaussian elimination with partial
    pivoting on whole rows that divides each pivot row by its pivot: no
    reciprocal pivot is formed, so a right-hand side equal to column j of
    ``mat`` comes back as exactly e_j."""
    a = np.array(mat, dtype=float)
    n = len(a)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p]], x[[k, p]] = a[[p, k]], x[[p, k]]
        x[k] /= a[k, k]
        a[k, k:] /= a[k, k]
        for i in range(k + 1, n):
            x[i] -= a[i, k] * x[k]
            a[i, k:] -= a[i, k] * a[k, k:]
    for k in reversed(range(n)):
        for j in range(k + 1, n):
            x[k] -= a[k, j] * x[j]
    return x


def weight_functions(grid: TimeGrid, basis: np.ndarray, boundary_points: Sequence[float],
                     matrix: np.ndarray | None = None) -> WeightBasis:
    """Weight functions: the basis times the inverse boundary matrix, as one
    dividing solve of the transposed boundary system whose right-hand sides
    are the rows of ``basis`` (n, 2, N), basis solution i's node values and
    slopes, which the weights overwrite and then view, read-only.  The boundary
    ``matrix``, if given, has passed ``require_invertible``.

    Raises ValueError for a subnormal basis column, NonUniqueCrispSolution for a
    singular boundary matrix and UnitPropertyError when rounding leaves the
    weights off the unit property at a boundary point by more than KRONECKER_TOL.
    """
    points = tuple(float(p) for p in boundary_points)
    if matrix is None:
        matrix = _at_points(grid, basis, points)
        require_invertible(matrix, grid.t_end - grid.t0)
    _solve_dividing(matrix.T, basis)
    basis.flags.writeable = False
    wb = WeightBasis(grid, points, *basis.transpose(1, 2, 0))
    miss = np.abs(wb.weight_at(np.array(points)) - np.eye(len(points))).max(axis=1)
    for p, r in zip(points, miss):
        if r > KRONECKER_TOL:
            raise UnitPropertyError(
                f"weight functions miss the unit property at boundary point {p} by "
                f"{r:.1e} (tolerance {KRONECKER_TOL:g}): the boundary system is too "
                f"ill-conditioned for this grid")
    return wb


def _validate_boundary(order: int, boundary) -> tuple[list[float], list]:
    """Points (as floats) and values of n (point, value) pairs at distinct points."""
    boundary = list(boundary)  # may be an iterator; it is read twice
    points = [float(p) for p, _ in boundary]
    values = [v for _, v in boundary]
    if len(points) != order:
        raise ValueError(f"expected {order} boundary conditions, got {len(points)}")
    if len(set(points)) != len(points):
        raise ValueError(f"boundary points must be distinct, got {points}")
    return points, values


def combine(particular: Trajectory, basis: Sequence[Trajectory],
            coefficients: np.ndarray) -> Trajectory:
    """Particular solution plus a linear combination of basis solutions."""
    states = particular.states.copy()
    slopes = particular.slopes.copy()
    for c, traj in zip(coefficients, basis):
        states += c * traj.states
        slopes += c * traj.slopes
    return Trajectory(particular.grid, states, slopes)


def _basis_and_crisp(ode: LinearODE, grid: TimeGrid, points: Sequence[float],
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One scan's node rows (n+1, max(n, 2), N) (see ``_rk4_scan``): columns
    0..n-1 the basis b_j from e_1, ..., e_n, column n the particular solution p from
    the zero state, plus in place the combination that meets ``values`` at ``points``,
    p + c_1 b_1 + ... + c_n b_n summed left to right (within (n+1) eps (|p| + sum |c_j b_j|)
    of the exact sum); and the checked boundary matrix.  Raises NonUniqueCrispSolution
    if it is singular, ValueError for a subnormal basis column or a non-finite crisp solution."""
    n = ode.order
    columns = _propagate(ode, grid, np.eye(n + 1))
    at_points = _at_points(grid, columns, points)
    require_invertible(at_points[:, :n], grid.t_end - grid.t0)
    coefficients = np.linalg.solve(at_points[:, :n], values - at_points[:, n])
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            columns[n] += coefficients[j] * columns[j]
    if not np.isfinite(columns[n]).all():
        raise ValueError("trajectory contains non-finite entries")
    return columns, at_points[:, :n]


def solve_crisp_bvp(ode: LinearODE, boundary, grid: TimeGrid) -> Trajectory:
    """Solve the non-homogeneous problem with n point-value conditions.

    ``boundary`` is a sequence of (point, value) pairs; the points must be
    distinct and inside the grid interval.  One scan gives the basis and a
    particular solution from a zero initial state, which is corrected by
    the basis combination that matches the boundary values.
    """
    points, values = _validate_boundary(ode.order, boundary)
    crisp = _basis_and_crisp(ode, grid, points, np.array(values, dtype=float))[0][-1]
    return Trajectory(grid, crisp[:ode.order].T, crisp[1])
