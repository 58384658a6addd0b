"""Crisp machinery: RK4 integration, fundamental bases, weight functions, BVPs.

A linear ODE of order n,

    x^(n) + a_1(t) x^(n-1) + ... + a_n(t) x = f(t),

is integrated as a first-order companion system with classical fixed-step RK4 in
three stages: the block maps, RK4 on the block states through the companion
structure (a shift plus one row), with the coefficients and the forcing read on one
half-step lattice; their carry across the blocks, a log-depth prefix product; and
the node rows, batched products, to which order 1 adds its slope row at the nodes.
One scan from the augmented identity writes a fundamental basis (canonical initial
states) and a particular solution (zero initial state) as node rows of one array,
whose values and slopes (n+1, 2, N) a solve keeps.  The basis combination that meets
the boundary values corrects the particular row into the crisp one in place, and the
weight functions overwrite the basis rows: one solve of the transposed boundary
system, by an elimination that divides by each pivot so that the weights meet the
unit property exactly at on-grid boundary points.

When no coefficient depends on t, as in both examples of the paper, the
homogeneous block maps are the same in every block.  They are then taken on
one block, by the same stage arithmetic, so that the basis and the weights keep
their bits, and only the forcing column differs between blocks: it steps in the
increment form x <- x + (E x + g_j) of RK4 for constant A, E = R(hA) - I, with f
evaluated once on the same lattice.  The homogeneous columns keep the stage
arithmetic on purpose: in increment form too, the unit-property miss of the
weights of x'' = 23^2 x with points 0 and 0.7003 on 2 001 nodes grows from
4.9e-10 to 1.1e-9, past KRONECKER_TOL.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .expressions import ZERO, Expression, is_constant

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


# Coefficients of the powers (hA)^0, ..., (hA)^4 in E = R(hA) - I and in
# 6/h u = (I + hA + (hA)^2/2 + (hA)^3/4) e_n and 6/h v = (4I + 2hA + (hA)^2/2) e_n
# (see ``_constant_maps``)
_RK4_POLYNOMIALS = np.array([[0, 1, 1 / 2, 1 / 6, 1 / 24], [1, 1, 1 / 2, 1 / 4, 0],
                             [4, 2, 1 / 2, 0, 0]])


def _lattice(grid: TimeGrid) -> tuple[int, int, np.ndarray]:
    """Steps per block, number of blocks and the half-step lattice t0 + h/2 k of a
    scan of ``grid``, k = 0, ..., 2 blocks block: block b's stage times are k = 2 block b
    to 2 block (b + 1) and the nodes the even k.  The last block may run past the grid:
    t_end from the last node on, and its states there are dropped."""
    steps = grid.num_points - 1
    # An in-block position costs about 20 numpy calls on arrays of all blocks,
    # a block one small matmul in each of the carry's log2(blocks) products;
    # blocks of sqrt(steps / 16) steps balance the two (within 10% from /32 to /8).
    block = max(1, math.isqrt(steps // 16))
    blocks = -(-steps // block)
    times = np.arange(2.0 * blocks * block + 1)
    times *= 0.5 * grid.step
    times += grid.t0
    times[2 * steps:] = grid.t_end
    return block, blocks, times


def _stage_maps(coeffs: Sequence[np.ndarray], forces: Sequence[np.ndarray] | None,
                h: float) -> np.ndarray:
    """In-block states ``local`` (block, blocks, n, n+1) of z' = C(t) z, ``local[i, b]``
    the map of block b's first i+1 steps of size h, from the rows
    r(t) = (-a_n, ..., -a_1, f) of C on the half-step lattice of the blocks:
    ``coeffs`` 2 block + 1 arrays (n, blocks), ``forces`` as many (blocks,), or
    None for no forcing.

    C(t) = [[A(t), f(t) e_n], [0, 0]] is a shift plus the row r(t), so C X is the
    rows X[1:n] plus one new row sum_j r_j X[j], with r_n added to the forcing
    column: no matmul.  Every block takes RK4 steps of P' = C(t) P from
    P = [I | 0], one in-block position at a time for all blocks at once; P is the
    first n rows of the block's state matrix, whose augmented row stays e_n and is
    never stored.  The states are kept position-major, so that each position's
    store is one contiguous write rather than a scatter at the stride of a whole
    block, and the views the steps read are built once, before the loop.
    """
    (n, blocks), block = coeffs[0].shape, len(coeffs) // 2
    m = n + 1
    # z[:n] holds a stage argument Y and z[n] the new row of C Y, so the
    # stage slope C Y is the view z[1:]; z1[:n] is the in-block state P
    z1, z2, z3, z4 = (np.empty((m, m, blocks)) for _ in range(4))
    prod, total = z1[:n], np.empty((n, m, blocks))
    prod[:] = np.eye(n, m)[:, :, None]
    local = np.empty((block, blocks, n, m))  # in-block states, position-major
    # every view the loop reads, built once: per stage its argument, new row,
    # forcing entry, slope and the next stage's argument
    stages = [(z[:n], z[n], z[n, n], z[1:], None if nxt is None else nxt[:n], a, row)
              for z, nxt, a, row in ((z1, z2, 0.5 * h, 0), (z2, z3, 0.5 * h, 1),
                                     (z3, z4, h, 1), (z4, None, 0.0, 2))]
    slope1, slope2, slope3, slope4 = (stage[3] for stage in stages)
    for i in range(block):
        for arg, new, forcing, slope, nxt, a, row in stages:  # lattice row 2 i + row
            np.einsum("jb,jkb->kb", coeffs[2 * i + row], arg, out=new)
            if forces is not None:
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
    return local


def _block_maps(ode: LinearODE, grid: TimeGrid) -> np.ndarray:
    """In-block states ``local`` (block, blocks, n, n+1) of ``_stage_maps`` on the
    blocks of ``_lattice``.  The coefficients and the forcing are evaluated once on
    the lattice, in time order, so that an EvaluationError names the earliest
    offending time, and laid out as (2 block + 1, n+1, blocks): each stage row
    contiguous.  The lattice is freed on return, before the node rows are allocated."""
    n = ode.order
    block, blocks, times = _lattice(grid)
    rows = np.empty((2 * block + 1, n + 1, blocks))
    for j, expression in enumerate((*reversed(ode.coeffs), ode.forcing)):
        values = expression.evaluate(times)  # stage i of block b: lattice point 2 block b + i
        rows[:-1, j] = values[:-1].reshape(blocks, 2 * block).T
        rows[-1, j] = values[2 * block::2 * block]
    del times, values
    np.negative(rows[:, :n], out=rows[:, :n])
    return _stage_maps(list(rows[:, :n]), list(rows[:, n]), grid.step)


def _constant_maps(ode: LinearODE, grid: TimeGrid) -> tuple:
    """The block maps of an equation whose coefficients do not depend on t, on the
    blocks of ``_lattice``: the homogeneous in-block maps ``maps`` (block, n, n),
    ``maps[i]`` the map of i+1 steps, the same in every block; the forcing columns
    ``forced`` (n, N - 1), column j the state after step j + 1 from the zero state
    at the start of its block; and the end maps [maps[-1] | forcing column] of
    every block but the last, (blocks - 1, n, n+1).

    The maps are ``_stage_maps`` on one block, so that the basis keeps the stage
    arithmetic bit for bit.  For constant A, classical RK4 is x <- x + (E x + g_j)
    with E = R(hA) - I for its stability function R(z) = 1 + z + z^2/2 + z^3/6
    + z^4/24 (Hairer and Wanner, Solving ODEs II, IV.2) and
    g_j = u f(t_j) + v f(t_j + h/2) + w f(t_j + h), where
    u = h/6 (I + hA + (hA)^2/2 + (hA)^3/4) e_n, v = h/6 (4I + 2hA + (hA)^2/2) e_n
    and w = h/6 e_n.  The forcing columns take these steps, in this increment form,
    one in-block position at a time for all blocks at once: E x is small next to
    x, so its rounding is too.  f is evaluated once, in time order, on the lattice.
    """
    n, steps, h = ode.order, grid.num_points - 1, grid.step
    row = np.array([-coeff.evaluate(grid.t0) for coeff in reversed(ode.coeffs)])
    block, blocks, times = _lattice(grid)
    maps = _stage_maps([row[:, None]] * (2 * block + 1), None, h)[:, 0, :, :n]
    powers = np.empty((5, n, n))  # (hA)^0, ..., (hA)^4 for the companion matrix A
    powers[0], powers[1] = np.eye(n), h * np.eye(n, k=1)
    powers[1, -1] = h * row
    for k in (2, 3, 4):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    e = (_RK4_POLYNOMIALS[0] @ powers.reshape(5, -1)).reshape(n, n)
    uv = (_RK4_POLYNOMIALS[1:] @ powers[:, :, -1]).T * (h / 6)  # the columns u and v
    f = ode.forcing.evaluate(times)
    del times
    # g_j, position-major: u f(t_j) + v f(t_j + h/2) from the pairs of f, then w f(t_j + h)
    pairs = f[:-1].reshape(blocks, block, 2).transpose(1, 2, 0)
    forced = np.matmul(uv, pairs)
    forced[:, -1] += f[2::2].reshape(blocks, block).T * (h / 6)
    step = np.empty((n, blocks))
    for prev, cur in zip(forced, forced[1:]):
        np.dot(e, prev, out=step)
        cur += step
        cur += prev
    ends = np.empty((blocks - 1, n, n + 1))
    ends[:, :, :n] = maps[-1]
    ends[:, :, n] = forced[-1, :, :-1].T
    forced = forced.transpose(1, 2, 0).reshape(n, -1)[:, :steps]  # node order, a copy
    return maps, forced, ends


def _carry(ends: np.ndarray) -> np.ndarray:
    """Start maps (blocks, n+1, n+1) of the blocks whose end maps, but the last's, are
    ``ends`` (blocks - 1, n, n+1): map b is the product of the end maps of blocks
    b-1, ..., 0 (map 0 is I; row n stays e_n, so a column without forcing stays free
    of it), all taken by recursive doubling in ceil(log2 blocks) batched products
    (Hillis and Steele, CACM 29, 1986)."""
    blocks, n = len(ends) + 1, ends.shape[1]
    maps = np.zeros((blocks, n + 1, n + 1))
    maps[0], maps[1:, :n], maps[:, n, n] = np.eye(n + 1), ends, 1.0
    for s in (1 << k for k in range((blocks - 1).bit_length())):  # 1, 2, 4, ... < blocks
        maps[s:] = maps[s:] @ maps[:-s]
    return maps


def _node_rows(maps: np.ndarray, starts: np.ndarray, initial: np.ndarray, steps: int,
               forced: np.ndarray | None = None) -> np.ndarray:
    """Node rows (c, max(n, 2), steps + 1) from the columns of ``initial`` (n+1, c)
    and the block starts ``starts`` (blocks, n+1, c): products with the in-block
    states, ``maps`` (block, blocks, n, n+1) of ``_block_maps``, or the shared
    homogeneous maps (block, n, n) and ``forced`` of ``_constant_maps``; for n = 1,
    row 1, the slope, is left to the caller.  The last block may run past the
    grid: the last two are taken at full block shape and the nodes kept."""
    block, blocks, (n, c) = len(maps), len(starts), (len(initial) - 1, initial.shape[1])
    out = np.empty((c, max(n, 2), steps + 1))
    out[:, :n, 0] = initial[:n].T
    lead = None if forced is None else np.ascontiguousarray(starts[:, :n].transpose(2, 0, 1))

    def product(b0, b1, dest):  # the state rows (c, n, (b1 - b0) block) of blocks b0..b1-1
        if forced is None:
            # state row k of column j at node 1 + b block + i is (maps[i, b] @ starts[b])[k, j]
            np.matmul(maps[:, b0:b1].transpose(1, 2, 0, 3), starts[b0:b1, None],
                      out=dest.reshape(c, n, b1 - b0, block).transpose(2, 1, 3, 0))
            return
        # ... is (maps[i] @ starts[b, :n])[k, j], plus the forcing column times the
        # augmented component z_j below: one product of the block starts with the
        # shared maps per column j and row k
        np.matmul(lead[:, None, b0:b1], maps.transpose(1, 2, 0),
                  out=dest.reshape(c, n, b1 - b0, block))

    # the last two blocks at full block shape, as a product of one block would be a
    # vector product, rounded otherwise; the last block may run past the grid
    head = max(blocks - 2, 0)
    product(0, head, out[:, :n, 1:head * block + 1])
    tail = np.empty((c, n, (blocks - head) * block))
    product(head, blocks, tail)
    out[:, :n, head * block + 1:] = tail[:, :, :steps - head * block]
    for j in () if forced is None else np.flatnonzero(initial[n]):  # plus z_j times forced
        out[j, :n, 1:] += forced if initial[n, j] == 1 else initial[n, j] * forced
    return out


def _rk4_scan(ode: LinearODE, grid: TimeGrid, initial: np.ndarray) -> np.ndarray:
    """Node rows (c, max(n, 2), N) of z' = C(t) z from the columns of ``initial``
    (n+1, c) by RK4 (row k of column j is its x^(k), row 1 its x'): the block
    maps, of ``_constant_maps`` when no coefficient depends on t and of
    ``_block_maps`` otherwise, carried across the blocks by ``_carry``, at the
    nodes (``_node_rows``)."""
    if all(map(is_constant, ode.coeffs)):
        maps, forced, ends = _constant_maps(ode, grid)
    else:
        maps, forced = _block_maps(ode, grid), None
        ends = maps[-1, :-1]
    out = _node_rows(maps, _carry(ends) @ initial, initial, grid.num_points - 1, forced)
    if ode.order == 1:  # x' = -a_1 x + z f at the nodes (the lattice's even points),
        t = grid.nodes()  # where the augmented component z stays constant
        out[:, 1] = -ode.coeffs[0].evaluate(t) * out[:, 0]
        out[:, 1] += ode.forcing.evaluate(t) * initial[1][:, None]
    return out


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
    """The columns of node rows (c, >= 2, N) at ``points``, the boundary matrix (the first
    len(points)) checked where it is evaluated: ValueError if a basis column is subnormal at every
    point (its few bits would set the weights), then ``require_invertible`` on the matrix."""
    at = _hermite(grid, *rows[:, :2].transpose(1, 2, 0), np.array(points, dtype=float))
    top = np.abs(at[:, :len(points)]).max(axis=0)
    if top.min() < np.finfo(float).tiny:
        raise ValueError(f"basis solution {top.argmin() + 1} is at most {top.min():.1e} at the "
                         f"boundary points, below the normal float range")
    require_invertible(at[:, :len(points)], grid.t_end - grid.t0)
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
    ``matrix``, if given, comes checked from ``_at_points``.

    Raises ValueError for a subnormal basis column, NonUniqueCrispSolution for a
    singular boundary matrix and UnitPropertyError when rounding leaves the
    weights off the unit property at a boundary point by more than KRONECKER_TOL.
    """
    points = tuple(float(p) for p in boundary_points)
    matrix = _at_points(grid, basis, points) if matrix is None else matrix
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


def _scan(ode: LinearODE, grid: TimeGrid, points: Sequence[float],
          values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One scan's node rows (n+1, max(n, 2), N) (see ``_rk4_scan``), rows 0..n-1 the basis
    b_j from e_1, ..., e_n and row n the particular solution p from the zero state; the
    coefficients c with which ``combine`` meets ``values`` at ``points``; and the boundary
    matrix, checked (NonUniqueCrispSolution, or ValueError for a subnormal column)."""
    n = ode.order
    rows = _propagate(ode, grid, np.eye(n + 1))
    at_points = _at_points(grid, rows, points)
    return rows, np.linalg.solve(at_points[:, :n], values - at_points[:, n]), at_points[:, :n]


def combine(rows: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Add c_1 b_1 + ... + c_n b_n to the particular row p = rows[n] in place, summed
    left to right (within (n+1) eps (|p| + sum |c_j b_j|) of the exact sum), and return
    ``rows``.  Raises ValueError if the crisp row is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        for c, row in zip(coefficients, rows):  # n pairs: stops before p = rows[-1]
            rows[-1] += c * row
    if not np.isfinite(rows[-1]).all():
        raise ValueError("trajectory contains non-finite entries")
    return rows


def solve_crisp_bvp(ode: LinearODE, boundary, grid: TimeGrid) -> Trajectory:
    """Solve the non-homogeneous problem with n point-value conditions.

    ``boundary`` is a sequence of (point, value) pairs; the points must be
    distinct and inside the grid interval.  One scan gives the basis and a
    particular solution from a zero initial state, which is corrected by
    the basis combination that matches the boundary values.
    """
    points, values = _validate_boundary(ode.order, boundary)
    crisp = combine(*_scan(ode, grid, points, np.array(values, dtype=float))[:2])[-1]
    return Trajectory(grid, crisp[:ode.order].T, crisp[1])
