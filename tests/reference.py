"""Reference values and problem builders shared across the test suite.

The closed forms below are the independent oracles: they are evaluated
directly (never through the solver) and the solver output is compared
against them.
"""

import functools
import json
import math

import numpy as np

from fuzzybvp import TriangularFuzzyNumber
from fuzzybvp import ode as ode_module
from fuzzybvp.expressions import ExpressionSyntaxError
from fuzzybvp.ode import LinearODE, TimeGrid
from fuzzybvp.oracle import _interior_coefficients
from fuzzybvp.solver import FuzzyBVP, solve_fuzzy_bvp

E = math.e

# --- Example problem A: x'' - 3x' + 2x = 4t - 6 on [0, 1] ---------------
# x(0) = (1.5, 2, 3), x(1) = (2, 3, 4).  Fundamental pair {e^t, e^{2t}}.


def ex1_w1(t):
    return (math.exp(2 + t) - math.exp(1 + 2 * t)) / (E**2 - E)


def ex1_w2(t):
    return (math.exp(2 * t) - math.exp(t)) / (E**2 - E)


def ex1_crisp(t):
    return 2 * t + (2 * (math.exp(2 + t) - math.exp(1 + 2 * t))
                    + (math.exp(2 * t) - math.exp(t))) / (E**2 - E)


def ex1_basis1(t):
    # combination of {e^t, e^{2t}} with x(0) = 1, x'(0) = 0
    return 2 * math.exp(t) - math.exp(2 * t)


def ex1_basis2(t):
    # combination with x(0) = 0, x'(0) = 1
    return math.exp(2 * t) - math.exp(t)


# --- Example problem B: x'' + 16x = 47 - 8t^2 on [0, 2] -----------------
# x(0) = (2, 3, 3.5), x(2) = (0.5, 1, 1.5).  Fundamental pair {cos 4t, sin 4t}.


def ex2_w1(t):
    return math.sin(8 - 4 * t) / math.sin(8)


def ex2_w2(t):
    return math.sin(4 * t) / math.sin(8)


def ex2_crisp(t):
    return 3 - 0.5 * t * t


def make_example1(num_points=1001):
    ode = LinearODE.from_strings(2, ["-3", "2"], "4*t - 6")
    conditions = ((0.0, TriangularFuzzyNumber(1.5, 2.0, 3.0)),
                  (1.0, TriangularFuzzyNumber(2.0, 3.0, 4.0)))
    return FuzzyBVP(ode, conditions, TimeGrid(0.0, 1.0, num_points))


def make_example2(num_points=1001):
    ode = LinearODE.from_strings(2, ["0", "16"], "47 - 8*t^2")
    conditions = ((0.0, TriangularFuzzyNumber(2.0, 3.0, 3.5)),
                  (2.0, TriangularFuzzyNumber(0.5, 1.0, 1.5)))
    return FuzzyBVP(ode, conditions, TimeGrid(0.0, 2.0, num_points))


@functools.lru_cache(maxsize=None)
def solved_example1():
    return solve_fuzzy_bvp(make_example1())


@functools.lru_cache(maxsize=None)
def solved_example2():
    return solve_fuzzy_bvp(make_example2())


# --- Singularity verdict before the power-of-two scaling -----------------
# ``ode.require_invertible`` as it was: the determinant and the n-th power
# of the largest row sum of the unscaled matrix.  ``float(...) ** n``
# raises OverflowError once that row sum passes ~1e154 (n = 2).


def singular_unscaled(mat, length, rtol=1e-12):
    """Whether the unscaled formula calls ``mat`` singular; None where its
    numbers leave the float range (an overflow in the column scaling or the
    row sums, OverflowError, an infinite determinant, or a threshold below
    the smallest normal float)."""
    n = mat.shape[0]
    with np.errstate(all="ignore"):
        mat = mat * float(length) ** -np.arange(n)
        det = float(np.linalg.det(mat))
        row_sum = float(np.abs(mat).sum(axis=1).max())
    try:
        threshold = rtol * row_sum ** n
    except OverflowError:
        return None
    if not math.isfinite(det) or not np.finfo(float).tiny <= threshold < math.inf:
        return None
    return abs(det) <= threshold


# --- Sequential block carry ----------------------------------------------
# ``ode._rk4_scan`` with the block-to-block carry as it was before the
# log-depth carry: block b starts from block b-1's end map times block b-1's
# start, one small product per block.  The block maps and the node rows are
# the scan's own (``_block_maps``, ``_node_rows``, and for order 1 the slope row
# x' = -a_1 x + z f at the nodes), so the reference differs from the scan only in
# its carry.  The prefix product only reassociates these products, so the node
# rows agree to rounding.


def rk4_scan_sequential(ode, grid, initial):
    """``ode._rk4_scan``'s node rows (c, max(n, 2), N) from the columns of
    ``initial`` (n+1, c), with the block-to-block carry one block map after
    another."""
    local = ode_module._block_maps(ode, grid)
    starts = np.empty((local.shape[1],) + initial.shape)
    starts[:] = initial
    for b in range(1, len(starts)):
        starts[b, :ode.order] = local[-1, b - 1] @ starts[b - 1]
    rows = ode_module._node_rows(local, starts, initial, grid.num_points - 1)
    if ode.order == 1:
        t = grid.nodes()
        rows[:, 1] = (-ode.coeffs[0].evaluate(t) * rows[:, 0]
                      + ode.forcing.evaluate(t) * initial[1][:, None])
    return rows


# --- Per-level cut loop ---------------------------------------------------
# ``FuzzySolution._cuts`` as it was before the cut table: one level at a
# time, with each part's alpha-cut taken per level.  The table, broadcast
# over the levels, must give the same bits.


def cuts_per_level(parts, columns, levels):
    """(lower, upper), each (levels,) + columns.shape[:-1], of the values
    whose last axis holds the weights of ``parts`` and then the crisp value."""
    lower = np.empty((len(levels),) + columns.shape[:-1])
    upper = np.empty_like(lower)
    for k, alpha in enumerate(levels):
        lo, hi = lower[k, ...], upper[k, ...]
        lo[...] = hi[...] = columns[..., -1]
        for i, part in enumerate(parts):
            cut = part.alpha_cut(alpha)
            a = columns[..., i] * cut.lo
            b = columns[..., i] * cut.hi
            lo += np.minimum(a, b)
            hi += np.maximum(a, b)
    return lower, upper


# --- Hermite interpolation with the node axis first -----------------------
# ``ode._hermite`` as it was when it gathered whole node rows (node axis
# first) and broadcast the s-polynomials over them.  It reads its arrays node
# axis last now, with the same float operations per entry, so the two must
# agree bit for bit.


def hermite_node_first(grid, values, slopes, t):
    t = np.asarray(t, dtype=float)
    h = grid.step
    q = (t - grid.t0) / h
    nearest = np.rint(q)
    q = np.where(np.abs(q - nearest) <= ode_module.SNAP_TOL * np.maximum(q, 1.0), nearest, q)
    i = np.maximum(np.minimum(np.floor(q), grid.num_points - 2), 0).astype(np.intp)
    s = (q - i).reshape(t.shape + (1,) * (values.ndim - 1))
    s2 = s * s
    s3, j = s2 * s, i + 1
    return ((2.0 * s3 - 3.0 * s2 + 1.0) * values[i] + (s3 - 2.0 * s2 + s) * h * slopes[i]
            + (-2.0 * s3 + 3.0 * s2) * values[j] + (s3 - s2) * h * slopes[j])


# --- Scalar finite-difference reference ----------------------------------
# One plain-float Thomas solve per (left, right) pair, min/max accumulated
# pair by pair.  The oracle's shared-factorization kernel must match it bit
# for bit, because it runs the same float operations for every pair.


def thomas(sub, diag, sup, rhs):
    m = len(diag)
    ratios = [0.0] * m
    partial = [0.0] * m
    pivot = diag[0]
    partial[0] = rhs[0] / pivot
    for i in range(1, m):
        ratios[i - 1] = sup[i - 1] / pivot
        pivot = diag[i] - sub[i] * ratios[i - 1]
        partial[i] = (rhs[i] - sub[i] * partial[i - 1]) / pivot
    x = [0.0] * m
    x[m - 1] = partial[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = partial[i] - ratios[i] * x[i + 1]
    return x


def _solve_pair(coefficients, left_value, right_value):
    sub, diag, sup, force = coefficients
    rhs = list(force)
    rhs[0] -= sub[0] * left_value
    rhs[-1] -= sup[-1] * right_value
    return np.array([left_value, *thomas(sub, diag, sup, rhs), right_value])


def _scalar_coefficients(ode, grid):
    return [c.tolist() for c in _interior_coefficients(ode, grid)]


def fd_solve_scalar(ode, left_value, right_value, grid):
    return _solve_pair(_scalar_coefficients(ode, grid), left_value, right_value)


def envelope_scalar(problem, alpha, samples_per_axis, grid):
    """(lower, upper) for conditions at the two grid ends, in that order."""
    (_, left), (_, right) = problem.conditions
    left_cut, right_cut = left.alpha_cut(alpha), right.alpha_cut(alpha)
    coefficients = _scalar_coefficients(problem.ode, grid)
    lower = np.full(grid.num_points, np.inf)
    upper = np.full(grid.num_points, -np.inf)
    for a in np.linspace(left_cut.lo, left_cut.hi, samples_per_axis):
        for b in np.linspace(right_cut.lo, right_cut.hi, samples_per_axis):
            x = _solve_pair(coefficients, float(a), float(b))
            np.minimum(lower, x, out=lower)
            np.maximum(upper, x, out=upper)
    return lower, upper


# --- Per-cell output formatting reference ---------------------------------
# One f"{x:.12g}" per number, as the CLI wrote its output before it
# formatted in blocks.  The digit-arithmetic writer must produce the same
# bytes.


def fmt12(x):
    return f"{x:.12g}"


def round_tree(obj):
    if isinstance(obj, float):
        return float(fmt12(obj))
    if isinstance(obj, dict):
        return {k: round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_tree(v) for v in obj]
    return obj


def rows_text(cells, first="%.12g"):
    """One number at a time: the first column with ``first``, the others with
    ``%.12g``, cells joined by "," and each row ended by a newline."""
    return "".join(",".join([first % row[0]] + [fmt12(x) for x in row[1:]]) + "\n"
                   for row in cells.tolist())


def band_to_csv(band):
    header = "t"
    for alpha in band.alphas:
        header += f",lower_{fmt12(alpha)},upper_{fmt12(alpha)}"
    lines = [header]
    nodes = [float(t) for t in band.grid.nodes()]
    # t is written with 17 digits when 12 would print two nodes alike
    t_texts = [fmt12(t) for t in nodes]
    if len(set(t_texts)) < len(t_texts):
        t_texts = [f"{t:.17g}" for t in nodes]
    for i in range(band.grid.num_points):
        cells = [t_texts[i]]
        for k in range(len(band.alphas)):
            cells.append(fmt12(float(band.lower[k, i])))
            cells.append(fmt12(float(band.upper[k, i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def band_to_json(band):
    nodes = [float(t) for t in band.grid.nodes()]
    doc = round_tree({
        "grid": {"t0": band.grid.t0, "t_end": band.grid.t_end,
                 "num_points": band.grid.num_points},
        "alphas": list(band.alphas),
        "t": nodes,
        "levels": [
            {"alpha": alpha, "lower": list(band.lower[k]), "upper": list(band.upper[k])}
            for k, alpha in enumerate(band.alphas)
        ],
    })
    # t is written unrounded when 12 digits would print two nodes alike
    if len(set(map(fmt12, nodes))) < len(nodes):
        doc["t"] = nodes
    return json.dumps(doc, indent=2) + "\n"


# --- Character-loop tokenizer ---------------------------------------------
# The expression scanner as it was before the regular-expression tokenizer.
# Both must give the same (kind, text, position) tokens, or the same error,
# on every string without a numeric character that is not a decimal digit
# (this scanner reads "²" into a number, which float() then rejects).


def tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(("number", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens
