"""Fuzzy numbers, alpha-cuts, membership, and the vertex/uncertain split.

Both kinds are read off their branches: lower and upper cut ends at knots in
alpha, linear between them.  A triangle (left, peak, right) has the knots 0 and
1, a parametric number a stored grid.  Membership, sums, scaling and the vertex
split use the branches alone; cuts keep each kind's formula, exact at every knot.
Only fuzzy numbers with a unique vertex of possibility 1 are accepted; trapezoids
are rejected at construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

VERTEX_TOL = 1e-12
DEFAULT_NUM_LEVELS = 101


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")


def _checked_interval(lo: float, hi: float) -> Interval:
    # Endpoints computed from opposite branches can cross by a few ulps
    # near the vertex; collapse instead of failing validation.
    if lo > hi:
        mid = 0.5 * (lo + hi)
        return Interval(mid, mid)
    return Interval(lo, hi)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha + 0.0  # -0.0 is 0.0: a level has one name


class FuzzyNumber:
    """Base of both kinds: ``branches`` is (alphas, lower, upper), knots 0 ... 1 and the
    cut's ends there, and ``_with(lower, upper)`` is a number of the same kind."""

    def membership(self, x: float) -> float:
        """Largest alpha whose cut contains x; 0 outside the support (and for nan)."""
        alphas, lower, upper = self.branches
        if not lower[0] <= x <= upper[0]:
            return 0.0
        return min(_branch_sup(alphas, lower, x, rising=True),
                   _branch_sup(alphas, upper, x, rising=False))

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, c):
        return scale(c, self)

    __rmul__ = __mul__


@dataclass(frozen=True)
class TriangularFuzzyNumber(FuzzyNumber):
    """Triangular fuzzy number with support [left, right] and vertex at peak:
    the two knots alpha = 0 and 1, branches (left, peak) and (right, peak)."""

    left: float
    peak: float
    right: float

    def __post_init__(self):
        for name in ("left", "peak", "right"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.left) and math.isfinite(self.peak)
                and math.isfinite(self.right)):
            raise ValueError("triangular fuzzy number requires finite left, peak, right")
        if not self.left <= self.peak <= self.right:
            raise ValueError(
                f"triangular fuzzy number requires left <= peak <= right, "
                f"got ({self.left}, {self.peak}, {self.right})"
            )

    @property
    def vertex(self) -> float:
        return self.peak

    @property
    def branches(self):
        return np.array([(0.0, 1.0), (self.left, self.peak), (self.right, self.peak)])

    def _with(self, lower, upper) -> "TriangularFuzzyNumber":
        return TriangularFuzzyNumber(lower[0], lower[1], upper[0])

    def alpha_cut(self, alpha: float) -> Interval:
        """Cut at level alpha: [left + alpha*(peak-left), right - alpha*(right-peak)]."""
        alpha = _check_alpha(alpha)
        if alpha == 1.0:
            return Interval(self.peak, self.peak)
        return _checked_interval(self.left + alpha * (self.peak - self.left),
                                 self.right - alpha * (self.right - self.peak))


@dataclass(frozen=True, eq=False)
class ParametricFuzzyNumber(FuzzyNumber):
    """Fuzzy number given by sampled lower/upper branch values on an alpha grid.

    The grid must cover [0, 1] including both ends, the lower branch must be
    non-decreasing, the upper branch non-increasing, and the two branches must
    meet at alpha = 1 (within 1e-12).  Values between stored levels are
    interpolated piecewise-linearly.
    """

    alphas: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, ParametricFuzzyNumber):
            return NotImplemented
        return (np.array_equal(self.alphas, other.alphas)
                and np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper))

    def __post_init__(self):
        # Private copies: instances are immutable and safe to share.
        alphas = np.array(self.alphas, dtype=float)
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if alphas.ndim != 1 or alphas.size < 2:
            raise ValueError("alpha grid must be one-dimensional with at least 2 levels")
        if lower.shape != alphas.shape or upper.shape != alphas.shape:
            raise ValueError("branch arrays must match the alpha grid in length")
        if not (np.isfinite(alphas).all() and np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("alpha grid and branches must be finite")
        if np.any(np.diff(alphas) <= 0.0):
            raise ValueError("alpha grid must be strictly increasing")
        if alphas[0] != 0.0 or alphas[-1] != 1.0:
            raise ValueError("alpha grid must start at 0 and end at 1")
        with np.errstate(over="ignore"):  # a difference past the float range is still signed
            if np.any(np.diff(lower) < -VERTEX_TOL):
                raise ValueError("lower branch must be non-decreasing in alpha")
            if np.any(np.diff(upper) > VERTEX_TOL):
                raise ValueError("upper branch must be non-increasing in alpha")
            if np.any(lower - upper > VERTEX_TOL):
                raise ValueError("lower branch must not exceed upper branch")
            if abs(lower[-1] - upper[-1]) > VERTEX_TOL:
                raise ValueError(
                    "branches must meet at alpha = 1 (unique vertex); "
                    f"got {lower[-1]} and {upper[-1]}"
                )
        for name, arr in (("alphas", alphas), ("lower", lower), ("upper", upper)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_triangular(cls, tri: TriangularFuzzyNumber,
                        num_levels: int = DEFAULT_NUM_LEVELS) -> "ParametricFuzzyNumber":
        alphas = np.linspace(0.0, 1.0, num_levels)
        return cls(alphas, *_read(tri, alphas))

    @property
    def vertex(self) -> float:
        return 0.5 * self.lower[-1] + 0.5 * self.upper[-1]  # no overflow near the float max

    @property
    def branches(self):
        return self.alphas, self.lower, self.upper

    def _with(self, lower, upper) -> "ParametricFuzzyNumber":
        return ParametricFuzzyNumber(self.alphas, lower, upper)

    def alpha_cut(self, alpha: float) -> Interval:
        alpha = _check_alpha(alpha)
        return _checked_interval(np.interp(alpha, self.alphas, self.lower),
                                 np.interp(alpha, self.alphas, self.upper))

    def resample(self, alphas) -> "ParametricFuzzyNumber":
        """Same number re-sampled on another alpha grid (exact on a refinement)."""
        return ParametricFuzzyNumber(alphas, *_read(self, alphas))


def _branch_sup(alphas, values, x, rising):
    """Largest alpha at which the branch still covers x."""
    # values[0] covers x by the support check; j is the last knot still covering
    # x, and the next one does not, so their values differ.
    j = int(np.max(np.nonzero(values <= x if rising else values >= x)))
    if j == len(alphas) - 1:
        return 1.0
    v0, v1 = values[j], values[j + 1]
    h = 0.5 if math.isinf(float(v1) - float(v0)) else 1.0  # halving is exact at that size
    return float(alphas[j] + (h * x - h * v0) * (alphas[j + 1] - alphas[j]) / (h * v1 - h * v0))


def _read(u: FuzzyNumber, alphas):
    """u's branch values at the levels alphas, piecewise linear between its knots."""
    knots, lower, upper = u.branches
    return np.interp(alphas, knots, lower), np.interp(alphas, knots, upper)


def _branches(u) -> tuple:
    """u's branches; a TypeError for anything but a fuzzy number."""
    if not isinstance(u, FuzzyNumber):
        raise TypeError(f"not a fuzzy number: {type(u).__name__}")
    return u.branches


def scale(c: float, u: FuzzyNumber) -> FuzzyNumber:
    """Multiply a fuzzy number by a real constant (level-wise interval scaling)."""
    c = float(c)
    _, lower, upper = _branches(u)
    return u._with(c * lower, c * upper) if c >= 0.0 else u._with(c * upper, c * lower)


def add(u: FuzzyNumber, v: FuzzyNumber) -> FuzzyNumber:
    """Level-wise sum of two fuzzy numbers.

    Operands of one kind on one grid keep their kind.  Otherwise both are
    read as parametric numbers on the union grid (exact, since the branches
    are piecewise linear and the union refines both grids).
    """
    (a, lu, uu), (b, lv, uv) = _branches(u), _branches(v)
    if type(u) is type(v) and np.array_equal(a, b):
        return u._with(lu + lv, uu + uv)
    grid = np.union1d(a, b)
    return ParametricFuzzyNumber(grid, *map(np.add, _read(u, grid), _read(v, grid)))


def split_crisp(u: FuzzyNumber) -> tuple[float, FuzzyNumber]:
    """Split u into its vertex and a vertex-at-zero uncertain part."""
    _, lower, upper = _branches(u)
    v = u.vertex
    with np.errstate(over="ignore"):
        parts = lower - v, upper - v
    if not np.isfinite(parts).all():
        raise ValueError(f"vertex split u - {v:g} of a {type(u).__name__} leaves the float range")
    return v, u._with(*parts)


def _is_number(x) -> bool:
    """Whether x is a JSON number that fits a float (bool excluded)."""
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool)
                                    and abs(x) <= sys.float_info.max)


def fuzzy_from_json(obj) -> FuzzyNumber:
    """Decode a fuzzy number from its problem-file encoding:
    ``{"type": "triangular", "l": ..., "m": ..., "r": ...}`` or
    ``{"type": "parametric", "alphas": [...], "lower": [...], "upper": [...]}``.
    A field holding anything but a JSON number (a list of them for a
    parametric number), or not listed here, is a ValueError naming the field."""
    if not isinstance(obj, dict):
        raise ValueError("fuzzy number must be a JSON object")
    kind = obj.get("type")
    if kind not in ("triangular", "parametric"):
        raise ValueError(f"unknown fuzzy number type: {kind!r}")
    triangular = kind == "triangular"
    fields = ("l", "m", "r") if triangular else ("alphas", "lower", "upper")
    missing = [k for k in fields if k not in obj]
    if missing:
        raise ValueError(f"{kind} fuzzy number missing fields: {', '.join(missing)}")
    unknown = [k for k in obj if k != "type" and k not in fields]
    if unknown:
        raise ValueError(f"{kind} fuzzy number has unknown fields: {', '.join(unknown)}")
    for k in fields:
        if triangular and not _is_number(obj[k]):
            raise ValueError(f"field {k} must be a number")
        if not triangular and not (isinstance(obj[k], list) and all(map(_is_number, obj[k]))):
            raise ValueError(f"field {k} must be a list of numbers")
    return (TriangularFuzzyNumber if triangular else ParametricFuzzyNumber)(*map(obj.get, fields))
