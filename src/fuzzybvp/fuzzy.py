"""Fuzzy numbers, alpha-cuts, membership, and the vertex/uncertain split.

Two representations are supported: triangular numbers (left, peak, right)
and parametric numbers stored as sampled branch functions on an alpha grid
with piecewise-linear interpolation between levels.  Only fuzzy numbers
with a unique vertex of possibility 1 are accepted; trapezoids are
rejected at construction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Union

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
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
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


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Triangular fuzzy number with support [left, right] and vertex at peak."""

    left: float
    peak: float
    right: float

    def __post_init__(self):
        for name in ("left", "peak", "right"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (np.isfinite(self.left) and np.isfinite(self.peak) and np.isfinite(self.right)):
            raise ValueError("triangular fuzzy number requires finite left, peak, right")
        if not self.left <= self.peak <= self.right:
            raise ValueError(
                f"triangular fuzzy number requires left <= peak <= right, "
                f"got ({self.left}, {self.peak}, {self.right})"
            )

    @property
    def vertex(self) -> float:
        return self.peak

    def alpha_cut(self, alpha: float) -> Interval:
        """Cut at level alpha: [left + alpha*(peak-left), right - alpha*(right-peak)]."""
        alpha = _check_alpha(alpha)
        if alpha == 1.0:
            return Interval(self.peak, self.peak)
        lo = self.left + alpha * (self.peak - self.left)
        hi = self.right - alpha * (self.right - self.peak)
        return _checked_interval(lo, hi)

    def membership(self, x: float) -> float:
        """Largest alpha whose cut contains x; 0 outside the support (and for nan)."""
        if not self.left <= x <= self.right:
            return 0.0
        if x == self.peak:
            return 1.0
        if x < self.peak:
            return (x - self.left) / (self.peak - self.left)
        return (self.right - x) / (self.right - self.peak)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, c):
        return scale(c, self)

    __rmul__ = __mul__


def _interp_branch(alphas: np.ndarray, values: np.ndarray, alpha: float) -> float:
    """Piecewise-linear branch value at alpha (alphas strictly increasing).

    Exact at every stored level, including the last one.
    """
    if alpha >= alphas[-1]:
        return float(values[-1])
    idx = int(np.searchsorted(alphas, alpha, side="right")) - 1
    idx = min(max(idx, 0), len(alphas) - 2)
    a0, a1 = alphas[idx], alphas[idx + 1]
    return values[idx] + (alpha - a0) * (values[idx + 1] - values[idx]) / (a1 - a0)


@dataclass(frozen=True, eq=False)
class ParametricFuzzyNumber:
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
        return cls(alphas, *_sample_linear_tri(tri, alphas))

    @property
    def vertex(self) -> float:
        return 0.5 * self.lower[-1] + 0.5 * self.upper[-1]  # no overflow near the float max

    def alpha_cut(self, alpha: float) -> Interval:
        alpha = _check_alpha(alpha)
        lo = _interp_branch(self.alphas, self.lower, alpha)
        hi = _interp_branch(self.alphas, self.upper, alpha)
        return _checked_interval(float(lo), float(hi))

    def membership(self, x: float) -> float:
        """Largest alpha with lower(alpha) <= x <= upper(alpha); 0 outside the
        support (and for nan)."""
        if not self.lower[0] <= x <= self.upper[0]:
            return 0.0
        return min(self._branch_sup(self.alphas, self.lower, x, rising=True),
                   self._branch_sup(self.alphas, self.upper, x, rising=False))

    @staticmethod
    def _branch_sup(alphas, values, x, rising):
        """Largest alpha at which the branch still covers x."""
        ok = values <= x if rising else values >= x
        # ok[0] holds by the support check; find the last knot still covering x.
        j = int(np.max(np.nonzero(ok)))
        if j == len(alphas) - 1:
            return 1.0
        v0, v1 = values[j], values[j + 1]
        if v0 == v1:
            return float(alphas[j])
        return float(alphas[j] + (x - v0) * (alphas[j + 1] - alphas[j]) / (v1 - v0))

    def resample(self, alphas) -> "ParametricFuzzyNumber":
        """Same number re-sampled on another alpha grid (exact on a refinement)."""
        alphas = np.asarray(alphas, dtype=float)
        lower = np.array([_interp_branch(self.alphas, self.lower, a) for a in alphas])
        upper = np.array([_interp_branch(self.alphas, self.upper, a) for a in alphas])
        return ParametricFuzzyNumber(alphas, lower, upper)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, c):
        return scale(c, self)

    __rmul__ = __mul__


FuzzyNumber = Union[TriangularFuzzyNumber, ParametricFuzzyNumber]


def scale(c: float, u: FuzzyNumber) -> FuzzyNumber:
    """Multiply a fuzzy number by a real constant (level-wise interval scaling)."""
    c = float(c)
    if isinstance(u, TriangularFuzzyNumber):
        if c >= 0.0:
            return TriangularFuzzyNumber(c * u.left, c * u.peak, c * u.right)
        return TriangularFuzzyNumber(c * u.right, c * u.peak, c * u.left)
    if isinstance(u, ParametricFuzzyNumber):
        if c >= 0.0:
            return ParametricFuzzyNumber(u.alphas, c * u.lower, c * u.upper)
        return ParametricFuzzyNumber(u.alphas, c * u.upper, c * u.lower)
    raise TypeError(f"not a fuzzy number: {type(u).__name__}")


def add(u: FuzzyNumber, v: FuzzyNumber) -> FuzzyNumber:
    """Level-wise sum of two fuzzy numbers.

    Triangular operands stay triangular.  Mixed operands promote the
    triangular one to parametric form; parametric operands on different
    grids are resampled onto the union grid (exact, since the branches are
    piecewise linear and the union refines both grids).
    """
    if isinstance(u, TriangularFuzzyNumber) and isinstance(v, TriangularFuzzyNumber):
        return TriangularFuzzyNumber(u.left + v.left, u.peak + v.peak, u.right + v.right)
    # Promote a triangular operand onto the other grid (exact: linear branches).
    if isinstance(u, TriangularFuzzyNumber):
        u = ParametricFuzzyNumber(v.alphas, *_sample_linear_tri(u, v.alphas))
    if isinstance(v, TriangularFuzzyNumber):
        v = ParametricFuzzyNumber(u.alphas, *_sample_linear_tri(v, u.alphas))
    if not np.array_equal(u.alphas, v.alphas):
        grid = np.union1d(u.alphas, v.alphas)
        u = u.resample(grid)
        v = v.resample(grid)
    return ParametricFuzzyNumber(u.alphas, u.lower + v.lower, u.upper + v.upper)


def _sample_linear_tri(tri: TriangularFuzzyNumber, alphas: np.ndarray):
    return (tri.left + alphas * (tri.peak - tri.left),
            tri.right - alphas * (tri.right - tri.peak))


def split_crisp(u: FuzzyNumber) -> tuple[float, FuzzyNumber]:
    """Split u into its vertex and a vertex-at-zero uncertain part."""
    if isinstance(u, TriangularFuzzyNumber):
        v = u.peak
        return v, TriangularFuzzyNumber(u.left - v, 0.0, u.right - v)
    if isinstance(u, ParametricFuzzyNumber):
        v = u.vertex
        return v, ParametricFuzzyNumber(u.alphas, u.lower - v, u.upper - v)
    raise TypeError(f"not a fuzzy number: {type(u).__name__}")


def _is_number(x) -> bool:
    """Whether x is a JSON number that fits a float (bool excluded)."""
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool)
                                    and abs(x) <= sys.float_info.max)


def fuzzy_from_json(obj) -> FuzzyNumber:
    """Decode a fuzzy number from its problem-file encoding:
    ``{"type": "triangular", "l": ..., "m": ..., "r": ...}`` or
    ``{"type": "parametric", "alphas": [...], "lower": [...], "upper": [...]}``.
    A field holding anything but a JSON number (a list of them for a
    parametric number) is a ValueError naming the field."""
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
    for k in fields:
        if triangular and not _is_number(obj[k]):
            raise ValueError(f"field {k} must be a number")
        if not triangular and not (isinstance(obj[k], list) and all(map(_is_number, obj[k]))):
            raise ValueError(f"field {k} must be a list of numbers")
    return (TriangularFuzzyNumber if triangular else ParametricFuzzyNumber)(*map(obj.get, fields))
