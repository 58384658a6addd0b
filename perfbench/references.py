"""Independent references for every op, and the checks that use them.

Examples 1 and 2 and the stiff problems have closed forms; the order-4
problem is integrated once per run with scipy's DOP853 at a tight
tolerance.  Nothing here imports the package: the band is rebuilt from the
references by the sign-aware min/max over the weight-scaled alpha-cuts.
"""

from __future__ import annotations

import json
import math

import numpy as np

import workloads

# The shipped verify tolerance; every solve op is held to it as well.
TOLERANCE = workloads.VERIFY_TOLERANCE

ORDER4_COEFFS = (np.sin, lambda t: 1.0 + t**2, lambda t: np.exp(-t), lambda t: -2.0 * np.cos(3.0 * t))


def order4_forcing(t):
    return t**3 - np.sqrt(1.0 + t)


def _ex1(t, a, b):
    e = math.e
    w1 = (np.exp(2 + t) - np.exp(1 + 2 * t)) / (e**2 - e)
    w2 = (np.exp(2 * t) - np.exp(t)) / (e**2 - e)
    # particular solution 2t, which is 0 at t = 0 and 2 at t = 1
    return 2 * t + a * w1 + (b - 2) * w2, np.column_stack([w1, w2])


def _ex2(t, a, b):
    w1 = np.sin(4 * (2 - t)) / np.sin(8)
    w2 = np.sin(4 * t) / np.sin(8)
    # particular solution 3 - t^2/2, which is 3 at t = 0 and 1 at t = 2
    return 3 - t**2 / 2 + (a - 3) * w1 + (b - 1) * w2, np.column_stack([w1, w2])


def _stiff(t, a, b, k):
    w1 = np.sinh(k * (1 - t)) / np.sinh(k)
    w2 = np.sinh(k * t) / np.sinh(k)
    return a * w1 + b * w2, np.column_stack([w1, w2])


class Order4Reference:
    """Basis and particular solution of the order-4 equation, from scipy.

    The equation does not depend on the seed, so one integration per run
    serves every op; only the boundary values change the crisp solution.
    """

    def __init__(self, t_out: np.ndarray):
        from scipy.integrate import solve_ivp

        points = np.array(workloads.ORDER4_POINTS)
        t_eval = np.union1d(t_out, points)

        def rhs(t, s, forced):
            d = np.empty(4)
            d[:3] = s[1:]
            d[3] = (order4_forcing(t) if forced else 0.0) \
                - sum(a(t) * s[3 - i] for i, a in enumerate(ORDER4_COEFFS))
            return d

        columns = []
        starts = [(row, False) for row in np.eye(4)] + [(np.zeros(4), True)]
        for start, forced in starts:
            sol = solve_ivp(rhs, (0.0, 2.0), start, method="DOP853", t_eval=t_eval,
                            rtol=1e-12, atol=1e-12, args=(forced,))
            if not sol.success:
                raise RuntimeError(f"order-4 reference integration failed: {sol.message}")
            columns.append(sol.y[0])
        values = np.column_stack(columns)
        at_points = values[np.searchsorted(t_eval, points)]
        inverse = np.linalg.inv(at_points[:, :4])
        out = np.searchsorted(t_eval, t_out)
        self.weights = values[out, :4] @ inverse
        self.particular = values[out, 4]
        self.particular_at_points = at_points[:, 4]

    def crisp(self, vertices):
        return self.particular + self.weights @ (np.asarray(vertices) - self.particular_at_points)


def _vertex(value: dict) -> float:
    if value["type"] == "triangular":
        return value["m"]
    return 0.5 * (value["lower"][-1] + value["upper"][-1])


def uncertain_cut(value: dict, alpha: float) -> tuple[float, float]:
    """Alpha-cut of the vertex-at-zero part of a fuzzy number's JSON form."""
    if value["type"] == "triangular":
        m = value["m"]
        return (value["l"] - m) * (1 - alpha), (value["r"] - m) * (1 - alpha)
    v = _vertex(value)
    return (float(np.interp(alpha, value["alphas"], value["lower"])) - v,
            float(np.interp(alpha, value["alphas"], value["upper"])) - v)


def band(crisp, weights, values, alphas):
    """Lower and upper band rows, one per sorted distinct level."""
    levels = sorted(set(alphas))
    lower = np.empty((len(levels), len(crisp)))
    upper = np.empty_like(lower)
    for row, alpha in enumerate(levels):
        lo, hi = crisp.copy(), crisp.copy()
        for i, value in enumerate(values):
            c_lo, c_hi = uncertain_cut(value, alpha)
            a, b = weights[:, i] * c_lo, weights[:, i] * c_hi
            lo += np.minimum(a, b)
            hi += np.maximum(a, b)
        lower[row], upper[row] = lo, hi
    return levels, lower, upper


class Expected:
    """Reference output of one op: nodes, levels and band rows."""

    def __init__(self, op, order4: Order4Reference | None = None):
        interval = op.doc["interval"]
        self.t = np.linspace(interval["t0"], interval["T"], op.points)
        values = [c["value"] for c in op.doc["conditions"]]
        vertices = [_vertex(v) for v in values]
        if op.family == "order4":
            crisp, weights = order4.crisp(vertices), order4.weights
        elif op.family == "ex1":
            crisp, weights = _ex1(self.t, *vertices)
        elif op.family == "ex2":
            crisp, weights = _ex2(self.t, *vertices)
        elif op.family == "stiff":
            crisp, weights = _stiff(self.t, *vertices, op.k)
        else:
            raise ValueError(f"no reference for family {op.family!r}")
        self.levels, self.lower, self.upper = band(crisp, weights, values, op.alphas)


def expected_for(ops) -> dict:
    """Reference per op label; ``None`` for verify ops, which check themselves."""
    order4 = None
    if any(op.family == "order4" for op in ops):
        order4 = Order4Reference(np.linspace(0.0, 2.0, workloads.MIX_POINTS))
    return {op.label: None if op.family == "verify" else Expected(op, order4) for op in ops}


def _compare(expected: Expected, t, levels, lower, upper) -> float:
    if list(levels) != list(expected.levels):
        raise ValueError(f"levels {list(levels)} != expected {expected.levels}")
    if lower.shape != expected.lower.shape or upper.shape != expected.upper.shape:
        raise ValueError(f"band shape {lower.shape} != expected {expected.lower.shape}")
    return float(max(np.max(np.abs(t - expected.t)),
                     np.max(np.abs(lower - expected.lower)),
                     np.max(np.abs(upper - expected.upper))))


def check_csv(expected: Expected, path: str) -> float:
    """Largest absolute deviation of a band CSV from the reference."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        table = np.loadtxt(handle, delimiter=",", ndmin=2)
    levels = [float(name.split("_", 1)[1]) for name in header[1::2]]
    return _compare(expected, table[:, 0], levels, table[:, 1::2].T, table[:, 2::2].T)


def check_band(expected: Expected, solution_band) -> float:
    """Largest absolute deviation of a library SolutionBand from the reference."""
    return _compare(expected, solution_band.grid.nodes(), solution_band.alphas,
                    solution_band.lower, solution_band.upper)


def check_verify_report(path: str) -> float:
    """Max deviation of a verify report; raises unless it says it passed."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("passed") is not True:
        raise ValueError(f"verify report says passed = {report.get('passed')!r}")
    return float(report["max_deviation"])
