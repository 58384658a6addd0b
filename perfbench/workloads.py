"""Seeded inputs for the benchmark's four workloads.

The seed jitters the fuzzy boundary numbers (vertex and spreads) and the
order of the ops within a round.  Equations, orders, stiffness values, grid
sizes and output sizes are fixed, so the work per op does not depend on
the seed.  The program only ever sees the files or objects made here.

Every op of a workload is expected to succeed.  The stiff files on which
the program fails today (``DEFECT_K``) are kept out of the workloads and
made by ``defect_probe`` instead, which ``report.py`` runs and prints.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("solve-mix", "dense-band", "verify-oracle", "fine-grid")

STIFF_K = (10, 18)
DEFECT_K = (20, 40)
FIVE_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
MIX_POINTS = 101
DENSE_POINTS = 100001
FINE_GRID_NODES = 100001
VERIFY_SAMPLES = 21
VERIFY_MESH = 1999
VERIFY_TOLERANCE = 1e-4

ORDER4_COEFFS = ("sin(t)", "1 + t^2", "exp(-t)", "-2*cos(3*t)")
ORDER4_FORCING = "t^3 - sqrt(1 + t)"
ORDER4_POINTS = (0.0, 0.5, 1.5, 2.0)
PARAMETRIC_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class Op:
    """One unit of work.  ``family`` names the closed form or reference
    that checks it; ``argv`` (CLI ops, without ``--out``) or ``problem``
    (library ops) is what the program receives."""

    label: str
    family: str
    doc: dict = field(repr=False)
    points: int = 0
    alphas: tuple[float, ...] = ()
    argv: tuple[str, ...] | None = None
    problem: object = field(default=None, repr=False)
    k: float = 0.0


def _triangular(rng: random.Random, l: float, m: float, r: float) -> dict:
    vertex = m + rng.uniform(-0.25, 0.25)
    return {"type": "triangular",
            "l": vertex - (m - l) * rng.uniform(0.8, 1.2),
            "m": vertex,
            "r": vertex + (r - m) * rng.uniform(0.8, 1.2)}


def _parametric(rng: random.Random, m: float, left: float, right: float) -> dict:
    vertex = m + rng.uniform(-0.25, 0.25)
    left *= rng.uniform(0.8, 1.2)
    right *= rng.uniform(0.8, 1.2)
    return {"type": "parametric", "alphas": list(PARAMETRIC_LEVELS),
            "lower": [vertex - left * (1.0 - a) ** 2 for a in PARAMETRIC_LEVELS],
            "upper": [vertex + right * (1.0 - a * a) for a in PARAMETRIC_LEVELS]}


def _doc(order, coeffs, forcing, t0, t_end, values, points, alphas) -> dict:
    times = (t0, t_end) if order == 2 else ORDER4_POINTS
    return {"equation": {"order": order, "coeffs": list(coeffs), "forcing": forcing},
            "interval": {"t0": t0, "T": t_end},
            "conditions": [{"t": t, "value": v} for t, v in zip(times, values)],
            "output": {"points": points, "alphas": list(alphas)}}


def example1(rng) -> dict:
    """x'' - 3x' + 2x = 4t - 6 on [0, 1] (the first built-in example)."""
    values = [_triangular(rng, 1.5, 2, 3), _triangular(rng, 2, 3, 4)]
    return _doc(2, ("-3", "2"), "4*t - 6", 0.0, 1.0, values, MIX_POINTS, (0.0, 0.5, 1.0))


def example2(rng) -> dict:
    """x'' + 16x = 47 - 8t^2 on [0, 2] (the second built-in example)."""
    values = [_triangular(rng, 2, 3, 3.5), _triangular(rng, 0.5, 1, 1.5)]
    return _doc(2, ("0", "16"), "47 - 8*t^2", 0.0, 2.0, values, MIX_POINTS, (0.0, 0.6, 1.0))


def order4(rng) -> dict:
    """Order-4, 4-point problem on [0, 2]; the condition at t = 0.5 is parametric."""
    values = [_triangular(rng, 0.5, 1, 1.5), _parametric(rng, 0.0, 0.4, 0.6),
              _triangular(rng, 1.5, 2, 2.2), _triangular(rng, -1, -0.5, 0)]
    return _doc(4, ORDER4_COEFFS, ORDER4_FORCING, 0.0, 2.0, values, MIX_POINTS, FIVE_ALPHAS)


def stiff(rng, k: int) -> dict:
    """x'' = k^2 x on [0, 1]: weights sinh k(1-t)/sinh k and sinh kt/sinh k."""
    values = [_triangular(rng, 0.5, 1, 1.5), _triangular(rng, 1.5, 2, 2.5)]
    return _doc(2, ("0", f"-{k * k}"), "0", 0.0, 1.0, values, MIX_POINTS, (0.0, 0.5, 1.0))


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _solve_op(workdir, label, family, doc, k=0.0) -> Op:
    path = _write(workdir, f"{label}.json", doc)
    out = doc["output"]
    return Op(label, family, doc, out["points"], tuple(out["alphas"]),
              argv=("solve", path), k=k)


def _solve_mix(rng, workdir) -> list[Op]:
    ops = [_solve_op(workdir, "ex1", "ex1", example1(rng)),
           _solve_op(workdir, "ex2", "ex2", example2(rng)),
           _solve_op(workdir, "order4", "order4", order4(rng))]
    ops += [_solve_op(workdir, f"stiff-k{k}", "stiff", stiff(rng, k), k=float(k))
            for k in STIFF_K]
    rng.shuffle(ops)
    return ops


def defect_probe(seed: int, workdir: str) -> list[Op]:
    """The stiff files for ``DEFECT_K``: well posed, expected to succeed,
    and not solved by the program at the seed commit."""
    rng = random.Random(seed)
    return [_solve_op(workdir, f"stiff-k{k}", "stiff", stiff(rng, k), k=float(k))
            for k in DEFECT_K]


def _dense_band(rng, workdir) -> list[Op]:
    doc = example1(rng)
    path = _write(workdir, "ex1-dense.json", doc)
    argv = ("solve", path, "--points", str(DENSE_POINTS),
            "--alphas", ",".join(repr(a) for a in FIVE_ALPHAS), "--format", "csv")
    return [Op("ex1-dense", "ex1", doc, DENSE_POINTS, FIVE_ALPHAS, argv=argv)]


def _verify_oracle(rng, workdir) -> list[Op]:
    ops = []
    for label, doc, alpha in (("ex1-a0", example1(rng), 0.0), ("ex2-a0.6", example2(rng), 0.6)):
        path = _write(workdir, f"{label}.json", doc)
        argv = ("verify", path, "--alpha", repr(alpha), "--samples", str(VERIFY_SAMPLES),
                "--mesh", str(VERIFY_MESH), "--tolerance", repr(VERIFY_TOLERANCE))
        ops.append(Op(label, "verify", doc, alphas=(alpha,), argv=argv))
    rng.shuffle(ops)
    return ops


def _fine_grid(rng, workdir) -> list[Op]:
    from fuzzybvp import FuzzyBVP, LinearODE, TimeGrid, TriangularFuzzyNumber

    doc = example1(rng)
    eq = doc["equation"]
    ode = LinearODE.from_strings(eq["order"], eq["coeffs"], eq["forcing"])
    conditions = tuple(
        (c["t"], TriangularFuzzyNumber(c["value"]["l"], c["value"]["m"], c["value"]["r"]))
        for c in doc["conditions"])
    problem = FuzzyBVP(ode, conditions, TimeGrid(0.0, 1.0, FINE_GRID_NODES))
    return [Op("ex1-fine", "ex1", doc, FINE_GRID_NODES, FIVE_ALPHAS, problem=problem)]


_GENERATORS = {"solve-mix": _solve_mix, "dense-band": _dense_band,
               "verify-oracle": _verify_oracle, "fine-grid": _fine_grid}


def generate(workload: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's input files into ``workdir`` and return one
    round of ops, in the order the seed gives them."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    ops = _GENERATORS[workload](random.Random(seed), workdir)
    if any(op.argv is not None for op in ops):
        import fuzzybvp.cli  # noqa: F401  -- the CLI ops' entry point is part of set-up
    return ops
