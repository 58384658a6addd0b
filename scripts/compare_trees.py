#!/usr/bin/env python3
"""Compare the arrays that two source trees compute on a fixed set of solves.

    python scripts/compare_trees.py OLD NEW

Each tree runs in a fresh interpreter with PYTHONPATH=<tree>/src.  The
solves are examples 1 and 2, the order-4 four-point problem and the stiff
x'' = k^2 x for k = 10 and 18, all on 1 001 nodes, and example 1 on 100 001
nodes.  For each solve the trees give the solution's columns (values and
slopes of the weights and the crisp solution), a 3-level band on the grid and
a 3-level band on 2 001 points, off the grid's nodes except on the 100 001-node
grid.  One line per array gives max |new - old| / (eps * max |old|): 0 when
every bit is the same.  The exit status is 0 when both trees ran, whatever
the differences, and 1 when one of them failed.
"""

import io
import os
import subprocess
import sys

import numpy as np

LEVELS = (0.0, 0.5, 1.0)
OFF_GRID_POINTS = 2001


def _problems():
    """The solve set, by name.  fuzzybvp is imported only here and in ``dump``,
    in the child interpreter, so that it comes from the tree under test."""
    from fuzzybvp import FuzzyBVP, LinearODE, TimeGrid, TriangularFuzzyNumber

    def problem(order, coeffs, forcing, t_end, conditions, num_points=1001):
        ode = LinearODE.from_strings(order, coeffs, forcing)
        pairs = tuple((t, TriangularFuzzyNumber(*v)) for t, v in conditions)
        return FuzzyBVP(ode, pairs, TimeGrid(0.0, t_end, num_points))

    ex1 = ("-3", "2"), "4*t - 6", 1.0, ((0.0, (1.5, 2, 3)), (1.0, (2, 3, 4)))
    order4 = (("sin(t)", "1 + t^2", "exp(-t)", "-2*cos(3*t)"), "t^3 - sqrt(1 + t)", 2.0,
              ((0.0, (0.5, 1, 1.5)), (0.5, (-0.4, 0, 0.6)), (1.5, (1.5, 2, 2.2)),
               (2.0, (-1, -0.5, 0))))
    stiff = ((0.0, (0.5, 1, 1.5)), (1.0, (1.5, 2, 2.5)))
    return {"ex1": problem(2, *ex1),
            "ex2": problem(2, ("0", "16"), "47 - 8*t^2", 2.0,
                           ((0.0, (2, 3, 3.5)), (2.0, (0.5, 1, 1.5)))),
            "order4": problem(4, *order4),
            "stiff-k10": problem(2, ("0", "-100"), "0", 1.0, stiff),
            "stiff-k18": problem(2, ("0", "-324"), "0", 1.0, stiff),
            "ex1-100001": problem(2, *ex1, num_points=100001)}


def dump(tree):
    """Every compared array of ``tree``, written to stdout as an npz."""
    import fuzzybvp
    from fuzzybvp import TimeGrid, solve_fuzzy_bvp

    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(fuzzybvp.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {fuzzybvp.__file__}, not the package under {src}")
    arrays = {}
    for case, problem in _problems().items():
        solution = solve_fuzzy_bvp(problem)
        grid = problem.grid
        on_grid = solution.band(LEVELS)
        off_grid = solution.band(LEVELS, grid=TimeGrid(grid.t0, grid.t_end, OFF_GRID_POINTS))
        arrays.update({f"{case}/columns": solution.columns,
                       f"{case}/band.lower": on_grid.lower, f"{case}/band.upper": on_grid.upper,
                       f"{case}/off-grid.lower": off_grid.lower,
                       f"{case}/off-grid.upper": off_grid.upper})
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    sys.stdout.buffer.write(buffer.getvalue())


def run(tree):
    """The arrays of ``tree``, computed in a fresh interpreter."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    result = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", tree],
                            env=env, capture_output=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr.decode(errors="replace"))
        raise SystemExit(f"{tree}: the solves failed (exit {result.returncode})")
    with np.load(io.BytesIO(result.stdout)) as arrays:
        return {name: arrays[name] for name in arrays.files}


def eps_ratio(old, new):
    """max |new - old| / (eps * max |old|), 0 for equal bits (NaNs in the same places)."""
    if old.shape != new.shape:
        return f"shape {old.shape} -> {new.shape}"
    if np.array_equal(old, new, equal_nan=True):
        return "0"
    with np.errstate(all="ignore"):
        return f"{np.abs(new - old).max() / (np.finfo(float).eps * np.abs(old).max()):.3g}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--dump":
        dump(argv[1])
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    old, new = (run(tree) for tree in argv)
    print(f"{'array':<26} max |new - old| / (eps * max |old|)")
    for name, array in old.items():  # both trees ran this script's solves: the same names
        print(f"{name:<26} {eps_ratio(array, new[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
