#!/usr/bin/env python3
"""Compare the arrays that two source trees compute on a fixed set of solves.

    python scripts/compare_trees.py OLD NEW
    PYTHONPATH=<tree>/src python scripts/compare_trees.py --dump <tree> > arrays.npz

Each tree runs in a fresh interpreter with PYTHONPATH=<tree>/src.  The
solves are examples 1 and 2, the order-4 four-point problem, the stiff
x'' = k^2 x for k = 10 and 18, a forced third-order problem with constant
coefficients, and two first-order problems with one condition at t = 0.3,
x' + 0.7x = sin(2t) + t and x' + (1 + t)x = cos(t) on [0, 1], one for each
of the scan's paths, all on 1 001 nodes; x'' = 23^2 x with points 0 and 0.7003
on 2 001 nodes, the unit-property check's edge case; and example 1 on 100 001
nodes.  For each solve the trees give the solution's columns (values and
slopes of the weights and the crisp solution), a 3-level band on the grid and
a 3-level band on 2 001 points, off the grid's nodes except on the 2 001- and
100 001-node grids.  One line per array gives max |new - old| / (eps * max |old|):
0 when every bit is the same.  A solve that raises is recorded, not fatal: each
of its lines names the exception instead.  The exit status is 0 when both trees
ran, whatever the differences, and 1 when one of them failed.  ``--dump`` writes
one tree's arrays, as an npz, to stdout.

A large figure need not be a large move.  The crisp column is the sum
p + c_1 b_1 + ... + c_n b_n of the particular solution and the weighted
basis, and its rounding scales with max(|p| + sum |c_j b_j|), not with
max |crisp|.  Their ratio, the amplification A, is 19 for example 1, 8.4
for example 2, 8.5 for the order-4 problem, 5.4 for the third-order one,
1.2 and 1.9 for the first-order ones, 1.1e4 for k = 10, 3.3e7 for k = 18 and
4.9e6 for k = 23, where growing basis solutions nearly cancel.  So a crisp move
of 0.11 eps of that sum reads 3.7e6 on stiff-k18/columns: divide a row's figure
by A to read it in eps of the terms, where a sum of n + 1 terms may move by up
to about (n + 1) eps.
"""

import io
import os
import subprocess
import sys

import numpy as np

LEVELS = (0.0, 0.5, 1.0)
OFF_GRID_POINTS = 2001
ARRAYS = ("columns", "band.lower", "band.upper", "off-grid.lower", "off-grid.upper")


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
    order1 = ((0.3, (0.5, 1, 1.5)),)
    return {"ex1": problem(2, *ex1),
            "ex2": problem(2, ("0", "16"), "47 - 8*t^2", 2.0,
                           ((0.0, (2, 3, 3.5)), (2.0, (0.5, 1, 1.5)))),
            "order4": problem(4, *order4),
            "stiff-k10": problem(2, ("0", "-100"), "0", 1.0, stiff),
            "stiff-k18": problem(2, ("0", "-324"), "0", 1.0, stiff),
            "stiff-k23": problem(2, ("0", "-529"), "0", 1.0,
                                 ((0.0, (0.5, 1, 1.5)), (0.7003, (1.5, 2, 2.5))), num_points=2001),
            "order3": problem(3, ("2", "-1", "0.5"), "sin(2*t) + t", 2.0,
                              ((0.0, (0.5, 1, 1.5)), (1.0, (-0.4, 0, 0.6)), (2.0, (1.5, 2, 2.2)))),
            "ex1-100001": problem(2, *ex1, num_points=100001),
            "order1": problem(1, ("0.7",), "sin(2*t) + t", 1.0, order1),
            "order1-t": problem(1, ("1 + t",), "cos(t)", 1.0, order1)}


def dump(tree):
    """Every compared array of ``tree``, written to stdout as an npz."""
    import fuzzybvp
    from fuzzybvp import TimeGrid, solve_fuzzy_bvp

    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(fuzzybvp.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {fuzzybvp.__file__}, not the package under {src}")
    arrays = {}
    for case, problem in _problems().items():
        try:  # a solve that raises on this build (a rounding edge case) keeps its message
            solution = solve_fuzzy_bvp(problem)
            grid = problem.grid
            on_grid = solution.band(LEVELS)
            off_grid = solution.band(LEVELS, grid=TimeGrid(grid.t0, grid.t_end, OFF_GRID_POINTS))
        except Exception as exc:
            arrays[f"{case}/error"] = np.array(f"{type(exc).__name__}: {exc}")
            continue
        computed = (solution.columns, on_grid.lower, on_grid.upper, off_grid.lower, off_grid.upper)
        arrays.update({f"{case}/{kind}": array for kind, array in zip(ARRAYS, computed)})
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
    return load(result.stdout)


def load(data):
    """The arrays of a dump's npz bytes, by name."""
    with np.load(io.BytesIO(data)) as arrays:
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
    report(*(run(tree) for tree in argv))
    return 0


def report(old, new):
    """One line per array of two dumps of this script's solves; a case that raised
    in either dump names its exception on each of its lines."""
    print(f"{'array':<26} max |new - old| / (eps * max |old|)")
    for case in dict.fromkeys(name.split("/")[0] for name in old):
        errors = [f"{side} raised {arrays[case + '/error']}"
                  for side, arrays in (("old", old), ("new", new)) if case + "/error" in arrays]
        for kind in ARRAYS:
            name = f"{case}/{kind}"
            print(f"{name:<26} {'; '.join(errors) or eps_ratio(old[name], new[name])}")


if __name__ == "__main__":
    sys.exit(main())
