#!/usr/bin/env python3
"""Solve the two built-in problems end to end and summarize the results.

For each problem this prints the crisp solution and weight functions at a
few probe times, a small alpha-cut band table, and the deviation between
the solver band and the brute-force finite-difference envelope.
"""

import argparse
import sys

import numpy as np

from fuzzybvp.cli import example_problem_document, problem_from_document
from fuzzybvp.ode import TimeGrid
from fuzzybvp.oracle import compare, envelope
from fuzzybvp.solver import solve_fuzzy_bvp


def summarize(which, mesh_points, band_alphas):
    problem, _ = problem_from_document(example_problem_document(which))
    solution = solve_fuzzy_bvp(problem)
    t0, t_end = problem.grid.t0, problem.grid.t_end

    print(f"=== built-in problem {which} on [{t0:g}, {t_end:g}] ===")
    probes = np.linspace(t0, t_end, 5)
    print(f"{'t':>6} {'x_cr(t)':>12} {'w1(t)':>12} {'w2(t)':>12}")
    for t in probes:
        w = solution.weight_basis.weight_at(float(t))
        print(f"{t:6.2f} {solution.crisp.value(float(t)):12.6f} {w[0]:12.6f} {w[1]:12.6f}")

    print(f"\nband at alpha = {', '.join(f'{a:g}' for a in band_alphas)}:")
    header = f"{'t':>6}"
    for alpha in band_alphas:
        header += f"  [{'lo_' + format(alpha, 'g'):>9} {'hi_' + format(alpha, 'g'):>9}]"
    print(header)
    for t in probes:
        row = f"{t:6.2f}"
        for alpha in band_alphas:
            cut = solution.value_at(float(t), alpha)
            row += f"  [{cut.lo:9.5f} {cut.hi:9.5f}]"
        print(row)

    grid = TimeGrid(t0, t_end, mesh_points + 2)
    report = compare(solution.band([0.0], grid=grid), envelope(problem, 0.0, 2, grid))
    print(f"\noracle check (m = {mesh_points}, support level): "
          f"max deviation {report.max_deviation:.3e}")
    print()
    return report.max_deviation


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mesh", type=int, default=1999,
                        help="interior points for the oracle mesh (default 1999)")
    args = parser.parse_args(argv)

    dev1 = summarize(1, args.mesh, (0.0, 0.5, 1.0))
    dev2 = summarize(2, args.mesh, (0.0, 0.6, 1.0))
    worst = max(dev1, dev2)
    print(f"worst band/oracle deviation across both problems: {worst:.3e}")
    return 0 if worst <= 1e-4 else 1


if __name__ == "__main__":
    sys.exit(main())
