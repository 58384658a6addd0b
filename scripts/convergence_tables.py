#!/usr/bin/env python3
"""Convergence study: RK4 under step halving, finite differences under mesh
doubling, both measured against the closed-form crisp solution of the first
built-in problem."""

import sys

import numpy as np

from fuzzybvp.ode import LinearODE, TimeGrid, integrate_ivp
from fuzzybvp.oracle import fd_solve

ODE = LinearODE.from_strings(2, ["-3", "2"], "4*t - 6")
E = np.e


def crisp_closed(t):
    return 2 * t + (2 * (np.exp(2 + t) - np.exp(1 + 2 * t))
                    + (np.exp(2 * t) - np.exp(t))) / (E**2 - E)


def basis_closed(t):
    return 2.0 * np.exp(t) - np.exp(2.0 * t)


def rk4_table(step_counts):
    print("RK4 (fixed step, companion system), basis solution with state (1, 0):")
    print(f"{'steps':>8} {'sup error':>14} {'ratio':>8}")
    previous = None
    for steps in step_counts:
        grid = TimeGrid(0.0, 1.0, steps + 1)
        traj = integrate_ivp(ODE.homogeneous(), [1.0, 0.0], grid)
        err = float(np.max(np.abs(traj.values - basis_closed(grid.nodes()))))
        ratio = "" if previous is None else f"{previous / err:8.2f}"
        print(f"{steps:8d} {err:14.3e} {ratio:>8}")
        previous = err
    print()


def fd_table(interior_counts):
    print("central differences + Thomas elimination, crisp two-point problem:")
    print(f"{'m':>8} {'sup error':>14} {'ratio':>8}")
    previous = None
    for m in interior_counts:
        grid = TimeGrid(0.0, 1.0, m + 2)
        x = fd_solve(ODE, 2.0, 3.0, grid)
        err = float(np.max(np.abs(x - crisp_closed(grid.nodes()))))
        ratio = "" if previous is None else f"{previous / err:8.2f}"
        print(f"{m:8d} {err:14.3e} {ratio:>8}")
        previous = err
    print()


def main():
    rk4_table([10, 20, 40, 80, 160])
    fd_table([124, 249, 499, 999, 1999])
    print("expected ratios: ~16 for RK4 (order 4), ~4 for differences (order 2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
