#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print one report.

Usage, from the root of a checkout:

    python3 perfbench/report.py --seed 1 --seconds 15

Each workload runs in its own process (``run.py``), first with tracing off
for the end-to-end metrics and then with tracing on for the per-layer
metrics.  It then runs the known-defect files once, and ends with run
metadata and the ROADMAP's hand-timed baseline next to the matching
measured numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import references
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (case, hand-timed value, unit, workload, trace, how to read it from run.py's detail)
ROADMAP_BASELINE = (
    ("solve example 1 (1001 nodes)", 76, "ms", "solve-mix", 0,
     lambda d: d["files"]["ex1"]["p50_ms"]),
    ("one 1000-step integrate_ivp", 20, "ms", "solve-mix", 1,
     lambda d: d["metrics"]["ode.integrate_ivp_ms"]["value"]
     / d["metrics"]["ode.integrate_ivp_calls"]["value"]),
    ("order-4 multipoint solve", 160, "ms", "solve-mix", 0,
     lambda d: d["files"]["order4"]["p50_ms"]),
    ("example 1 at 100 001 nodes", 6700, "ms", "fine-grid", 0,
     lambda d: d["metrics"]["op_p50_ms"]["value"]),
    ("2001-point off-grid band", 16, "ms", "verify-oracle", 1,
     lambda d: d["metrics"]["solver.band_ms"]["value"]),
    ("oracle 21x21 at mesh 1999", 600, "ms", "verify-oracle", 1,
     lambda d: d["metrics"]["oracle.envelope_ms"]["value"]),
)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    detail["result"] = json.loads(lines[-1])
    return detail


def probe_defects(seed: int) -> list:
    """Run each known-defect file once, checked like a workload op."""
    package, cli = run.import_package()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        ops = workloads.defect_probe(seed, str(tmp))
        expected = references.expected_for(ops)
        return [run.run_op(op, str(tmp / "out"), expected[op.label], package, cli)
                for op in ops]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


def metadata() -> dict:
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted((ROOT / "src").rglob("*.py")))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {"src_lines": src_lines, "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run all fuzzybvp benchmark workloads.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()

    runs = {(w, t): run_workload(w, args.seed, args.seconds, t)
            for w in workloads.WORKLOADS for t in (0, 1)}
    for trace, title in ((0, "end-to-end (tracing off)"), (1, "per layer (traced run), per op")):
        print(f"== {title}, seed {args.seed}, {args.seconds:g} s per run ==")
        for workload in workloads.WORKLOADS:
            detail = runs[(workload, trace)]
            result = detail["result"]
            print(f"-- {workload}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for name, m in detail["metrics"].items():
                print(f"   {name:<28} {m['value']:14.6g} {m['unit']:<6} n={m['samples']}")
            for note in detail["notes"]:
                print(f"   {note}")
            if trace == 0:
                for label, row in detail["files"].items():
                    print(f"   file {label:<10} ok {row['ok']}/{row['ops']} "
                          f"outcomes {row['outcomes']} p50 {row['p50_ms']:.1f} ms")
    print("== known defects (not in any workload; success expected) ==")
    for record in probe_defects(args.seed):
        status = "ok" if record.ok else "FAILED"
        print(f"   {record.label:<10} {status:<6} {record.outcome:<14} "
              f"{record.seconds * 1000.0:8.1f} ms  {record.note}")
    print("== ROADMAP hand-timed baseline vs this run ==")
    for case, value, unit, workload, trace, read in ROADMAP_BASELINE:
        measured = read(runs[(workload, trace)])
        print(f"   {case:<32} roadmap {value:>6} {unit}  measured {measured:9.1f} {unit}  "
              f"(x{measured / value:.2f}, {workload}{', traced' if trace else ''})")
    print("== run metadata ==")
    for key, value in metadata().items():
        print(f"   {key:<10} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
