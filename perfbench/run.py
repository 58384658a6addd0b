#!/usr/bin/env python3
"""fuzzybvp benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 15 --trace 0

Ops run in whole rounds (one pass over the workload's inputs, in the order
the seed gives) until the summed op time reaches ``--seconds``.  Every op
is checked against an independent reference outside its timed region.  A
fixed calibration kernel runs between ops and during them to gauge the
host's speed, and the gated op times are rescaled by it.  Set-up time and
peak RSS come from fresh interpreters run before the ops.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` rounds alternate untraced and traced, and it
holds the per-layer metrics.  Lines before it are for people.  See
README.md for the metric definitions and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import references
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
P90_MIN_SAMPLES = 100
# About the median seconds of the calibration kernel on the reference
# machine (Intel Xeon, 2 vCPUs on a shared host, Python 3.11, numpy 2.4).
CALIBRATION_REF_S = 0.004
# Seconds between calibration samples taken during an op.
SAMPLE_INTERVAL_S = 0.25

# A fresh interpreter imports the package and generates the inputs (the
# set-up being timed), says so, and with a last argument of 1 then runs one
# round of ops and prints its peak RSS in KiB.  It never loads the
# references, so that RSS is the program's own.  VmHWM is read rather than
# ru_maxrss, which on Linux carries over the parent's RSS from before exec.
SETUP_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
ops = workloads.generate(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print("ready", flush=True)
if sys.argv[6] == "1":
    import run
    package, cli = run.import_package()
    for op in ops:
        try:
            run.call(op, sys.argv[5] + "/out", package, cli)
        except (Exception, SystemExit):
            pass
    with open("/proc/self/status", encoding="ascii") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@dataclass
class Record:
    """Outcome of one op.  ``wrong`` marks an op that reported success but
    whose output missed its reference: the program's output was incorrect."""

    label: str
    seconds: float
    outcome: str
    ok: bool
    wrong: bool = False
    error: float | None = None
    note: str = ""
    traced: bool = False
    slowdown: float = 1.0

    @property
    def scaled_seconds(self) -> float:
        """Op time rescaled to the reference machine speed."""
        return self.seconds / self.slowdown


def import_package():
    """Import the package from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "fuzzybvp" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'fuzzybvp'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import fuzzybvp
    import fuzzybvp.cli

    if Path(fuzzybvp.__file__).resolve().parent != (SRC / "fuzzybvp").resolve():
        sys.exit(f"perfbench: imported fuzzybvp from {fuzzybvp.__file__}, not from {SRC}")
    return fuzzybvp, fuzzybvp.cli


def call(op, out_path, package, cli):
    """Run one op through the program: ``cli.main`` for file ops, the public
    API for library ops.  Returns the exit code and the library's band."""
    if op.argv is not None:
        return cli.main([*op.argv, "--out", out_path]), None
    return 0, package.solve_fuzzy_bvp(op.problem).band(op.alphas)


def run_op(op, out_path, expected, package, cli, traced=False, clock=None) -> Record:
    """Run and check one op.  Never raises: every failure becomes a Record."""
    if os.path.exists(out_path):
        os.remove(out_path)
    clock = clock or OpClock()
    result = None
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        with clock:
            try:
                code, result = call(op, out_path, package, cli)
                outcome = f"exit {code}"
            except SystemExit as exc:
                outcome = f"SystemExit {exc.code}"
            except Exception as exc:  # the op boundary: record and keep running
                outcome = type(exc).__name__
                print(exc, file=stderr)
    seconds = clock.seconds
    if outcome != "exit 0":
        note = stderr.getvalue().strip().splitlines()
        return Record(op.label, seconds, outcome, False, note=note[-1] if note else "",
                      traced=traced)
    try:
        if op.family == "verify":
            error = references.check_verify_report(out_path)
        elif result is not None:
            error = references.check_band(expected, result)
        else:
            error = references.check_csv(expected, out_path)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return Record(op.label, seconds, outcome, False, wrong=True,
                      note=f"check: {type(exc).__name__}: {exc}", traced=traced)
    ok = error <= references.TOLERANCE
    note = "" if ok else f"max abs error {error:.3e} > {references.TOLERANCE:g}"
    return Record(op.label, seconds, outcome, ok, wrong=not ok, error=error, note=note,
                  traced=traced)


_CAL_MATRIX = np.full((4, 4), 0.01)
_CAL_NODES = np.linspace(0.0, 1.0, 100_000)


def calibrate() -> float:
    """Seconds taken by a fixed kernel of the work the ops are made of:
    numpy calls on 4-vectors, then passes over 10^5 points."""
    start = perf_counter()
    y = np.zeros(4)
    for _ in range(400):
        y = y + 0.001 * (_CAL_MATRIX @ y + 1.0)
    z = _CAL_NODES
    for _ in range(2):
        z = np.sin(z) * 0.5 + _CAL_NODES
    return perf_counter() - start


class OpClock:
    """Times one op.  With ``sample_every`` set, a SIGALRM handler also
    runs the calibration kernel that often during the op, and the kernel's
    time is kept out of the op's time.  The host's speed changes within
    seconds, so samples taken during a long op gauge it better than
    samples taken around it."""

    def __init__(self, sample_every: float | None = None):
        self.sample_every = sample_every
        self.samples: list[float] = []
        self.seconds = 0.0
        self._spent = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append(calibrate())
        self._spent += perf_counter() - start

    def __enter__(self):
        self.samples, self._spent = [], 0.0
        if self.sample_every:
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info):
        if self.sample_every:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._handler)
        self.seconds = perf_counter() - self._start - self._spent


def measure(ops, seconds, execute, tracer=None) -> list[Record]:
    """Closed loop over whole rounds until the summed op time reaches
    ``seconds``.  With a tracer, rounds alternate untraced and traced and
    at least one of each runs.

    The host's speed drifts, so the calibration kernel runs between ops and,
    in untraced rounds, every ``SAMPLE_INTERVAL_S`` during them.  Each
    record's ``slowdown`` is the mean kernel time over those samples (the
    ones just before and after its op and the ones during it), over the
    kernel's reference time."""
    records: list[Record] = []
    timed = 0.0
    rounds = 0
    before = calibrate()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in ops:
                if traced:
                    tracer.op = len(records)
                clock = OpClock(None if traced else SAMPLE_INTERVAL_S)
                record = execute(op, traced, clock)
                after = calibrate()
                samples = [before, *clock.samples, after]
                record.slowdown = statistics.fmean(samples) / CALIBRATION_REF_S
                before = after
                records.append(record)
                timed += record.seconds
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        if timed >= seconds and (tracer is None or rounds >= 2):
            return records


def probe_setup(workload: str, seed: int, tmp: Path) -> tuple[list[tuple[float, float]], float]:
    """Set-up of fresh interpreters, each timed from its start until it has
    imported the package and generated the workload's inputs, as (seconds,
    slowdown) pairs; and the peak RSS in MB of the last one, which then runs
    one round of ops.  The calibration kernel runs before and after each."""
    samples = []
    for i in range(SETUP_PROBES):
        workdir = tmp / f"setup-{i}"
        workdir.mkdir()
        last = i == SETUP_PROBES - 1
        before = calibrate()
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE),
                               workload, str(seed), str(workdir), str(int(last))],
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              text=True) as proc:
            ready = proc.stdout.readline()
            seconds = perf_counter() - start
            rest = proc.stdout.read().split()
        if proc.returncode != 0 or ready != "ready\n":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        samples.append((seconds, (before + calibrate()) / (2.0 * CALIBRATION_REF_S)))
    return samples, int(rest[-1]) / 1024.0


def tail_p90_ms(seconds: list[float]) -> float | None:
    """p90 in ms, only when at least ten samples lie above it."""
    if len(seconds) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(seconds, n=10, method="inclusive")[8] * 1000.0


def end_to_end(records: list[Record], setup: list[tuple[float, float]],
               peak_rss_mb: float) -> dict:
    """The gated metrics: op and set-up times rescaled to the reference
    speed, and the program's peak RSS."""
    scaled = [r.scaled_seconds for r in records]
    ok = sum(r.ok for r in records)
    return {
        "ok_per_scaled_s": (ok / sum(scaled), "1/s", len(records)),
        "op_p50_scaled_ms": (statistics.median(scaled) * 1000.0, "ms", len(records)),
        "setup_s": (statistics.median(t / slowdown for t, slowdown in setup), "s", len(setup)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def wall_clock(records: list[Record], setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Printed but not gated: the unscaled op and set-up times, the host's
    slowdown, the failure ratio and, given enough samples, the p90."""
    times = [r.seconds for r in records]
    n = len(records)
    metrics = {
        "ok_per_s": (sum(r.ok for r in records) / sum(times), "1/s", n),
        "op_p50_ms": (statistics.median(times) * 1000.0, "ms", n),
        "setup_wall_s": (statistics.median(t for t, _ in setup), "s", len(setup)),
        "slowdown": (statistics.median(r.slowdown for r in records), "1", n),
        "fail_ratio": (sum(not r.ok for r in records) / n, "1", n),
    }
    p90 = tail_p90_ms(times)
    if p90 is None:
        return metrics, [f"op_p90_ms omitted: {n} ops < {P90_MIN_SAMPLES}"]
    metrics["op_p90_ms"] = (p90, "ms", n)
    return metrics, []


def per_layer(tracer, records: list[Record]) -> dict:
    traced = [r.seconds for r in records if r.traced]
    untraced = [r.seconds for r in records if not r.traced]
    n = len(traced)
    busy, own, calls, by_layer = tracing.totals(tracer.spans)
    counts = tracer.counts

    def ms(seconds):
        return 1000.0 * seconds / n

    errors = [r.error for r in records if r.error is not None]
    values = {
        "ode.integrate_ivp_ms": (ms(busy["ode.integrate_ivp"]), "ms"),
        "ode.integrate_ivp_calls": (calls["ode.integrate_ivp"] / n, "count"),
        "ode.rk4_steps": (counts["ode.rk4_steps"] / n, "count"),
        "ode.weight_functions_ms": (ms(busy["ode.weight_functions"]), "ms"),
        "ode.self_ms": (ms(by_layer["ode"]), "ms"),
        "expressions.eval_ms": (ms(busy["expressions.evaluate"]), "ms"),
        "expressions.eval_calls": (calls["expressions.evaluate"] / n, "count"),
        "solver.solve_ms": (ms(busy["solver.solve"]), "ms"),
        "solver.solve_self_ms": (ms(own["solver.solve"]), "ms"),
        "solver.band_ms": (ms(busy["solver.band"]), "ms"),
        "solver.band_points_offgrid": (counts["solver.band_points_offgrid"] / n, "count"),
        "solver.band_points_ongrid": (counts["solver.band_points_ongrid"] / n, "count"),
        "solver.self_ms": (ms(by_layer["solver"]), "ms"),
        "cli.parse_ms": (ms(busy["cli.parse"]), "ms"),
        "cli.format_ms": (ms(busy["cli.format"]), "ms"),
        "cli.self_ms": (ms(by_layer["cli"]), "ms"),
        "cli.out_bytes": (counts["cli.out_bytes"] / n, "bytes"),
        "fuzzy.self_ms": (ms(by_layer["fuzzy"]), "ms"),
        "fuzzy.calls": (sum(c for name, c in calls.items() if name.startswith("fuzzy.")) / n,
                        "count"),
        "oracle.envelope_ms": (ms(busy["oracle.envelope"]), "ms"),
        "oracle.fd_solves": (counts["oracle.fd_solves"] / n, "count"),
        "oracle.compare_ms": (ms(busy["oracle.compare"]), "ms"),
        "oracle.self_ms": (ms(by_layer["oracle"]), "ms"),
        "trace.overhead_ms": ((statistics.median(traced) - statistics.median(untraced)) * 1000.0,
                              "ms"),
        "check.max_abs_err": (max(errors) if errors else 0.0, "1"),
    }
    return {name: (value, unit, n) for name, (value, unit) in values.items()}


def by_file(records: list[Record]) -> dict:
    table = {}
    for label in dict.fromkeys(r.label for r in records):
        mine = [r for r in records if r.label == label]
        outcomes = dict(Counter(r.outcome for r in mine))
        errors = [r.error for r in mine if r.error is not None]
        notes = sorted({r.note for r in mine if r.note})
        table[label] = {"ops": len(mine), "ok": sum(r.ok for r in mine), "outcomes": outcomes,
                        "p50_ms": statistics.median(r.seconds for r in mine) * 1000.0,
                        "max_abs_err": max(errors) if errors else None, "notes": notes}
    return table


def report(args, records, metrics, extra, notes) -> None:
    attempted = len(records)
    failed = sum(not r.ok for r in records)
    files = by_file(records)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    for label, row in files.items():
        err = "-" if row["max_abs_err"] is None else f"{row['max_abs_err']:.2e}"
        outcomes = ", ".join(f"{k} x{v}" for k, v in row["outcomes"].items())
        print(f"  {label:<10} ok {row['ok']}/{row['ops']}  p50 {row['p50_ms']:9.2f} ms  "
              f"max err {err}  [{outcomes}] {'; '.join(row['notes'])}")
    for name, (value, unit, samples) in {**metrics, **extra}.items():
        print(f"  {name:<28} {value:14.6g} {unit:<6} (n={samples})")
    for note in notes:
        print(f"  {note}")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "files": files, "notes": notes,
              "metrics": {name: {"value": v, "unit": u, "samples": n}
                          for name, (v, u, n) in {**metrics, **extra}.items()}}
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not any(r.wrong for r in records),
                      "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one fuzzybvp benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package, cli = import_package()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        ops = workloads.generate(args.workload, args.seed, str(tmp))
        expected = references.expected_for(ops)
        out_path = str(tmp / "out")
        tracer = tracing.Tracer() if args.trace else None

        def execute(op, traced, clock):
            record = run_op(op, out_path, expected[op.label], package, cli, traced, clock)
            if traced and op.argv is not None and os.path.exists(out_path):
                tracer.counts["cli.out_bytes"] += os.path.getsize(out_path)
            return record

        if tracer is None:
            setup, peak_rss_mb = probe_setup(args.workload, args.seed, tmp)
            records = measure(ops, args.seconds, execute)
            metrics = end_to_end(records, setup, peak_rss_mb)
            extra, notes = wall_clock(records, setup)
        else:
            records = measure(ops, args.seconds, execute, tracer)
            metrics = per_layer(tracer, records)
            own = tracing.totals(tracer.spans)[3]
            top = max(tracing.LAYERS, key=lambda layer: own[layer])
            notes = [f"largest self time: {top}"]
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
            extra = {}
        report(args, records, metrics, extra, notes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
