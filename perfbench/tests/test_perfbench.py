"""Tests for the benchmark's own code: references, percentile rule, span
arithmetic, failure accounting and the tracer's rebinding.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import math

import numpy as np
import pytest

import references
import run
import tracer as tracing
import workloads
from fuzzybvp import parse, solve_fuzzy_bvp
from fuzzybvp.cli import problem_from_document
from fuzzybvp.ode import TimeGrid


@pytest.fixture(scope="module")
def mix(tmp_path_factory):
    ops = workloads.generate("solve-mix", 7, str(tmp_path_factory.mktemp("mix")))
    return ops, references.expected_for(ops)


def _solver_band(op):
    problem, _ = problem_from_document(op.doc)
    grid = TimeGrid(problem.grid.t0, problem.grid.t_end, op.points)
    return solve_fuzzy_bvp(problem).band(op.alphas, grid=grid)


@pytest.mark.parametrize("label", ["ex1", "ex2", "order4", "stiff-k10", "stiff-k18"])
def test_references_agree_with_solver_on_passing_files(mix, label):
    ops, expected = mix
    op = next(op for op in ops if op.label == label)
    assert references.check_band(expected[label], _solver_band(op)) < 1e-7


def test_example1_reference_matches_the_published_closed_form():
    t = np.linspace(0.0, 1.0, 11)
    crisp, weights = references._ex1(t, 2.0, 3.0)
    published = 2 * t + (2 * (np.exp(2 + t) - np.exp(1 + 2 * t))
                         + (np.exp(2 * t) - np.exp(t))) / (math.e**2 - math.e)
    assert np.max(np.abs(crisp - published)) < 1e-12
    assert np.allclose(weights[0], [1, 0]) and np.allclose(weights[-1], [0, 1])


def test_order4_reference_functions_match_the_expression_strings():
    t = np.linspace(0.0, 2.0, 7)
    for text, fn in zip(workloads.ORDER4_COEFFS, references.ORDER4_COEFFS):
        expr = parse(text)
        assert np.allclose([expr.evaluate(float(x)) for x in t], fn(t), rtol=1e-14)
    forcing = parse(workloads.ORDER4_FORCING)
    assert np.allclose([forcing.evaluate(float(x)) for x in t], references.order4_forcing(t))


def test_seed_changes_boundary_values_but_not_the_work(tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    a = workloads.generate("solve-mix", 1, str(tmp_path / "a"))
    b = workloads.generate("solve-mix", 1, str(tmp_path / "b"))
    c = workloads.generate("solve-mix", 2, str(tmp_path / "c"))
    assert [op.doc for op in a] == [op.doc for op in b]
    by_label = {op.label: op for op in c}
    for op in a:
        other = by_label[op.label]
        assert op.doc["equation"] == other.doc["equation"]
        assert op.doc["output"] == other.doc["output"]
        assert op.doc["conditions"] != other.doc["conditions"]


def test_tail_percentile_needs_one_hundred_samples():
    assert run.tail_p90_ms([0.001] * 99) is None
    samples = [i / 1000.0 for i in range(100)]
    assert run.tail_p90_ms(samples) == pytest.approx(89.1)


def test_self_time_subtracts_children_only():
    spans = [
        tracing.Span(0, "cli.main", "cli", 0, None, 0.0, 10.0, 10.0),
        tracing.Span(1, "solver.solve", "solver", 0, 0, 1.0, 4.0, 3.0),
        tracing.Span(2, "ode.integrate_ivp", "ode", 0, 1, 1.5, 3.5, 2.0),
        # a coalesced leaf: three calls, 0.25 s busy inside a 1.5 s interval
        tracing.Span(3, "expressions.evaluate", "expressions", 0, 2, 1.6, 3.1, 0.25, 3),
        tracing.Span(4, "cli.format", "cli", 0, 0, 5.0, 6.0, 1.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 1.0, 2: 1.75, 3: 0.25, 4: 1.0})
    busy, self_by_name, calls, by_layer = tracing.totals(spans)
    assert by_layer == pytest.approx({"cli": 7.0, "solver": 1.0, "ode": 1.75,
                                      "expressions": 0.25})
    assert calls["expressions.evaluate"] == 3
    assert sum(by_layer.values()) == pytest.approx(busy["cli.main"])


class _RaisingCli:
    def main(self, argv):
        raise RuntimeError("boom")


def test_a_raising_op_is_counted_not_propagated(tmp_path):
    op = workloads.Op("bad", "ex1", {}, argv=("solve", "missing.json"))
    record = run.run_op(op, str(tmp_path / "out"), None, None, _RaisingCli())
    assert (record.ok, record.wrong, record.outcome, record.note) == \
        (False, False, "RuntimeError", "boom")

    def execute(op, traced, clock):
        return run.run_op(op, str(tmp_path / "out"), None, None, _RaisingCli(), traced, clock)

    records = run.measure([op, op], 0.0, execute)
    assert len(records) == 2 and not any(r.ok for r in records)


def test_wrong_output_is_a_failed_check(mix, tmp_path):
    ops, expected = mix
    op = next(op for op in ops if op.label == "ex1")
    band = _solver_band(op)
    shifted = type(band)(band.grid, band.alphas, band.lower + 1e-3, band.upper + 1e-3)

    class _Package:
        @staticmethod
        def solve_fuzzy_bvp(problem):
            class _Solution:
                def band(self, alphas):
                    return shifted
            return _Solution()

    library_op = workloads.Op("ex1", "ex1", op.doc, op.points, op.alphas, problem=object())
    record = run.run_op(library_op, str(tmp_path / "out"), expected["ex1"], _Package(), None)
    assert (record.ok, record.wrong) == (False, True)
    assert record.error == pytest.approx(1e-3)


def test_tracer_restores_every_name_and_records_layers(mix, tmp_path):
    import fuzzybvp
    import fuzzybvp.cli
    import fuzzybvp.solver
    from fuzzybvp.expressions import BinaryOp

    before = (fuzzybvp.cli.main, fuzzybvp.solver.integrate_ivp, BinaryOp.evaluate,
              fuzzybvp.solver.FuzzySolution.band)
    ops, expected = mix
    op = next(op for op in ops if op.label == "ex1")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        record = run.run_op(op, str(tmp_path / "out"), expected["ex1"], fuzzybvp,
                            fuzzybvp.cli, traced=True)
    finally:
        tracer.uninstall()
    assert record.ok
    assert before == (fuzzybvp.cli.main, fuzzybvp.solver.integrate_ivp, BinaryOp.evaluate,
                      fuzzybvp.solver.FuzzySolution.band)
    busy, _, calls, by_layer = tracing.totals(tracer.spans)
    assert calls["ode.integrate_ivp"] == 3
    assert tracer.counts["ode.rk4_steps"] == 3000
    # three expressions on the 2001-point half-step lattice, per integration
    assert calls["expressions.evaluate"] == 3 * 3 * 2001
    assert tracer.counts["solver.band_points_offgrid"] == op.points
    assert set(by_layer) == {"cli", "fuzzy", "solver", "ode", "expressions"}
    assert [s.parent for s in tracer.spans].count(None) == 1


def test_workloads_hold_no_known_defect_and_the_probe_holds_them(tmp_path):
    ops = workloads.generate("solve-mix", 1, str(tmp_path))
    assert sorted(op.label for op in ops) == ["ex1", "ex2", "order4", "stiff-k10", "stiff-k18"]
    probe = workloads.defect_probe(1, str(tmp_path))
    assert [op.label for op in probe] == ["stiff-k20", "stiff-k40"]


def test_defect_probe_records_every_outcome():
    import report

    records = report.probe_defects(1)
    assert [r.label for r in records] == ["stiff-k20", "stiff-k40"]
    assert all(r.outcome for r in records)


def test_setup_probe_times_set_up_and_reads_the_program_rss(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    setup, peak_rss_mb = run.probe_setup("solve-mix", 1, tmp_path)
    assert len(setup) == 2
    assert all(0.0 < seconds < 60.0 and slowdown > 0.0 for seconds, slowdown in setup)
    assert 10.0 < peak_rss_mb < 1000.0
    assert (tmp_path / "setup-1" / "out").is_file()


def test_op_clock_samples_during_an_op_and_keeps_the_samples_out_of_its_time():
    import signal
    from time import perf_counter

    handler = signal.getsignal(signal.SIGALRM)
    clock = run.OpClock(0.05)
    with clock:
        start = perf_counter()
        while perf_counter() - start < 0.4:
            pass
    assert len(clock.samples) >= 3
    assert clock.seconds < 0.4 + 0.01 - 0.9 * sum(clock.samples)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
