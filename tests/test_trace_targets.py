"""The benchmark tracer (perfbench/tracer.py) rebinds names of the package by
string and counts the oracle's solves from ``envelope``'s positional
arguments.  A refactor that drops or renames one of them, or passes one by
another name, would break a traced benchmark run without failing any other
test, so this loads the tracer by path, traces a CSV and a JSON CLI solve
and a CLI verify of example 1, and checks the spans, the counts and the
restore."""

import importlib.util
import json
from pathlib import Path

import pytest

from fuzzybvp import cli
from fuzzybvp.expressions import Expression

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rebound_names(tracing):
    """(owner, attribute, current object) for every name the tracer rebinds."""
    names = []
    for owners, attr, *_ in tracing.TARGETS:
        for owner in owners:
            resolved = tracing._resolve(owner)
            names.append((resolved, attr, vars(resolved)[attr]))
    pending = list(Expression.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "evaluate" in vars(cls):
            names.append((cls, "evaluate", vars(cls)["evaluate"]))
    return names


def assert_restored(tracing, before):
    after = rebound_names(tracing)
    assert len(after) == len(before)
    for (owner, attr, original), (_, _, restored) in zip(before, after):
        assert restored is original, f"{owner!r}.{attr} was not restored"


def test_traced_solve_records_layers_and_uninstall_restores_every_name(tracing, tmp_path):
    before = rebound_names(tracing)
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(cli.example_problem_document(1)), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
        tracer.op = 0
        assert cli.main(["solve", str(path), "--out", str(tmp_path / "band.csv")]) == 0
        # the CSV is computed block by block; the JSON band still goes through band()
        assert cli.main(["solve", str(path), "--format", "json",
                         "--out", str(tmp_path / "band.json")]) == 0
    finally:
        tracer.uninstall()
    assert_restored(tracing, before)

    _, _, calls, _ = tracing.totals(tracer.spans)
    for name in ("cli.main", "cli.parse", "fuzzy.from_json", "solver.solve",
                 "ode.weight_functions", "solver.band", "cli.format"):
        assert calls[name] >= 1, name
    solve = next(s for s in tracer.spans if s.name == "solver.solve")
    weights = next(s for s in tracer.spans if s.name == "ode.weight_functions")
    assert weights.parent == solve.id
    # the crisp correction is its own span, once in each of the two solves
    solves = [s.id for s in tracer.spans if s.name == "solver.solve"]
    assert [s.parent for s in tracer.spans if s.name == "ode.combine"] == solves
    # one scan per solve, of the two solves: two coefficients and the
    # forcing, each evaluated once as an array on the half-step lattice
    assert calls["expressions.evaluate"] == 2 * 3


def test_traced_verify_records_the_oracle_and_uninstall_restores_every_name(tracing, tmp_path):
    before = rebound_names(tracing)
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(cli.example_problem_document(1)), encoding="utf-8")
    samples = 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        assert cli.main(["verify", str(path), "--samples", str(samples), "--mesh", "9",
                         "--tolerance", "1", "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    assert_restored(tracing, before)

    _, _, calls, _ = tracing.totals(tracer.spans)
    assert calls["oracle.envelope"] == calls["oracle.compare"] == 1
    assert tracer.counts["oracle.fd_solves"] == samples ** 2
    main = next(s for s in tracer.spans if s.name == "cli.main")
    assert all(s.parent == main.id for s in tracer.spans if s.layer == "oracle")
