"""Spans around calls into the package's layers, recorded from outside it.

The tracer rebinds public names where the package looks them up (module
globals or class attributes) to wrappers that record a span: name, layer,
start, end, parent and op id.  Nothing in ``src/`` is edited, and
``uninstall`` restores every original.  Spans stay in memory until the run
writes them out.

Expression evaluation is per point and per tree node, so only the
outermost ``Expression.evaluate`` call is a span, and a run of consecutive
such calls under one parent is kept as one record with a call count and
its summed busy time.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "layer", "op", "parent", "start", "end", "busy", "calls")

    def __init__(self, id, name, layer, op, parent, start, end=0.0, busy=0.0, calls=1):
        self.id, self.name, self.layer, self.op, self.parent = id, name, layer, op, parent
        self.start, self.end, self.busy, self.calls = start, end, busy, calls

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _grid_steps(ode, initial_state, grid):
    return {"ode.rk4_steps": grid.num_points - 1}


def _band_points(solution, alphas, grid=None):
    on_grid = grid is None or grid == solution.grid
    nodes = (solution.grid if on_grid else grid).num_points
    return {"solver.band_points_ongrid" if on_grid else "solver.band_points_offgrid": nodes}


def _fd_solves(problem, alpha, samples_per_axis, mesh):
    return {"oracle.fd_solves": samples_per_axis ** 2}


# (owners that look the name up, attribute, span name, layer, counter)
TARGETS = (
    (("fuzzybvp.cli",), "main", "cli.main", "cli", None),
    (("fuzzybvp.cli",), "problem_from_document", "cli.parse", "cli", None),
    (("fuzzybvp.cli",), "band_to_csv", "cli.format", "cli", None),
    (("fuzzybvp.cli",), "band_to_json", "cli.format", "cli", None),
    (("fuzzybvp.cli",), "fuzzy_from_json", "fuzzy.from_json", "fuzzy", None),
    (("fuzzybvp.fuzzy",), "split_crisp", "fuzzy.split_crisp", "fuzzy", None),
    (("fuzzybvp.fuzzy:TriangularFuzzyNumber",), "alpha_cut", "fuzzy.alpha_cut", "fuzzy", None),
    (("fuzzybvp.fuzzy:ParametricFuzzyNumber",), "alpha_cut", "fuzzy.alpha_cut", "fuzzy", None),
    (("fuzzybvp", "fuzzybvp.cli"), "solve_fuzzy_bvp", "solver.solve", "solver", None),
    (("fuzzybvp.solver:FuzzySolution",), "band", "solver.band", "solver", _band_points),
    (("fuzzybvp.solver",), "homogeneous_basis", "ode.homogeneous_basis", "ode", None),
    (("fuzzybvp.solver",), "weight_functions", "ode.weight_functions", "ode", None),
    (("fuzzybvp.solver",), "combine", "ode.combine", "ode", None),
    (("fuzzybvp.solver", "fuzzybvp.ode"), "integrate_ivp", "ode.integrate_ivp", "ode",
     _grid_steps),
    (("fuzzybvp.cli",), "envelope", "oracle.envelope", "oracle", _fd_solves),
    (("fuzzybvp.cli",), "compare", "oracle.compare", "oracle", None),
)

LAYERS = ("cli", "fuzzy", "solver", "ode", "expressions", "oracle")


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder plus the rebinding that feeds it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[Span] = []
        self._last_leaf: Span | None = None
        self._in_leaf = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, self.op, parent, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        self._last_leaf = None
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        span.busy = span.end - span.start
        self._stack.pop()
        self._last_leaf = None

    def leaf(self, name: str, layer: str, start: float, end: float) -> None:
        parent = self._stack[-1].id if self._stack else None
        last = self._last_leaf
        if last is not None and last.name == name and last.parent == parent:
            last.end = end
            last.busy += end - start
            last.calls += 1
            return
        self._last_leaf = Span(len(self.spans), name, layer, self.op, parent, start, end,
                               end - start)
        self.spans.append(self._last_leaf)

    # -- rebinding ------------------------------------------------------
    def _span_wrapper(self, fn, name, layer, counter):
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    self.counts[key] += value
            span = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def _leaf_wrapper(self, fn):
        def evaluate(node, t):
            if self._in_leaf:
                return fn(node, t)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(node, t)
            finally:
                self._in_leaf = False
                self.leaf("expressions.evaluate", "expressions", start, perf_counter())
        return evaluate

    def _rebind(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owners, attr, name, layer, counter in TARGETS:
            resolved = [_resolve(owner) for owner in owners]
            wrapper = self._span_wrapper(getattr(resolved[0], attr), name, layer, counter)
            for owner in resolved:
                self._rebind(owner, attr, wrapper)
        from fuzzybvp.expressions import Expression

        pending = list(Expression.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "evaluate" in vars(cls):
                self._rebind(cls, "evaluate", self._leaf_wrapper(vars(cls)["evaluate"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its busy time minus its children's busy time.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their busy times.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.busy
    return {span.id: span.busy - covered[span.id] for span in spans}


def totals(spans) -> tuple[dict, dict, dict, dict]:
    """Per span name: summed busy time, self time and calls; per layer: self time."""
    own = self_times(spans)
    busy, self_by_name, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    by_layer = defaultdict(float)
    for span in spans:
        busy[span.name] += span.busy
        self_by_name[span.name] += own[span.id]
        calls[span.name] += span.calls
        by_layer[span.layer] += own[span.id]
    return busy, self_by_name, calls, by_layer
