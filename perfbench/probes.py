"""Boundary spans around calls into each ``repro`` layer.

:func:`install` wraps a fixed list of public callables so that every
call, from the benchmark's own code or from inside ``repro`` (a figure
extractor simulating through ``ExperimentMatrix``, ``System`` building
its cores), records a span: name, start, end, parent span and cell id.
Only coarse entry points are wrapped — at most a few calls per cell — so
the untraced pass pays nothing measurable.  Spans stay in memory; a
forked pool worker appends its spans to a spool file after each cell,
because its memory dies with it.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

# A span record: [pid, id, parent id or -1, name, cell id, start, end].


class Spans:
    """In-memory span recorder for one process (and its forked workers)."""

    def __init__(self, spool: Optional[Path] = None) -> None:
        self.records: list[list] = []
        self.spool = spool
        self.owner_pid = os.getpid()
        self._stack: list[int] = []
        self._cell = ""
        self._next_id = 0

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        outer_cell = self._cell
        if cell is not None:
            self._cell = cell
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append([os.getpid(), span_id, parent, name,
                                 self._cell, start, end])
            self._cell = outer_cell

    def flush_worker(self) -> None:
        """In a forked pool worker: append and drop this worker's spans."""
        pid = os.getpid()
        if pid == self.owner_pid or self.spool is None:
            return
        # The fork copied the owner's records; spool only this worker's.
        mine = [r for r in self.records if r[0] == pid]
        with (self.spool / f"spans-{pid}.jsonl").open("a") as fh:
            fh.write(json.dumps(mine) + "\n")
        self.records = []

    def collect_spool(self) -> None:
        """In the owner: fold every worker's spooled spans back in."""
        if self.spool is None:
            return
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                self.records.extend(json.loads(line))
            path.unlink()


def totals(records: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds
    (duration minus the time its child spans cover)."""
    child_time: dict[tuple[int, int], float] = {}
    for pid, _sid, parent, _name, _cell, start, end in records:
        if parent >= 0:
            key = (pid, parent)
            child_time[key] = child_time.get(key, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for pid, sid, _parent, name, _cell, start, end in records:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get((pid, sid), 0.0)
    return out


def _wrap(spans: Spans, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def probe(*args: Any, **kwargs: Any) -> Any:
        with spans.span(name):
            return fn(*args, **kwargs)
    return probe


def _wrap_cell(spans: Spans, fn: Callable) -> Callable:
    """``simulate_cell`` runs one matrix cell, in process or in a pool
    worker: open a cell span named after the spec and spool afterwards."""
    @functools.wraps(fn)
    def probe(spec: Any) -> Any:
        try:
            with spans.span("analysis.cell", cell=spec.label):
                return fn(spec)
        finally:
            spans.flush_worker()
    return probe


#: (module, attribute path, span name).  ``run.per_layer`` reads the
#: boundary metrics off these span names.
PROBES = (
    ("repro.workloads", "build_workload", "workloads.build"),
    ("repro.config", "build_named_config", "config.build"),
    ("repro.core.processor", "Processor.__init__", "core.construct"),
    ("repro.core.processor", "Processor.warm_up", "fastpath.warmup"),
    ("repro.core.processor", "Processor.run", "core.run"),
    ("repro.fastpath.engine", "run_two_tier", "fastpath.two_tier"),
    ("repro.isa.interpreter", "Interpreter.run_warm", "lane.interp"),
    ("repro.isa.interpreter", "Interpreter.run_warm_jit", "lane.jit"),
    ("repro.energy.model", "EnergyModel.compute", "energy.compute"),
    ("repro.multicore", "System.__init__", "multicore.construct"),
    ("repro.multicore", "System.warm_up", "multicore.warmup"),
    ("repro.multicore", "System.run", "multicore.run"),
    ("repro.analysis.experiments", "ExperimentMatrix.prefetch",
     "analysis.prefetch"),
    ("repro.analysis.experiments", "ExperimentMatrix.save", "analysis.save"),
)


def install(spans: Spans) -> Callable[[], None]:
    """Wrap every probe point; returns a function that restores them."""
    import importlib

    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, wrapper: Callable) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for module_name, path, span_name in PROBES:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        patch(owner, attr, _wrap(spans, span_name, getattr(owner, attr)))
    parallel = importlib.import_module("repro.analysis.parallel")
    patch(parallel, "simulate_cell", _wrap_cell(spans,
                                                parallel.simulate_cell))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
