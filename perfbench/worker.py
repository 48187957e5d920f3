"""One measured process of the benchmark, started by ``run.py`` in a
fresh interpreter: a set-up probe, a pass over a workload's cells, or
the interpreter oracle.

Every pass starts from a fresh interpreter because the jit's code cache
is process-global: a second pass in the same process would hide the
translation time every ``repro`` invocation pays.

Usage (internal): ``python3 -m perfbench.worker '<json request>'``; the
result is written as JSON to ``request["out"]``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import pstats
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional

from . import layers, probes
from .spec import (MC_SHARE, SAMPLED_STRIDE, Cell, Plan, make_plan)

#: ``SimStats`` fields the per-layer counts are derived from.
COUNT_FIELDS = (
    "cycles", "committed_insts", "fetched_uops", "dispatched_uops",
    "cond_branches", "cond_mispredicts", "llc_accesses", "llc_hits",
    "dram_reads", "dram_row_hits", "dram_activates", "prefetches_issued",
    "prefetches_useful", "runahead_intervals", "runahead_misses_generated",
    "cycles_in_rab", "cycles_in_traditional", "chain_cache_hits",
    "chain_cache_misses",
)


def state_digest(regs, words: dict[int, int]) -> str:
    """Digest of an architectural state: registers plus data memory."""
    blob = json.dumps([list(regs), sorted(words.items())])
    return hashlib.sha256(blob.encode()).hexdigest()


def _fingerprint(stats: dict[str, Any], sampling: Optional[dict]) -> str:
    from repro.fastpath import stats_fingerprint
    return hashlib.sha256(
        stats_fingerprint(stats, sampling).encode()).hexdigest()


def _counts(stats: dict[str, Any]) -> dict[str, int]:
    return {name: stats[name] for name in COUNT_FIELDS}


def _arch_state(kernel: str, proc) -> dict[str, Any]:
    """The committed architectural state, for the oracle.  Collapses the
    processor to its architectural point, so call it after timing."""
    proc.sync_architectural()
    return {"kernel": kernel,
            "insts": proc.ff_instructions + proc.committed,
            "digest": state_digest(proc.rename.arch_values(),
                                   proc.memory.snapshot())}


def _reset_peak_rss() -> None:
    """Start a new peak-RSS window (Linux ``clear_refs``), so the checks
    between timed stretches do not count toward the pass's peak."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # no window reset: the peak then includes the checks


def _peak_rss_kb() -> int:
    """Peak resident set of this process since the last window reset."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _Pass:
    """Shared state of one pass: plan, spans, the timed clock, the
    peak-RSS window and, for a traced pass, the profiler."""

    def __init__(self, request: dict[str, Any]) -> None:
        self.request = request
        self.tmp = Path(request["tmp"])
        self.spans = probes.Spans(spool=self.tmp)
        self.uninstall = probes.install(self.spans)
        self.profiler = cProfile.Profile() if request.get("traced") else None
        self.plan: Plan = make_plan(request["workload"], request["seed"],
                                    small=request.get("small", False))
        # Successive passes of a run rotate the seeded order, so that a
        # run's medians do not hinge on which cell happens to go first
        # (peak RSS depends on what ran before the largest cell).
        cells = self.plan.cells
        turn = request.get("rotate", 0) % len(cells)
        self.cells = cells[turn:] + cells[:turn]
        self.wall_s = 0.0
        self.peak_kb = 0

    @contextmanager
    def timed(self) -> Iterator[None]:
        """One stretch of the timed pass; checks run between stretches."""
        _reset_peak_rss()
        if self.profiler is not None:
            self.profiler.enable()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start
            if self.profiler is not None:
                self.profiler.disable()
            self.peak_kb = max(self.peak_kb, _peak_rss_kb())

    def profile_layers(self) -> dict[str, Any]:
        if self.profiler is None:
            return {}
        grouped, rows = layers.group(pstats.Stats(self.profiler).stats)
        return {"layers": grouped, "functions": rows[:60],
                "unmapped_hot": layers.unmapped_hot(rows)}


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- single-core cells (detailed-mem, sampled-ff) -------------------------------

def _build_single(cell: Cell):
    import repro.config as config
    import repro.workloads as workloads
    from repro.core.processor import Processor

    built = workloads.build_workload(cell.kernel)
    cfg = config.build_named_config(cell.config)
    proc = Processor(built.program, cfg, memory=built.memory,
                     init_regs=built.init_regs)
    proc.ff_lane = "jit"
    return proc, cfg


def _run_single(cell: Cell, proc, cfg, sampled: bool):
    from repro.config import SamplingConfig
    from repro.energy.model import EnergyModel
    from repro.fastpath import engine

    proc.warm_up(cell.warmup)
    meta = None
    if sampled:
        plan = SamplingConfig(tier="two-level",
                              stride_instructions=SAMPLED_STRIDE)
        meta = engine.run_two_tier(proc, plan, cell.instructions)
        stats = proc.stats
        advanced = meta["instructions_advanced"]
    else:
        stats = proc.run(cell.instructions)
        advanced = stats.committed_insts
    energy = EnergyModel(cfg.energy, cfg.core.clock_ghz).compute(
        stats.energy_events, stats.cycles)
    stats.energy_report = energy.to_dict()
    return stats, meta, advanced


def _single_pass(ctx: _Pass, t_spawn: float) -> dict[str, Any]:
    plan = ctx.plan
    sampled = plan.workload == "sampled-ff"
    with ctx.spans.span("setup", cell=ctx.cells[0].id):
        built = _build_single(ctx.cells[0])
    ready = time.monotonic()
    if ctx.request.get("setup_only"):
        return {"setup_s": ready - t_spawn}
    cells = []
    for index, cell in enumerate(ctx.cells):
        record: dict[str, Any] = {"id": cell.id, "ok": False, "error": None}
        proc = None
        try:
            with ctx.timed(), ctx.spans.span("cell", cell=cell.id):
                proc, cfg = built if index == 0 else _build_single(cell)
                built = None  # hold one cell's processor at a time
                stats, meta, advanced = _run_single(cell, proc, cfg, sampled)
        except Exception as exc:  # a failed cell is counted, not fatal
            record["error"] = _error(exc)
        if record["error"] is None:
            stats_dict = stats.to_dict()
            record.update(
                ok=advanced >= cell.instructions,
                instructions=advanced,
                ff_instructions=proc.ff_instructions,
                translate_s=proc.ff_translate_seconds,
                fingerprint=_fingerprint(stats_dict, meta),
                counts=_counts(stats_dict),
                sampling={k: meta[k] for k in (
                    "detailed_seconds", "fast_forward_seconds",
                    "fast_forward_instructions")} if meta else None,
                arch=[_arch_state(cell.kernel, proc)],
                oracle=cell.id in plan.oracle)
            if not record["ok"]:
                record["error"] = (f"stopped at {advanced} of "
                                   f"{cell.instructions} instructions")
        cells.append(record)
        # Free the finished cell's processor graph (it holds cycles)
        # now rather than whenever the collector next runs.
        del proc
        gc.collect()
    return {"setup_s": ready - t_spawn, "cells": cells,
            "instructions": sum(c.get("instructions", 0) for c in cells),
            "ff_instructions": sum(c.get("ff_instructions", 0)
                                   for c in cells)}


# -- multi-core (mc-shared) -------------------------------------------------------

def _mc_pass(ctx: _Pass, t_spawn: float) -> dict[str, Any]:
    import repro.config as config
    import repro.workloads as workloads
    from repro.energy.model import EnergyModel
    from repro.multicore import CoreSpec, System

    (cell,) = ctx.cells
    kernels = cell.kernel.split(",")
    names = cell.config.split(",")
    with ctx.spans.span("setup", cell=cell.id):
        specs = [CoreSpec(workloads.build_workload(k),
                          config.build_named_config(c), c)
                 for k, c in zip(kernels, names)]
        system = System(specs, share=MC_SHARE)
    ready = time.monotonic()
    if ctx.request.get("setup_only"):
        return {"setup_s": ready - t_spawn}
    record: dict[str, Any] = {"id": cell.id, "ok": False, "error": None}
    try:
        with ctx.timed(), ctx.spans.span("cell", cell=cell.id):
            system.warm_up(cell.warmup)
            per_core = system.run(cell.instructions)
            for spec, stats in zip(specs, per_core):
                energy = EnergyModel(spec.config.energy,
                                     spec.config.core.clock_ghz).compute(
                    stats.energy_events, stats.cycles)
                stats.energy_report = energy.to_dict()
            shared = system.shared_stats()
    except Exception as exc:  # a failed cell is counted, not fatal
        record["error"] = _error(exc)
    if record["error"] is None:
        dicts = [s.to_dict() for s in per_core]
        short = [i for i, s in enumerate(per_core)
                 if s.committed_insts < cell.instructions]
        record.update(
            ok=not short,
            error=f"cores {short} stopped short" if short else None,
            instructions=sum(s.committed_insts for s in per_core),
            ff_instructions=sum(c.ff_instructions for c in system.cores),
            translate_s=sum(c.ff_translate_seconds for c in system.cores),
            fingerprint=hashlib.sha256(json.dumps(
                [_fingerprint(d, None) for d in dicts]
                + [shared], sort_keys=True).encode()).hexdigest(),
            counts=[_counts(d) for d in dicts],
            shared={
                "cross_core_evictions":
                    shared["contention"]["cross_core_evictions"],
                "mshr_contended_rejections":
                    shared["contention"]["mshr_contended_rejections"],
                "progress_share_min": min(
                    f["progress_share"] for f in shared["fairness"]),
                # Per-core stats do not see the shared controller's
                # row-buffer outcomes; the shared view does.
                "dram_reads": shared["dram"]["reads"],
                "dram_row_hits": shared["dram"]["row_hits"],
                "dram_activates": shared["dram"]["activates"],
            },
            arch=[_arch_state(k, core)
                  for k, core in zip(kernels, system.cores)],
            oracle=cell.id in ctx.plan.oracle)
    return {"setup_s": ready - t_spawn, "cells": [record],
            "instructions": record.get("instructions", 0),
            "ff_instructions": record.get("ff_instructions", 0)}


# -- the figure suite (suite-cold) --------------------------------------------------

def _render_all(ctx: _Pass, matrix, directory: Path) -> None:
    """What ``repro suite`` does after its prefetch: every table, each
    followed by a cache flush."""
    from repro.analysis.report import write_report
    from repro.cli import FIGURES

    for fig_id, (extractor, filename) in FIGURES.items():
        with ctx.spans.span("analysis.render", cell=f"figure:{fig_id}"):
            write_report(extractor(matrix), filename, directory=directory)
            matrix.save()


def _suite_pass(ctx: _Pass, t_spawn: float) -> dict[str, Any]:
    """The cold ``repro suite``: prefetch with ``jobs`` workers into an
    empty cache, then render every table.  With ``subset`` it runs the
    plan's traced subset with ``jobs=1`` in process instead, rendering
    from ``full_cache`` when given."""
    from repro.analysis import figures
    from repro.analysis.experiments import ExperimentMatrix
    from repro.cli import FIGURES

    plan = ctx.plan
    in_process = ctx.request.get("subset", False)
    cells = plan.traced_subset if in_process else ctx.cells
    first = cells[0]
    with ctx.spans.span("setup", cell=first.id):
        _build_single(first)
    ready = time.monotonic()
    if ctx.request.get("setup_only"):
        return {"setup_s": ready - t_spawn}
    budgets = {"instructions": first.instructions, "warmup": first.warmup}
    cache = ctx.tmp / "experiments.json"
    fig_dir = ctx.tmp / "figures"
    wanted = [(c.kernel, c.config, c.chains) for c in cells]
    matrix = ExperimentMatrix(cache_path=cache, **budgets)
    error = None
    try:
        with ctx.timed():
            matrix.prefetch(wanted,
                            jobs=1 if in_process else ctx.request["jobs"])
            if not in_process:
                _render_all(ctx, matrix, fig_dir)
            elif ctx.request.get("full_cache"):
                _render_all(ctx, ExperimentMatrix(
                    cache_path=ctx.request["full_cache"], **budgets),
                    fig_dir)
    except Exception as exc:  # reported through the cells it left missing
        error = _error(exc)
    ctx.spans.collect_spool()

    simulated = ExperimentMatrix(cache_path=None,
                                 **budgets).missing_cells(wanted)
    records = []
    instructions = 0
    for cell in cells:
        key = (cell.kernel, cell.config, cell.chains)
        ok = matrix.is_cached(*key)
        record = {"id": cell.id, "ok": ok,
                  "error": None if ok else error or "missing from the matrix"}
        if ok:
            stats = matrix.get(*key)
            record.update(fingerprint=_fingerprint(stats,
                                                   stats.get("sampling")))
            if key in simulated:
                record["counts"] = _counts(stats)
                instructions += stats["committed_insts"]
        records.append(record)
    extra: dict[str, Any] = {}
    if not in_process:
        root = Path(ctx.request["root"])
        for fig_id, (_extractor, filename) in FIGURES.items():
            produced = fig_dir / filename
            same = produced.is_file() and produced.read_bytes() == (
                root / "results" / "figures" / filename).read_bytes()
            records.append({
                "id": f"figure:{fig_id}", "ok": same,
                "error": None if same else
                f"{filename} differs from results/figures/{filename}"})
        if error is None:
            headline = figures.headline_summary(matrix)
            errors = [abs(float(measured) - figures.PAPER_HEADLINES[name])
                      for name, measured, _paper in headline.rows]
            extra = {"cache_bytes": cache.stat().st_size,
                     "headline_err_pts": sum(errors) / len(errors),
                     "cells_simulated": len(simulated)}
    return {"setup_s": ready - t_spawn, "cells": records,
            "ff_instructions": sum(c.warmup for c in cells
                                   if (c.kernel, c.config, c.chains)
                                   in simulated),
            "instructions": instructions, "suite": extra}


# -- entry points -----------------------------------------------------------------

def run_pass(request: dict[str, Any]) -> dict[str, Any]:
    """One pass over the workload's plan (or, with ``setup_only``, just
    its set-up: imports, plan, the first cell's program, config and
    processor); see ``run.py`` for the request fields."""
    import repro

    t_spawn = request.get("t_spawn", time.monotonic())
    ctx = _Pass(request)
    kind = {"detailed-mem": _single_pass, "sampled-ff": _single_pass,
            "mc-shared": _mc_pass, "suite-cold": _suite_pass}
    try:
        result = kind[request["workload"]](ctx, t_spawn)
    finally:
        ctx.uninstall()
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(wall_s=ctx.wall_s,
                  peak_rss_kb=max(ctx.peak_kb, children),
                  spans=ctx.spans.records, profile=ctx.profile_layers(),
                  repro_file=repro.__file__)
    return result


def run_oracle(request: dict[str, Any]) -> dict[str, Any]:
    """Re-derive each recorded final state with the functional
    interpreter: the same instruction count from a freshly built
    workload must give the same registers and memory."""
    from repro.isa import Interpreter
    from repro.workloads import build_workload

    verdicts = {}
    for cell_id, states in request["states"].items():
        ok = True
        for state in states:
            built = build_workload(state["kernel"])
            interp = Interpreter(built.program, built.memory,
                                 regs=built.init_regs)
            step = interp.step
            for _ in range(state["insts"]):
                if interp.halted:
                    break
                step()
            ok = ok and state_digest(interp.regs,
                                     interp.memory.snapshot()) \
                == state["digest"]
        verdicts[cell_id] = ok
    from repro.analysis.experiments import KEY_SCHEMA, MODEL_VERSION
    return {"verdicts": verdicts, "model_version": MODEL_VERSION,
            "key_schema": KEY_SCHEMA}


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    handler = run_oracle if request["mode"] == "oracle" else run_pass
    Path(request["out"]).write_text(json.dumps(handler(request)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
