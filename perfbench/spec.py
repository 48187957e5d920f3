"""What the benchmark measures: workloads, metrics and the predictions
that tie each layer to the end-to-end metric it should move.

This module is the single source of ``BENCHMARK.json``
(``run.py --write-manifest`` regenerates it) and imports nothing from
``repro`` at module level, so the orchestrator stays out of the
measured interpreter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: How long one untraced run measures, in seconds.  The host this was
#: tuned on varies by up to +-20% over seconds-long stretches, so runs
#: are as long as the driver's time budget for 4 workloads allows.
RUN_SECONDS = 25

# -- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                  # "higher" | "lower"
    bound: float | None = None   # end-to-end only: tolerated worsening


#: Metrics a user of the simulator sees, measured with tracing off.
#: ``ok_frac`` is the share of attempted cells that passed every check
#: (1 - failed/attempted); it is kept as a success share so that it is
#: never 0 on a healthy run.
END_TO_END = (
    Metric("kips", "kinst/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("ok_frac", "ratio", "higher", 0.05),
)

#: Per-layer metrics from the traced run (``--trace 1``).  Host seconds
#: come from boundary spans of the untraced reference pass (``*_s``
#: without ``self``) or from profiled self time (``*self_s``); counts
#: come from ``SimStats``, ``result.sampling`` and
#: ``System.shared_stats()`` and must repeat exactly for a seed.  A
#: layer that does not run on a workload reports 0 and is listed under
#: ``zero`` in the run record.
PER_LAYER = (
    Metric("workloads.build_s", "s", "lower"),
    Metric("core.construct_s", "s", "lower"),
    Metric("core.run_s", "s", "lower"),
    Metric("core.us_per_cycle", "us", "lower"),
    Metric("core.us_per_inst", "us", "lower"),
    Metric("core.fetch_self_s", "s", "lower"),
    Metric("core.rename_dispatch_self_s", "s", "lower"),
    Metric("core.issue_execute_self_s", "s", "lower"),
    Metric("core.complete_self_s", "s", "lower"),
    Metric("core.commit_self_s", "s", "lower"),
    Metric("core.runahead_ctl_self_s", "s", "lower"),
    Metric("core.step_self_s", "s", "lower"),
    Metric("core.other_self_s", "s", "lower"),
    Metric("frontend.self_s", "s", "lower"),
    Metric("frontend.fetched_uops", "count", "lower"),
    Metric("frontend.mispredict_rate", "ratio", "lower"),
    Metric("backend.self_s", "s", "lower"),
    Metric("backend.dispatched_uops", "count", "lower"),
    Metric("backend.useful_frac", "ratio", "higher"),
    Metric("memory.self_s", "s", "lower"),
    Metric("memory.llc_accesses", "count", "lower"),
    Metric("memory.llc_miss_rate", "ratio", "lower"),
    Metric("memory.dram_reads", "count", "lower"),
    Metric("memory.dram_row_hit_rate", "ratio", "higher"),
    Metric("prefetch.self_s", "s", "lower"),
    Metric("prefetch.issued", "count", "lower"),
    Metric("prefetch.accuracy", "ratio", "higher"),
    Metric("runahead.self_s", "s", "lower"),
    Metric("runahead.intervals", "count", "lower"),
    Metric("runahead.cycle_share", "ratio", "lower"),
    Metric("runahead.misses_per_interval", "count", "higher"),
    Metric("runahead.chain_cache_hit_rate", "ratio", "higher"),
    Metric("fastpath.warmup_s", "s", "lower"),
    Metric("fastpath.ff_s", "s", "lower"),
    Metric("fastpath.translate_s", "s", "lower"),
    Metric("fastpath.detailed_s", "s", "lower"),
    Metric("fastpath.ff_kips", "kinst/s", "higher"),
    Metric("fastpath.self_s", "s", "lower"),
    Metric("isa.self_s", "s", "lower"),
    Metric("analysis.prefetch_s", "s", "lower"),
    Metric("analysis.save_s", "s", "lower"),
    Metric("analysis.render_s", "s", "lower"),
    Metric("analysis.cells", "count", "higher"),
    Metric("analysis.cache_bytes", "bytes", "lower"),
    Metric("multicore.self_s", "s", "lower"),
    Metric("mc.cross_core_evictions", "count", "lower"),
    Metric("mc.mshr_contended_rejections", "count", "lower"),
    Metric("mc.progress_share_min", "ratio", "higher"),
    Metric("sim.cycles", "count", "lower"),
    Metric("sim.committed", "count", "higher"),
    Metric("sim.ipc_gmean", "ratio", "higher"),
    Metric("sim.headline_err_pts", "pts", "lower"),
    Metric("host.builtins_self_s", "s", "lower"),
    Metric("host.other_self_s", "s", "lower"),
    Metric("trace.overhead", "ratio", "lower"),
)

# -- workloads ---------------------------------------------------------------

#: Warm-up lengths the seed draws from (single-core and multi-core
#: cells).  ``suite-cold`` keeps the figure budgets instead: its
#: rendered tables must equal the tracked ``results/figures`` files.
WARMUP_RANGE = (10_000, 14_000)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str          # one line, copied into BENCHMARK.json
    rationale: str    # the longer reason, printed in every run record


WORKLOADS = {
    "detailed-mem": Workload(
        "detailed-mem",
        "Detailed tier, mcf/omnetpp/sphinx3/libquantum x runahead/rab_cc/"
        "hybrid_pf: cycle-level core, runahead and timed memory do most "
        "of the work",
        "The cycle-level core, the runahead layer and timed memory do most "
        "of the work (core stages ~66% of self time).  The kernels cover "
        "the paper's chain shapes: short repeated chains (mcf), chains "
        "longer than the 32-uop buffer where hybrid falls back (omnetpp), "
        "a dependent walk (sphinx3) and stores beside loads (libquantum).  "
        "12 cells of 12k committed instructions each."),
    "sampled-ff": Workload(
        "sampled-ff",
        "Two-level tier on the jit lane, stride 400k, mcf/milc/lbm/"
        "libquantum x hybrid_pf: fast-forward and warm fills dominate; "
        "bypasses the detailed core",
        "Fast-forward and warm fills do most of the work (about 3/4 of "
        "host time); under the default 40k stride the split reverses and "
        "would re-measure the core.  Core stages and runahead are nearly "
        "idle, so this is the bypass workload for detailed-core changes.  "
        "4 cells of 1.2M advanced instructions (3 strides) each."),
    "suite-cold": Workload(
        "suite-cold",
        "The 172-cell figure matrix into an empty cache with jobs=nproc, "
        "then every FIGURES table: the cold repro suite wait; the only "
        "workload on repro.analysis",
        "This is the wait `repro suite` users see, cold: pool fan-out, "
        "pickling, cache save and merge, and figure extraction.  Short "
        "cells (5k timed after 12k warm-up) make per-cell construction "
        "and warm-up weigh more than in long runs."),
    "mc-shared": Workload(
        "mc-shared",
        "2-core System sharing llc,dram: mcf on rab_cc beside libquantum "
        "on hybrid; the only workload on repro.multicore and the shared "
        "memory path",
        "A shared LLC with port backpressure, MSHR quotas and cross-core "
        "evictions.  Warm-up runs on the interp lane because jit refuses "
        "shared hierarchies.  40k committed instructions per core."),
}

#: Layer -> (metrics, where it should move an end-to-end metric, where
#: it should stay flat).  With a single client nothing contends, so a
#: faster layer can raise ``kips`` by at most its share of that
#: workload's self time.
PREDICTIONS = {
    "repro.workloads": (
        "workloads.build_s", "setup_s on every workload", ""),
    "repro.core": (
        "core.construct_s core.run_s core.us_per_cycle core.us_per_inst "
        "core.*_self_s",
        "kips on detailed-mem and mc-shared; core.construct_s also kips "
        "on suite-cold (172 constructions)",
        "sampled-ff moves little"),
    "repro.frontend": (
        "frontend.self_s frontend.fetched_uops frontend.mispredict_rate",
        "kips on detailed-mem (runahead cells keep fetching)", ""),
    "repro.backend": (
        "backend.self_s backend.dispatched_uops backend.useful_frac",
        "kips on detailed-mem", ""),
    "repro.memory": (
        "memory.self_s memory.llc_accesses memory.llc_miss_rate "
        "memory.dram_reads memory.dram_row_hit_rate",
        "kips on detailed-mem (timed loads), sampled-ff (warm fills) and "
        "mc-shared (shared complex); one change can help one use and "
        "cost another", ""),
    "repro.prefetch": (
        "prefetch.self_s prefetch.issued prefetch.accuracy",
        "kips on the hybrid_pf cells of detailed-mem and on sampled-ff", ""),
    "repro.runahead": (
        "runahead.self_s runahead.intervals runahead.cycle_share "
        "runahead.misses_per_interval runahead.chain_cache_hit_rate",
        "kips on detailed-mem", "flat on sampled-ff"),
    "repro.fastpath+repro.isa": (
        "fastpath.warmup_s fastpath.ff_s fastpath.translate_s "
        "fastpath.detailed_s fastpath.ff_kips fastpath.self_s isa.self_s",
        "kips on sampled-ff; fastpath.warmup_s also kips on suite-cold "
        "and mc-shared", "flat on detailed-mem"),
    "repro.analysis": (
        "analysis.prefetch_s analysis.save_s analysis.render_s "
        "analysis.cells analysis.cache_bytes",
        "kips on suite-cold", "absent elsewhere"),
    "repro.multicore": (
        "multicore.self_s mc.cross_core_evictions "
        "mc.mshr_contended_rejections mc.progress_share_min",
        "kips on mc-shared", "absent elsewhere"),
    "simulated totals": (
        "sim.cycles sim.committed sim.ipc_gmean sim.headline_err_pts",
        "none: must repeat exactly", "identical on every workload"),
}

# -- cell plans ----------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One unit of simulated work.  ``kernel`` and ``config`` are
    comma-joined per core for multi-core cells; ``chains`` marks a
    figure-matrix ``+chains`` cell."""

    id: str
    kernel: str
    config: str
    instructions: int
    warmup: int
    chains: bool = False


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    cells: tuple[Cell, ...]
    #: Cells whose final architectural state the interpreter oracle
    #: re-derives (all of them where that is affordable).
    oracle: tuple[str, ...]
    #: ``suite-cold`` only: the cells the traced pass runs in process.
    traced_subset: tuple[Cell, ...] = ()


DETAILED_KERNELS = ("mcf", "omnetpp", "sphinx3", "libquantum")
DETAILED_CONFIGS = ("runahead", "rab_cc", "hybrid_pf")
DETAILED_INSTRUCTIONS = 12_000

SAMPLED_KERNELS = ("mcf", "milc", "lbm", "libquantum")
SAMPLED_CONFIG = "hybrid_pf"
SAMPLED_STRIDE = 400_000
SAMPLED_INSTRUCTIONS = 3 * SAMPLED_STRIDE

SUITE_INSTRUCTIONS = 5_000
SUITE_WARMUP = 12_000
SUITE_TRACED_CELLS = 24

MC_KERNELS = ("mcf", "libquantum")
MC_CONFIGS = ("rab_cc", "hybrid")
MC_SHARE = "llc,dram"
MC_INSTRUCTIONS = 40_000


def make_plan(workload: str, seed: int, small: bool = False) -> Plan:
    """The cells one run simulates.  The seed picks each cell's warm-up
    length within :data:`WARMUP_RANGE` and the cell order; the simulator
    only ever sees the resulting budgets.  ``small`` shrinks every
    budget for tests of the harness itself."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    shrink = 20 if small else 1

    def warmup() -> int:
        return rng.randint(*WARMUP_RANGE) // shrink

    if workload == "detailed-mem":
        cells = [Cell(f"{k}/{c}", k, c, DETAILED_INSTRUCTIONS // shrink,
                      warmup())
                 for k in DETAILED_KERNELS for c in DETAILED_CONFIGS]
        rng.shuffle(cells)
        return Plan(workload, seed, tuple(cells),
                    tuple(c.id for c in cells))
    if workload == "sampled-ff":
        cells = [Cell(f"{k}/{SAMPLED_CONFIG}", k, SAMPLED_CONFIG,
                      SAMPLED_INSTRUCTIONS // shrink, warmup())
                 for k in SAMPLED_KERNELS]
        rng.shuffle(cells)
        # 1.2M interpreter steps cost ~5 s, so one seed-chosen cell per
        # run carries the oracle check.
        return Plan(workload, seed, tuple(cells), (rng.choice(cells).id,))
    if workload == "mc-shared":
        cell = Cell("+".join(f"{k}/{c}" for k, c in zip(MC_KERNELS,
                                                         MC_CONFIGS)),
                    ",".join(MC_KERNELS), ",".join(MC_CONFIGS),
                    MC_INSTRUCTIONS // shrink, warmup())
        return Plan(workload, seed, (cell,), (cell.id,))
    # suite-cold: the committed figure matrix at its figure budgets.
    from repro.analysis.figures import figure_matrix_cells

    instructions = SUITE_INSTRUCTIONS // shrink
    warm = SUITE_WARMUP // shrink
    cells = [Cell(f"{w}/{c}{'+chains' if chains else ''}", w, c,
                  instructions, warm, chains)
             for w, c, chains in figure_matrix_cells()]
    rng.shuffle(cells)
    # The matrix serves a plain cell from its +chains superset, so the
    # traced subset draws only cells the full pass simulates as listed.
    chained = {(c.kernel, c.config) for c in cells if c.chains}
    candidates = [c for c in cells
                  if c.chains or (c.kernel, c.config) not in chained]
    subset = rng.sample(candidates, SUITE_TRACED_CELLS // (4 if small else 1))
    return Plan(workload, seed, tuple(cells), (), tuple(subset))


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
