"""Run one benchmark workload and report its metrics.

    python3 perfbench/run.py --workload detailed-mem --seed 1 \\
        --seconds 25 --trace 0

Run it from the root of a checkout; it builds nothing and imports
``repro`` from ``src/``.  With ``--trace 0`` it measures the end-to-end
metrics: set-up probes and untraced passes, each in a fresh interpreter,
until ``--seconds`` have passed (at least two passes, so that simulated
counts can be compared), then the interpreter oracle.  With
``--trace 1`` it runs one untraced reference pass and one profiled pass
of the same cells and reports the per-layer metrics.

Every metric is printed by name and unit; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  The full run record, spans included, is written to
``.perfbench/<workload>-seed<n>-trace<t>.json``.  ``--workload all``
runs every workload in turn.  ``--write-manifest`` regenerates
``BENCHMARK.json`` from ``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import probes  # noqa: E402
from perfbench.spec import (END_TO_END, PER_LAYER, PREDICTIONS,  # noqa: E402
                            RUN_SECONDS, WORKLOADS, manifest)

OUT = ROOT / ".perfbench"
#: Set-up-only launches per untraced run, on top of each pass's own
#: set-up; ``setup_s`` is the median of all of them.
SETUP_PROBES = 5
#: Every run ends within this many seconds of starting.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """A worker failed, passed the deadline, or imported ``repro`` from
    outside this checkout."""


def hermetic_env(tmp: Path) -> dict[str, str]:
    """The workers' environment: ``repro`` from this checkout's ``src``
    only, every ``REPRO_*`` override cleared (jobs, fast-forward lane,
    trace and checkpoint directories, budgets) and temporary files kept
    inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


class Runner:
    """Starts workers for one run and keeps them inside the deadline."""

    def __init__(self, workload: str, seed: int, tmp: Path,
                 deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.env = hermetic_env(tmp)
        self.jobs = len(os.sched_getaffinity(0))
        self._count = 0

    def spawn(self, mode: str, **fields: Any) -> dict[str, Any]:
        self._count += 1
        work = self.tmp / f"{mode}-{self._count}"
        work.mkdir(parents=True)
        out = work / "result.json"
        request = {"mode": mode, "workload": self.workload,
                   "seed": self.seed, "tmp": str(work), "out": str(out),
                   "jobs": self.jobs, "root": str(ROOT), **fields}
        request["t_spawn"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", json.dumps(request)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{mode} worker passed the deadline")
        finally:
            # The worker leads its own session: this also stops any pool
            # worker it left behind, on every way out of this call.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        if proc.returncode != 0:
            raise BenchmarkError(
                f"{mode} worker exited {proc.returncode}:\n{err[-2000:]}")
        result = json.loads(out.read_text())
        result["work_dir"] = str(work)
        repro_file = result.get("repro_file")
        if repro_file and not Path(repro_file).resolve().is_relative_to(
                ROOT / "src"):
            raise BenchmarkError(f"worker imported repro from {repro_file}")
        return result

    def left(self) -> float:
        return self.deadline - time.monotonic()


# -- aggregation -----------------------------------------------------------------


def _flat_counts(result: dict[str, Any]) -> list[dict[str, int]]:
    """Per-core ``SimStats`` counts of one pass's simulated cells."""
    out = []
    for cell in result["cells"]:
        counts = cell.get("counts")
        if isinstance(counts, dict):
            out.append(counts)
        elif counts:
            out.extend(counts)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ff_lanes(result: dict[str, Any]) -> dict[str, str]:
    """The fast-forward lane each cell actually ran, as observed by the
    interpreter probes (``mc-shared`` falls back to interp)."""
    lanes: dict[str, set[str]] = {}
    for _pid, _sid, _parent, name, cell, _start, _end in result["spans"]:
        if name.startswith("lane."):
            lanes.setdefault(cell, set()).add(name[len("lane."):])
    return {cell: "+".join(sorted(v)) for cell, v in sorted(lanes.items())}


def judge(passes: list[dict[str, Any]], verdicts: dict[str, bool]
          ) -> tuple[int, int, list[str]]:
    """Attempted and failed cells over every pass of a run.

    A cell fails when it raised, stopped short of its budget, failed the
    oracle or a figure comparison, or produced other simulated counts or
    another final state than the same cell in the run's first pass.
    """
    reference = {c["id"]: (c.get("fingerprint"), c.get("arch"))
                 for c in passes[0]["cells"]}
    attempted = failed = 0
    problems: list[str] = []
    for index, result in enumerate(passes):
        for cell in result["cells"]:
            attempted += 1
            why = cell.get("error")
            if why is None and verdicts.get(cell["id"]) is False:
                why = "final state differs from the interpreter oracle"
            if why is None and cell["id"] in reference and (
                    (cell.get("fingerprint"), cell.get("arch"))
                    != reference[cell["id"]]):
                why = "simulated counts differ from the first pass"
            if why is not None:
                failed += 1
                problems.append(f"pass {index}: {cell['id']}: {why}")
    return attempted, failed, problems


def end_to_end(passes: list[dict[str, Any]], setups: list[float],
               attempted: int, failed: int) -> dict[str, float]:
    return {
        "kips": statistics.median(
            r["instructions"] / r["wall_s"] / 1000.0 for r in passes),
        "setup_s": statistics.median(setups),
        # A peak, so the largest over the passes: which cell ran before
        # the largest one moves a pass's peak by a few MB (allocator
        # fragmentation), and the rotated orders cover that.
        "peak_rss_mb": max(r["peak_rss_kb"] for r in passes) / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(ref: dict[str, Any], traced: dict[str, Any],
              overhead: float) -> dict[str, float]:
    """Per-layer metrics: boundary seconds and counts from the untraced
    reference pass, self seconds from the profiled pass."""
    spans = probes.totals(ref["spans"])

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    counts = _flat_counts(ref)
    shared = next((c["shared"] for c in ref["cells"] if c.get("shared")), {})

    def tally(field: str) -> int:
        if field in shared:
            return shared[field]
        return sum(c[field] for c in counts)

    cycles, committed = tally("cycles"), tally("committed_insts")
    run_s = total("core.run") + total("multicore.run")
    sampling = [c["sampling"] for c in ref["cells"] if c.get("sampling")]
    ff_s = sum(s["fast_forward_seconds"] for s in sampling)
    warmup_s = total("fastpath.warmup")
    ff_insts = ref["ff_instructions"]
    suite = ref.get("suite", {})
    ipcs = [c["committed_insts"] / c["cycles"] for c in counts if c["cycles"]]
    rab_cycles = tally("cycles_in_rab") + tally("cycles_in_traditional")
    metrics = {
        "workloads.build_s": total("workloads.build"),
        "core.construct_s": total("core.construct"),
        "core.run_s": run_s,
        "core.us_per_cycle": 1e6 * _ratio(run_s, cycles),
        "core.us_per_inst": 1e6 * _ratio(run_s, committed),
        "frontend.fetched_uops": tally("fetched_uops"),
        "frontend.mispredict_rate": _ratio(tally("cond_mispredicts"),
                                           tally("cond_branches")),
        "backend.dispatched_uops": tally("dispatched_uops"),
        "backend.useful_frac": _ratio(committed, tally("dispatched_uops")),
        "memory.llc_accesses": tally("llc_accesses"),
        "memory.llc_miss_rate": 1.0 - _ratio(tally("llc_hits"),
                                             tally("llc_accesses")),
        "memory.dram_reads": tally("dram_reads"),
        "memory.dram_row_hit_rate": _ratio(
            tally("dram_row_hits"),
            tally("dram_row_hits") + tally("dram_activates")),
        "prefetch.issued": tally("prefetches_issued"),
        "prefetch.accuracy": _ratio(tally("prefetches_useful"),
                                    tally("prefetches_issued")),
        "runahead.intervals": tally("runahead_intervals"),
        "runahead.cycle_share": _ratio(rab_cycles, cycles),
        "runahead.misses_per_interval": _ratio(
            tally("runahead_misses_generated"), tally("runahead_intervals")),
        "runahead.chain_cache_hit_rate": _ratio(
            tally("chain_cache_hits"),
            tally("chain_cache_hits") + tally("chain_cache_misses")),
        "fastpath.warmup_s": warmup_s,
        "fastpath.ff_s": ff_s,
        "fastpath.translate_s": sum(c.get("translate_s", 0.0)
                                    for c in ref["cells"]),
        "fastpath.detailed_s": sum(s["detailed_seconds"] for s in sampling),
        "fastpath.ff_kips": _ratio(ff_insts, warmup_s + ff_s) / 1000.0,
        "analysis.prefetch_s": total("analysis.prefetch"),
        "analysis.save_s": total("analysis.save"),
        "analysis.render_s": spans.get("analysis.render",
                                       {}).get("self_s", 0.0),
        "analysis.cells": suite.get("cells_simulated", 0),
        "analysis.cache_bytes": suite.get("cache_bytes", 0),
        "mc.cross_core_evictions": shared.get("cross_core_evictions", 0),
        "mc.mshr_contended_rejections":
            shared.get("mshr_contended_rejections", 0),
        "mc.progress_share_min": shared.get("progress_share_min", 0.0),
        "sim.cycles": cycles,
        "sim.committed": committed,
        "sim.ipc_gmean": (math.exp(sum(map(math.log, ipcs)) / len(ipcs))
                          if ipcs else 0.0),
        "sim.headline_err_pts": suite.get("headline_err_pts", 0.0),
        "trace.overhead": overhead,
    }
    layers = traced["profile"]["layers"]
    self_metrics = {
        "core.fetch_self_s": "core.fetch",
        "core.rename_dispatch_self_s": "core.rename_dispatch",
        "core.issue_execute_self_s": "core.issue_execute",
        "core.complete_self_s": "core.complete",
        "core.commit_self_s": "core.commit",
        "core.runahead_ctl_self_s": "core.runahead_ctl",
        "core.step_self_s": "core.step",
        "core.other_self_s": "core.other",
        "frontend.self_s": "frontend",
        "backend.self_s": "backend",
        "memory.self_s": "memory",
        "prefetch.self_s": "prefetch",
        "runahead.self_s": "runahead",
        "fastpath.self_s": "fastpath",
        "isa.self_s": "isa",
        "multicore.self_s": "multicore",
        "host.builtins_self_s": "builtins",
    }
    for name, layer in self_metrics.items():
        metrics[name] = layers.get(layer, 0.0)
    named = set(self_metrics.values())
    metrics["host.other_self_s"] = sum(v for k, v in layers.items()
                                       if k not in named)
    return metrics


# -- one run ---------------------------------------------------------------------


def run_untraced(runner: Runner, seconds: int) -> dict[str, Any]:
    setups = []
    for probe in range(SETUP_PROBES):
        setups.append(runner.spawn("setup", setup_only=True,
                                   rotate=probe)["setup_s"])
    passes: list[dict[str, Any]] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        mean = elapsed / len(passes) if passes else 0.0
        # Start another pass while at least half of it fits.
        if len(passes) >= 2 and elapsed + mean / 2 > seconds:
            break
        if passes and runner.left() < 2 * mean + 15:
            break
        passes.append(runner.spawn("pass", rotate=len(passes)))
        setups.append(passes[-1]["setup_s"])
    return {"passes": passes, "setups": setups, "reference": passes[0]}


def run_traced(runner: Runner) -> dict[str, Any]:
    """One untraced reference pass and one profiled pass of the same
    cells.  ``suite-cold`` cannot profile its pool workers, so its
    profiled pass runs the plan's traced subset with ``jobs=1`` in
    process (rendering from the full matrix), against an untraced
    in-process run of the same subset."""
    full = runner.spawn("pass")
    if runner.workload == "suite-cold":
        cache = str(Path(full["work_dir"]) / "experiments.json")
        ref = runner.spawn("pass", subset=True, full_cache=cache)
        traced = runner.spawn("pass", subset=True, full_cache=cache,
                              traced=True)
        passes = [full, ref, traced]
    else:
        ref = full
        traced = runner.spawn("pass", traced=True)
        passes = [full, traced]
    return {"passes": passes, "reference": full, "overhead_ref": ref,
            "traced": traced}


def provenance(runner: Runner, result: dict[str, Any],
               oracle: dict[str, Any], load_start: list[float]
               ) -> dict[str, Any]:
    return {
        "workload": runner.workload,
        "seed": runner.seed,
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "model_version": oracle.get("model_version"),
        "key_schema": oracle.get("key_schema"),
        "ff_lane_by_cell": _ff_lanes(result),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "jobs": runner.jobs,
        "load_avg_start": load_start,
        "load_avg_end": [round(x, 2) for x in os.getloadavg()],
        "rationale": WORKLOADS[runner.workload].rationale,
    }


def _git_revision() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    """Content digest of ``src/``: provenance where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict[str, Any]:
    """One run: measure, check, and build the run record."""
    load_start = [round(x, 2) for x in os.getloadavg()]
    tmp = OUT / f"tmp-{os.getpid()}-{name}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    runner = Runner(name, seed, tmp, deadline)
    try:
        measured = run_traced(runner) if trace else run_untraced(
            runner, seconds)
        oracle = runner.spawn(
            "oracle", states={c["id"]: c["arch"]
                              for c in measured["reference"]["cells"]
                              if c.get("oracle")})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    passes = measured["passes"]
    attempted, failed, problems = judge(passes, oracle["verdicts"])
    if trace:
        ref, traced = measured["overhead_ref"], measured["traced"]
        metrics = per_layer(measured["reference"], traced,
                            traced["wall_s"] / ref["wall_s"])
        units = {m.name: m.unit for m in PER_LAYER}
    else:
        metrics = end_to_end(passes, measured["setups"], attempted, failed)
        units = {m.name: m.unit for m in END_TO_END}
    record = {
        "provenance": provenance(runner, measured["reference"], oracle,
                                 load_start),
        "trace": trace,
        "passes": len(passes),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "oracle": oracle["verdicts"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "zero": sorted(k for k, v in metrics.items() if not v),
        "pass_walls_s": [r["wall_s"] for r in passes],
        "pass_peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in passes],
        "setups_s": measured.get("setups", []),
        "predictions": PREDICTIONS,
    }
    if trace:
        traced = measured["traced"]
        record["traced_pass"] = {
            "in_process": True,
            "jobs": 1,
            "cells": [c["id"] for c in traced["cells"]],
            "unmapped_hot": traced["profile"]["unmapped_hot"],
            "functions": traced["profile"]["functions"],
        }
    record["spans"] = {f"pass{i}": r["spans"] for i, r in enumerate(passes)}
    return record


def _print_record(name: str, record: dict[str, Any]) -> None:
    print(f"== {name}  seed={record['provenance']['seed']}  "
          f"trace={int(record['trace'])}  passes={record['passes']}  "
          f"attempted={record['attempted']}  failed={record['failed']}")
    for metric, value in record["metrics"].items():
        print(f"  {metric:32s} {value['value']:>16.6g} {value['unit']}")
    for problem in record["problems"][:20]:
        print(f"  FAILED {problem}")
    print("provenance: " + json.dumps(record["provenance"]))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit, so that running workers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            records[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for name, record in records.items():
        _print_record(name, record)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record))
    if len(records) == 1:
        (record,) = records.values()
        metrics = record["metrics"]
    else:
        metrics = {f"{name}/{k}": v for name, record in records.items()
                   for k, v in record["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
