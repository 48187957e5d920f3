"""Tests of the benchmark harness itself.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, probes, spec, worker  # noqa: E402

PROCESSOR = str(ROOT / "src" / "repro" / "core" / "processor.py")


@pytest.mark.parametrize("funcname, layer", [
    ("_fetch_into_decode", "core.fetch"),
    ("_rename_dispatch", "core.rename_dispatch"),
    ("_dispatch_from_decode", "core.rename_dispatch"),
    ("_resources_available", "core.rename_dispatch"),
    ("_execute_load", "core.issue_execute"),
    ("_complete", "core.complete"),
    ("_commit", "core.commit"),
    ("_pseudo_retire", "core.commit"),
    ("_enter_rab", "core.runahead_ctl"),
    ("_enter_traditional", "core.runahead_ctl"),
    ("_exit_runahead", "core.runahead_ctl"),
    ("_generate_chain", "core.runahead_ctl"),
    ("_dispatch_from_buffer", "core.runahead_ctl"),
    ("_step", "core.step"),
    ("fast_forward", "fastpath"),
])
def test_processor_methods_map_by_stage(funcname, layer):
    assert layers.layer_of(PROCESSOR, funcname) == layer


@pytest.mark.parametrize("filename, layer", [
    (str(ROOT / "src/repro/memory/cache.py"), "memory"),
    (str(ROOT / "src/repro/core/stats.py"), "core.other"),
    (str(ROOT / "src/repro/multicore.py"), "multicore"),
    ("<blockjit:mcf:12:region>", "fastpath"),
    ("~", "builtins"),
    (str(ROOT / "perfbench/probes.py"), "harness"),
    (json.__file__, "stdlib"),
])
def test_modules_map_by_definition(filename, layer):
    assert layers.layer_of(filename, "f") == layer


def test_generated_code_is_charged_to_its_caller():
    caller = (PROCESSOR, 1, "_rename_dispatch")
    stats = {("<string>", 1, "__init__"): (1, 1, 0.5, 0.5,
                                           {caller: (1, 1, 0.5, 0.5)})}
    grouped, rows = layers.group(stats)
    assert grouped == {"core.rename_dispatch": 0.5}
    assert layers.unmapped_hot(rows) == []


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_hot_functions_map_to_named_layers(workload, tmp_path):
    """Every function with >= 1% of traced self time on any workload
    maps to a named layer (a small-budget traced pass per workload)."""
    result = worker.run_pass({
        "workload": workload, "seed": 7, "tmp": str(tmp_path),
        "traced": True, "small": True, "subset": True, "jobs": 1,
        "root": str(ROOT)})
    assert all(c["ok"] for c in result["cells"]), result["cells"]
    profile = result["profile"]
    assert profile["unmapped_hot"] == []
    assert profile["layers"].get("core.rename_dispatch", 0.0) > 0.0


def test_plans_depend_only_on_the_seed():
    for name in spec.WORKLOADS:
        assert spec.make_plan(name, 3) == spec.make_plan(name, 3)
    a, b = spec.make_plan("detailed-mem", 3), spec.make_plan("detailed-mem", 4)
    assert a.cells != b.cells
    assert sorted(c.id for c in a.cells) == sorted(c.id for c in b.cells)
    low, high = spec.WARMUP_RANGE
    assert all(low <= c.warmup <= high for c in a.cells)


def test_suite_subset_avoids_cells_served_by_a_superset():
    plan = spec.make_plan("suite-cold", 5)
    chained = {(c.kernel, c.config) for c in plan.cells if c.chains}
    assert all(c.chains or (c.kernel, c.config) not in chained
               for c in plan.traced_subset)


def test_self_time_subtracts_child_spans():
    records = [[1, 0, -1, "outer", "", 0.0, 10.0],
               [1, 1, 0, "inner", "", 2.0, 5.0],
               [2, 1, 0, "worker", "", 0.0, 4.0]]
    totals = probes.totals(records)
    assert totals["outer"]["self_s"] == pytest.approx(7.0)
    assert totals["inner"]["self_s"] == pytest.approx(3.0)
    assert totals["worker"]["total_s"] == pytest.approx(4.0)


def test_manifest_is_current():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-shared",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
