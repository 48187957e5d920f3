"""The one function -> layer map that groups profiled self time.

A function belongs to the layer of the module that defines it
(``repro.memory.cache`` -> ``memory``).  Two exceptions make stage time
visible without editing ``src/``: methods of
``repro.core.processor.Processor`` map by pipeline stage, and the
``<blockjit:...>`` code objects the jit lane compiles map to
``fastpath``.  Interpreter builtins are reported on their own; code
generated at run time (``<string>``, e.g. dataclass ``__init__``) is
charged to its heaviest caller's layer.
"""

from __future__ import annotations

import sysconfig
from typing import Any

#: ``Processor`` methods by stage.  Methods not listed (``_step``,
#: ``run``, construction, stats finalisation) belong to ``core.step``.
PROCESSOR_STAGES = {
    "_fetch_into_decode": "core.fetch",
    "_rename_dispatch": "core.rename_dispatch",
    "_dispatch_from_decode": "core.rename_dispatch",
    "_resources_available": "core.rename_dispatch",
    "_issue": "core.issue_execute",
    "_read_operand": "core.issue_execute",
    "_execute": "core.issue_execute",
    "_execute_load": "core.issue_execute",
    "_writeback": "core.complete",
    "_complete": "core.complete",
    "_resolve_branch": "core.complete",
    "_squash_younger": "core.complete",
    "_commit": "core.commit",
    "_pseudo_retire": "core.commit",
    "_window_stalled": "core.runahead_ctl",
    "_maybe_enter_runahead": "core.runahead_ctl",
    "_generate_chain": "core.runahead_ctl",
    "_check_chain_cache_accuracy": "core.runahead_ctl",
    "_take_checkpoint": "core.runahead_ctl",
    "_poison_head": "core.runahead_ctl",
    "_flush_pipeline": "core.runahead_ctl",
    "_finish_interval": "core.runahead_ctl",
    "_exit_runahead": "core.runahead_ctl",
    "_dispatch_from_buffer": "core.runahead_ctl",
    # The functional tier lives on the processor but is fast-forward
    # work: warm-up, the architectural handoff and its warm callbacks.
    "fast_forward": "fastpath",
    "warm_up": "fastpath",
    "sync_architectural": "fastpath",
    "snapshot": "fastpath",
    "restore": "fastpath",
    "on_ifetch": "fastpath",
    "on_branch": "fastpath",
}

#: Top-level ``repro`` modules that are not packages.
_TOP_MODULES = {"multicore": "multicore", "config": "config",
                "cli": "cli", "__init__": "cli", "__main__": "cli"}

_STDLIB = tuple(sysconfig.get_paths()[k] for k in ("stdlib", "platstdlib"))

BUILTINS = "builtins"
GENERATED = "generated"
UNMAPPED = "unmapped"


def _module_path(filename: str, package: str) -> list[str] | None:
    """``.../src/repro/core/processor.py`` -> ``["core", "processor"]``."""
    marker = f"/{package}/"
    at = filename.rfind(marker)
    if at < 0 or not filename.endswith(".py"):
        return None
    return filename[at + len(marker):-3].split("/")


def layer_of(filename: str, funcname: str) -> str:
    """The layer a profiled function belongs to."""
    if filename == "~":
        return BUILTINS
    if filename.startswith("<blockjit:"):
        return "fastpath"
    if filename == "<string>":
        return GENERATED
    parts = _module_path(filename, "repro")
    if parts is not None:
        if parts == ["core", "processor"]:
            if funcname.startswith("_enter_"):
                return "core.runahead_ctl"
            return PROCESSOR_STAGES.get(funcname, "core.step")
        if len(parts) == 1:
            return _TOP_MODULES.get(parts[0], UNMAPPED)
        if parts[0] == "core":
            return "core.other"
        return parts[0]
    if _module_path(filename, "perfbench") is not None:
        return "harness"
    if filename.startswith("<frozen ") or (
            filename.startswith(_STDLIB) and "-packages/" not in filename):
        return "stdlib"
    return UNMAPPED


def group(stats: dict[tuple, tuple]) -> tuple[dict[str, float],
                                              list[dict[str, Any]]]:
    """Group ``pstats.Stats(...).stats`` by layer.

    Returns per-layer self seconds and one row per function (layer,
    self seconds, calls), heaviest first.
    """
    layers: dict[str, float] = {}
    rows = []
    for (filename, line, funcname), (_cc, calls, self_s, _cum,
                                     callers) in stats.items():
        layer = layer_of(filename, funcname)
        if layer == GENERATED and callers:
            heaviest = max(callers.items(), key=lambda kv: kv[1][2])[0]
            layer = layer_of(heaviest[0], heaviest[2])
        layers[layer] = layers.get(layer, 0.0) + self_s
        rows.append({"function": f"{filename}:{line}({funcname})",
                     "layer": layer, "self_s": self_s, "calls": calls})
    rows.sort(key=lambda r: -r["self_s"])
    return layers, rows


def unmapped_hot(rows: list[dict[str, Any]], share: float = 0.01
                 ) -> list[dict[str, Any]]:
    """Functions with at least ``share`` of total self time whose layer
    is not a named one."""
    total = sum(r["self_s"] for r in rows) or 1.0
    return [r for r in rows if r["self_s"] / total >= share
            and r["layer"] in (UNMAPPED, GENERATED)]
