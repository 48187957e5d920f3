"""Content-addressed result store: the KEY_SCHEMA cell cache as a
service-grade artifact.

:class:`ExperimentMatrix` keeps one JSON file per matrix;
the farm keeps one immutable file per *(model version, cell key)* so
millions of readers can be served straight from disk and a result is
computed at most once per model version.

* Addressing: ``root/v<MODEL_VERSION>.<KEY_SCHEMA>/<h[:2]>/<h>.json``
  where ``h`` is the SHA-256 of the KEY_SCHEMA cell key (the exact
  string :func:`repro.analysis.experiments.cell_key` produces, so the
  farm, the matrix, and remote clients all agree byte-for-byte on what
  a cell is).  Bumping ``MODEL_VERSION`` or ``KEY_SCHEMA`` changes the
  version directory, so every stale entry simply never hits again —
  invalidation is spelled "miss".
* Immutability: entries are written once via temp-file + ``os.replace``.
  A second ``put`` for an existing valid entry is a no-op — cells are
  deterministic, so equal keys always address equal stats.
* Concurrency: atomic writes make racing writers safe (each leaves a
  complete, identical entry); corrupt entries are evicted by
  claim-by-rename so an eviction can never destroy a peer's fresh
  rewrite.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Optional

from ..analysis.experiments import KEY_SCHEMA, MODEL_VERSION, cell_key, \
    multicore_suffix, tier_suffix
from ..analysis.parallel import CellSpec


def spec_cell_key(spec: CellSpec) -> str:
    """The KEY_SCHEMA cell key a :class:`CellSpec` addresses — identical
    to the key an :class:`ExperimentMatrix` with the same budgets and
    sampling plan would derive for the cell (including the multicore
    suffix for ``cores > 1`` specs, whose keys match
    ``ExperimentMatrix.get_multicore``)."""
    suffix = tier_suffix(spec.tier, spec.ramp, spec.window, spec.stride)
    if getattr(spec, "cores", 1) > 1:
        workload_list = (spec.workloads or spec.workload).split(",")
        suffix += multicore_suffix(spec.cores, spec.share, workload_list)
        return cell_key(workload_list[0], spec.config_name,
                        spec.chain_stats, spec.instructions, spec.warmup,
                        suffix)
    return cell_key(spec.workload, spec.config_name, spec.chain_stats,
                    spec.instructions, spec.warmup, suffix)


class ResultStore:
    """Immutable, content-addressed on-disk store of finished cell stats."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{MODEL_VERSION}.{KEY_SCHEMA}"

    def _path(self, cell: str) -> Path:
        h = hashlib.sha256(cell.encode()).hexdigest()
        return self.version_dir / h[:2] / f"{h}.json"

    @staticmethod
    def _decode(blob: bytes, cell: str) -> Optional[dict[str, Any]]:
        """The stats inside one entry's bytes, or ``None`` when the blob
        is truncated, foreign, or records a different cell (a hash
        collision or hand-edited file)."""
        try:
            payload = json.loads(blob)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if (not isinstance(payload, dict) or payload.get("cell") != cell
                or not isinstance(payload.get("stats"), dict)):
            return None
        return payload["stats"]

    def get(self, cell: str) -> Optional[dict[str, Any]]:
        """The stored stats for one cell key, or ``None`` on a miss."""
        path = self._path(cell)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        stats = self._decode(blob, cell)
        if stats is None:
            stats = self._evict(path, cell)
        if stats is None:
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def _evict(self, path: Path, cell: str) -> Optional[dict[str, Any]]:
        """Claim-by-rename eviction of a corrupt entry.

        A bare unlink races two ways: two evictors race each other to
        the delete, and a peer's ``put`` can atomically replace the
        corrupt file between our read and our delete, so the unlink
        would destroy the valid entry.  Renaming to a per-process name
        lets exactly one evictor win; the claimed bytes are re-checked
        and put back when a peer's rewrite already made them valid."""
        claimed = path.with_name(f"{path.name}.evict.{os.getpid()}")
        try:
            os.rename(path, claimed)
        except OSError:
            return None
        try:
            stats = self._decode(claimed.read_bytes(), cell)
        except OSError:
            return None
        if stats is None:
            claimed.unlink(missing_ok=True)
            return None
        os.replace(claimed, path)
        return stats

    def put(self, cell: str, stats: dict[str, Any]) -> bool:
        """Persist one cell's stats; returns ``False`` when a valid
        entry already exists (entries are immutable — equal keys address
        equal deterministic results, so there is nothing to update)."""
        path = self._path(cell)
        try:
            if self._decode(path.read_bytes(), cell) is not None:
                return False
        except OSError:
            pass
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps({
            "cell": cell,
            "model_version": MODEL_VERSION,
            "key_schema": KEY_SCHEMA,
            "stats": stats,
        })
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            tmp.write_text(blob)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self.puts += 1
        return True

    def metrics(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}
