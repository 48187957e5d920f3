"""Thin blocking client for the farm HTTP service (stdlib only).

``repro suite --remote`` / ``repro sweep --remote`` route their cell
requests through a :class:`FarmClient` instead of the in-process pool.
Results are byte-identical either way: the server runs the exact same
:func:`~repro.analysis.parallel.simulate_cell` worker, stats dicts are
JSON round-trip stable, and cell keys are derived from the same
:func:`~repro.analysis.experiments.cell_key` — so a remote suite fills
the local matrix with exactly the cells an in-process run would.

The client is deliberately synchronous (``http.client``): callers are
the CLI and tests, both of which want a plain function-call interface,
and the server end is the part that must multiplex.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse
from typing import Any, Callable, Iterator, Optional, Sequence

from ..analysis.experiments import Cell, ExperimentMatrix
from ..analysis.parallel import CellSpec


class FarmClientError(RuntimeError):
    """An HTTP-level failure: non-2xx status or an unreachable server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"farm request failed ({status}): {message}")
        self.status = status


class FarmClient:
    """Blocking JSON client for one ``repro serve`` endpoint."""

    def __init__(self, base_url: str, timeout: float = 600.0) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {parsed.scheme!r}")
        netloc = parsed.netloc or parsed.path
        self.host, _, port = netloc.partition(":")
        self.port = int(port) if port else 80
        self.timeout = timeout

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def _request(self, method: str, path: str,
                 payload: Optional[dict[str, Any]] = None) -> Any:
        conn = self._connect()
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            blob = response.read()
        finally:
            conn.close()
        try:
            doc = json.loads(blob) if blob else {}
        except json.JSONDecodeError:
            raise FarmClientError(response.status,
                                  blob.decode(errors="replace")) from None
        if response.status != 200:
            raise FarmClientError(response.status,
                                  str(doc.get("error", doc)))
        return doc

    # -- endpoints ---------------------------------------------------------------

    def healthz(self) -> bool:
        return bool(self._request("GET", "/healthz").get("ok"))

    def meta(self) -> dict[str, Any]:
        return self._request("GET", "/v1/meta")

    def metrics(self) -> dict[str, int]:
        return self._request("GET", "/v1/metrics")

    def fetch_cells(self, specs: Sequence[CellSpec],
                    ) -> list[dict[str, Any]]:
        """Stats for every spec (in order), waiting for completion."""
        doc = self._request("POST", "/v1/cells", {
            "cells": [spec._asdict() for spec in specs], "wait": True})
        return [entry["stats"] for entry in doc["cells"]]

    def submit(self, specs: Sequence[CellSpec]) -> str:
        """Queue a job; returns the job id (poll/stream it separately)."""
        doc = self._request("POST", "/v1/cells", {
            "cells": [spec._asdict() for spec in specs], "wait": False})
        return doc["job"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def stream_events(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield the job's farm events live (NDJSON long poll); the
        stream ends at the job's ``farm.job_done`` event."""
        conn = self._connect()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                blob = response.read().decode(errors="replace")
                raise FarmClientError(response.status, blob)
            for raw in response:
                line = raw.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def figure(self, fig_id: str, instructions: Optional[int] = None,
               warmup: Optional[int] = None) -> dict[str, Any]:
        return self._request(
            "GET", f"/v1/figures/{fig_id}"
                   + _query(instructions=instructions, warmup=warmup))

    def sweep(self, name: str, benches: Optional[Sequence[str]] = None,
              instructions: Optional[int] = None,
              warmup: Optional[int] = None) -> dict[str, Any]:
        return self._request(
            "GET", f"/v1/sweeps/{name}"
                   + _query(instructions=instructions, warmup=warmup,
                            benches=",".join(benches) if benches else None))

    def trace(self, workload: str, config_name: str,
              instructions: Optional[int] = None,
              warmup: Optional[int] = None) -> dict[str, Any]:
        return self._request(
            "GET", f"/v1/traces/{workload}/{config_name}"
                   + _query(instructions=instructions, warmup=warmup))

    # -- matrix integration ------------------------------------------------------

    def prefetch_matrix(
        self,
        matrix: ExperimentMatrix,
        cells: Sequence[Cell],
        progress: Optional[Callable[[CellSpec, int, int], None]] = None,
    ) -> int:
        """Fill the matrix's missing cells through the farm (the remote
        counterpart of :meth:`ExperimentMatrix.prefetch`).

        Submits one job, streams per-cell progress while it runs, then
        merges the results back and saves — so the on-disk cache a
        remote suite leaves behind is identical to a local run's.
        """
        missing = matrix.missing_cells(cells)
        if not missing:
            return 0
        s = matrix.sampling
        if s is not None and s.is_sampled:
            tier_fields = (s.tier, s.ramp_instructions,
                           s.window_instructions, s.stride_instructions)
        else:
            tier_fields = ("detailed", 0, 0, 0)
        specs = [CellSpec(w, c, chains, matrix.instructions, matrix.warmup,
                          *tier_fields)
                 for w, c, chains in missing]
        job_id = self.submit(specs)
        total = len(specs)
        done = 0
        for event in self.stream_events(job_id):
            if event.get("event") in ("farm.done", "farm.hit") and progress:
                done = min(done + 1, total)
                progress(specs[done - 1], done, total)
        doc = self.job(job_id)
        if not doc.get("ok"):
            raise FarmClientError(500, doc.get("error") or "job failed")
        results = doc["results"]
        for (workload, config_name, chain_stats), stats in zip(missing,
                                                               results):
            matrix.store(workload, config_name, chain_stats, stats)
        matrix.save()
        return len(missing)


def _query(**params: Any) -> str:
    items = {k: v for k, v in params.items() if v is not None}
    return "?" + urllib.parse.urlencode(items) if items else ""
