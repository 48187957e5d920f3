"""Minimal HTTP/1.1 front-end for the farm service (stdlib only).

One :class:`FarmServer` wraps a :class:`~repro.farm.service.FarmService`
behind ``asyncio.start_server``: requests are parsed by hand (the
toolchain constraint rules out aiohttp and friends), responses are JSON
with ``Connection: close``, and the long-poll progress endpoint streams
newline-delimited JSON events until the job finishes or the client
disconnects — a disconnect ends only that stream, never the shared run.

Routes (all JSON unless noted)::

    GET  /healthz                     liveness probe
    GET  /v1/meta                     model/key versions, budgets, jobs
    GET  /v1/metrics                  farm_registry counters
    POST /v1/cells                    {"cells": [spec...], "wait": bool}
    GET  /v1/jobs/<id>                job status + results when done
    GET  /v1/jobs/<id>/events         NDJSON event stream (long poll)
    GET  /v1/figures/<id>             figure table computed via the farm
    GET  /v1/sweeps/<name>            canned sensitivity-sweep table
    GET  /v1/traces/<wl>/<config>     Perfetto trace JSON on demand

Cell specs are :class:`~repro.analysis.parallel.CellSpec` field dicts;
the server validates them against the known workloads/configs.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from typing import Any, Optional

from ..analysis.experiments import (ExperimentMatrix, KEY_SCHEMA,
                                    MODEL_VERSION)
from ..analysis.parallel import CellSpec
from ..config import (CONFIG_BUILDERS, SAMPLING_TIERS, SHARE_CHOICES,
                      SamplingConfig)
from ..workloads import workload_names
from .service import FarmJob, FarmService
from .store import spec_cell_key

_MAX_BODY = 8 << 20
_SPEC_DEFAULTS = CellSpec("", "", False, 0, 0)._asdict()


class HttpError(Exception):
    """An error with a client-facing status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def decode_spec(obj: Any) -> CellSpec:
    """A validated :class:`CellSpec` from one wire dict."""
    if not isinstance(obj, dict):
        raise HttpError(400, "cell spec must be a JSON object")
    unknown = sorted(set(obj) - set(_SPEC_DEFAULTS))
    if unknown:
        raise HttpError(400, f"unknown cell-spec fields: {unknown}")
    spec = CellSpec(**{**_SPEC_DEFAULTS, **obj})
    if spec.workload not in workload_names() and not (
            spec.workloads and spec.workload == ""):
        # Multi-core specs may leave `workload` empty and carry the
        # per-core list in `workloads` (validated below).
        raise HttpError(400, f"unknown workload {spec.workload!r}")
    if spec.config_name not in CONFIG_BUILDERS:
        raise HttpError(400, f"unknown config {spec.config_name!r}")
    if type(spec.chain_stats) is not bool:
        raise HttpError(400, "chain_stats must be a boolean")
    for name in ("instructions", "warmup", "ramp", "window", "stride"):
        if type(getattr(spec, name)) is not int:
            raise HttpError(400, f"{name} must be an integer")
    if spec.instructions < 1 or spec.warmup < 0:
        raise HttpError(400, "instructions must be >= 1 and warmup >= 0")
    if spec.tier != "detailed":
        if spec.tier not in SAMPLING_TIERS:
            raise HttpError(400, f"unknown tier {spec.tier!r}")
        plan = SamplingConfig(tier=spec.tier, ramp_instructions=spec.ramp,
                              window_instructions=spec.window,
                              stride_instructions=spec.stride)
        try:
            plan.validate()
        except ValueError as exc:
            raise HttpError(400, f"bad sampling plan: {exc}") from None
    if type(spec.cores) is not int or not 1 <= spec.cores <= 8:
        raise HttpError(400, "cores must be an integer in 1..8")
    if spec.share not in SHARE_CHOICES:
        raise HttpError(400, f"share must be one of {SHARE_CHOICES}")
    if spec.cores > 1:
        if spec.tier != "detailed":
            raise HttpError(400, "multi-core cells are detailed-tier only")
        if spec.chain_stats:
            raise HttpError(
                400, "chain_stats is not supported for multi-core cells")
        workload_list = spec.workloads.split(",") if spec.workloads else []
        if len(workload_list) != spec.cores:
            raise HttpError(
                400, f"workloads must name {spec.cores} comma-separated "
                     f"workloads (one per core)")
        for name in workload_list:
            if name not in workload_names():
                raise HttpError(400, f"unknown workload {name!r}")
    elif spec.workloads:
        raise HttpError(400, "workloads requires cores > 1")
    return spec


class _ServiceMatrix(ExperimentMatrix):
    """An in-memory matrix whose misses are served by the farm.

    Figure extractors are synchronous, so they run on a thread-pool
    worker; each miss hops back onto the service loop with
    ``run_coroutine_threadsafe`` and therefore coalesces with every
    other client of the same cell.
    """

    def __init__(self, service: FarmService,
                 loop: asyncio.AbstractEventLoop,
                 instructions: int, warmup: int) -> None:
        super().__init__(instructions=instructions, warmup=warmup,
                         cache_path=None)
        self._service = service
        self._service_loop = loop

    def get(self, workload: str, config_name: str,
            chain_stats: bool = False) -> dict[str, Any]:
        if config_name not in CONFIG_BUILDERS:
            raise ValueError(f"unknown config {config_name!r}")
        cached = self._lookup(workload, config_name, chain_stats)
        if cached is not None:
            return cached
        spec = CellSpec(workload, config_name, chain_stats,
                        self.instructions, self.warmup)
        stats = asyncio.run_coroutine_threadsafe(
            self._service.cell(spec), self._service_loop).result()
        self.store(workload, config_name, chain_stats, stats)
        return stats


def _table_payload(table) -> dict[str, Any]:
    from ..analysis import render
    return {
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
        "notes": list(table.notes),
        "text": render(table),
    }


class FarmServer:
    """The farm's HTTP front-end; ``port=0`` binds an ephemeral port."""

    def __init__(
        self,
        service: FarmService,
        host: str = "127.0.0.1",
        port: int = 0,
        instructions: Optional[int] = None,
        warmup: Optional[int] = None,
    ) -> None:
        from ..analysis.experiments import (DEFAULT_INSTRUCTIONS,
                                            DEFAULT_WARMUP)
        self.service = service
        self.host = host
        self.port = port
        # Budgets for the derived endpoints (figures/sweeps/traces),
        # overridable per request; POST /v1/cells always carries its own.
        self.instructions = (DEFAULT_INSTRUCTIONS if instructions is None
                             else instructions)
        self.warmup = DEFAULT_WARMUP if warmup is None else warmup
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- plumbing ---------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await reader.readline()
            if not request:
                return
            try:
                method, target, _version = request.decode("latin-1").split()
            except ValueError:
                await self._send_json(writer, 400, {"error": "bad request"})
                return
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length") or 0)
            if length > _MAX_BODY:
                await self._send_json(writer, 413,
                                      {"error": "body too large"})
                return
            body = await reader.readexactly(length) if length else b""
            path, _, query = target.partition("?")
            params = urllib.parse.parse_qs(query)
            try:
                await self._dispatch(method, path, params, body, writer)
            except HttpError as exc:
                await self._send_json(writer, exc.status,
                                      {"error": str(exc)})
            except Exception as exc:
                await self._send_json(writer, 500, {"error": str(exc)})
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            # Client went away mid-request/mid-stream.  Nothing to do:
            # the work it may have triggered is shared and keeps running.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _send_json(writer: asyncio.StreamWriter, status: int,
                         payload: Any) -> None:
        body = json.dumps(payload).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  500: "Internal Server Error"}.get(status, "Error")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body)
        await writer.drain()

    # -- routing ----------------------------------------------------------------

    async def _dispatch(self, method: str, path: str,
                        params: dict[str, list[str]], body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        parts = [p for p in path.split("/") if p]
        if method == "GET" and path == "/healthz":
            await self._send_json(writer, 200, {"ok": True})
            return
        if method == "GET" and path == "/v1/meta":
            await self._send_json(writer, 200, {
                "model_version": MODEL_VERSION,
                "key_schema": KEY_SCHEMA,
                "jobs": self.service.jobs,
                "instructions": self.instructions,
                "warmup": self.warmup,
                "workloads": workload_names(),
                "configs": sorted(CONFIG_BUILDERS),
            })
            return
        if method == "GET" and path == "/v1/metrics":
            await self._send_json(writer, 200, self.service.metrics())
            return
        if method == "POST" and path == "/v1/cells":
            await self._post_cells(body, writer)
            return
        if method == "GET" and len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            await self._get_job(parts[2], writer)
            return
        if (method == "GET" and len(parts) == 4
                and parts[:2] == ["v1", "jobs"] and parts[3] == "events"):
            await self._stream_job(parts[2], writer)
            return
        if method == "GET" and len(parts) == 3 and parts[:2] == ["v1",
                                                                 "figures"]:
            await self._get_figure(parts[2], params, writer)
            return
        if method == "GET" and len(parts) == 3 and parts[:2] == ["v1",
                                                                 "sweeps"]:
            await self._get_sweep(parts[2], params, writer)
            return
        if (method == "GET" and len(parts) == 4
                and parts[:2] == ["v1", "traces"]):
            await self._get_trace(parts[2], parts[3], params, writer)
            return
        await self._send_json(writer, 404, {"error": f"no route {path}"})

    # -- handlers ---------------------------------------------------------------

    @staticmethod
    def _decode_body(body: bytes) -> Any:
        try:
            return json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise HttpError(400, "body must be JSON") from None

    async def _post_cells(self, body: bytes,
                          writer: asyncio.StreamWriter) -> None:
        payload = self._decode_body(body)
        if not isinstance(payload, dict) or not isinstance(
                payload.get("cells"), list) or not payload["cells"]:
            raise HttpError(400, 'body must be {"cells": [spec, ...]}')
        specs = [decode_spec(obj) for obj in payload["cells"]]
        if payload.get("wait", True):
            results = await self.service.request_cells(specs)
            await self._send_json(writer, 200, {
                "cells": [{"key": spec_cell_key(spec), "stats": stats}
                          for spec, stats in zip(specs, results)],
            })
            return
        job = self.service.submit_job(specs)
        await self._send_json(writer, 200, {"job": job.id,
                                            "cells": job.cells})

    def _job_or_404(self, job_id: str) -> FarmJob:
        job = self.service.get_job(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job

    async def _get_job(self, job_id: str,
                       writer: asyncio.StreamWriter) -> None:
        job = self._job_or_404(job_id)
        await self._send_json(writer, 200, {
            "job": job.id,
            "cells": job.cells,
            "done": job.done,
            "ok": job.ok,
            "error": job.error,
            "results": job.results,
        })

    @staticmethod
    def _relevant(event: dict[str, Any], job: FarmJob) -> bool:
        return (event.get("cell") in job.cells
                or event.get("job") == job.id)

    async def _stream_job(self, job_id: str,
                          writer: asyncio.StreamWriter) -> None:
        """Long-poll NDJSON event stream, ending at ``farm.job_done``.

        The stream drains the job's private subscription queue, which
        was attached at submission — so events emitted before the client
        connected replay first, then live events follow.
        """
        job = self._job_or_404(job_id)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        while True:
            try:
                event = job.queue.get_nowait()
            except asyncio.QueueEmpty:
                if job.done:
                    break  # job_done already streamed (or pre-drained)
                event = await job.queue.get()
            if not self._relevant(event, job):
                continue
            writer.write((json.dumps(event) + "\n").encode())
            await writer.drain()
            if (event.get("event") == "farm.job_done"
                    and event.get("job") == job.id):
                break

    def _budgets(self, params: dict[str, list[str]]) -> tuple[int, int]:
        def pick(name: str, default: int) -> int:
            raw = params.get(name, [None])[0]
            if raw is None:
                return default
            try:
                return int(raw)
            except ValueError:
                raise HttpError(400, f"{name} must be an integer") from None
        return (pick("instructions", self.instructions),
                pick("warmup", self.warmup))

    async def _get_figure(self, fig_id: str, params: dict[str, list[str]],
                          writer: asyncio.StreamWriter) -> None:
        from ..cli import FIGURES
        if fig_id not in FIGURES:
            raise HttpError(404, f"unknown figure {fig_id!r}")
        extractor, filename = FIGURES[fig_id]
        instructions, warmup = self._budgets(params)
        loop = asyncio.get_running_loop()
        matrix = _ServiceMatrix(self.service, loop, instructions, warmup)
        # The extractor is synchronous: run it on a thread, from which
        # each cell miss hops back onto this loop (and coalesces).
        table = await loop.run_in_executor(None, extractor, matrix)
        payload = _table_payload(table)
        payload.update({"figure": fig_id, "filename": filename})
        await self._send_json(writer, 200, payload)

    async def _get_sweep(self, name: str, params: dict[str, list[str]],
                         writer: asyncio.StreamWriter) -> None:
        from ..analysis.sweeps import CANNED_SWEEPS, run_named_sweep
        if name not in CANNED_SWEEPS:
            raise HttpError(404, f"unknown sweep {name!r}")
        instructions, warmup = self._budgets(params)
        benches_raw = params.get("benches", [None])[0]
        benches = benches_raw.split(",") if benches_raw else None
        loop = asyncio.get_running_loop()
        table = await loop.run_in_executor(
            None, lambda: run_named_sweep(
                name, benches=benches, instructions=instructions,
                warmup=warmup, jobs=self.service.jobs))
        payload = _table_payload(table)
        payload["sweep"] = name
        await self._send_json(writer, 200, payload)

    async def _get_trace(self, workload: str, config_name: str,
                         params: dict[str, list[str]],
                         writer: asyncio.StreamWriter) -> None:
        from ..obs import export_perfetto, run_traced
        if workload not in workload_names():
            raise HttpError(404, f"unknown workload {workload!r}")
        if config_name not in CONFIG_BUILDERS:
            raise HttpError(404, f"unknown config {config_name!r}")
        instructions, warmup = self._budgets(params)
        loop = asyncio.get_running_loop()
        run = await loop.run_in_executor(
            None, lambda: run_traced(workload, config_name,
                                     max_instructions=instructions,
                                     warmup_instructions=warmup))
        payload = export_perfetto(
            run.trace, run.samples,
            metadata={"workload": workload, "config": config_name})
        await self._send_json(writer, 200, payload)
