"""Farm HTTP server + client tests.

Each test spins the server on an ephemeral port inside ``asyncio.run``
and drives the blocking :class:`FarmClient` from the default thread
executor (the client must never run on the service loop).  Fake runners
keep most tests instant; the byte-identity tests run the real
``simulate_cell`` on tiny budgets.
"""

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.experiments import ExperimentMatrix
from repro.analysis.parallel import CellSpec, simulate_cell
from repro.farm import (FarmClient, FarmClientError, FarmServer, FarmService,
                        ResultStore, decode_spec, spec_cell_key)
from repro.farm.http import HttpError

SPEC = CellSpec("calculix", "baseline", False, 400, 500)
SPEC2 = CellSpec("calculix", "runahead", False, 400, 500)


def _fake_runner(spec):
    return {"workload": spec.workload, "config_name": spec.config_name,
            "ipc": 1.0}


def _with_server(body, service=None, runner=_fake_runner, **server_kwargs):
    """Run ``body(client, service)`` in a worker thread against a live
    server; returns whatever ``body`` returns."""

    async def main():
        svc = service if service is not None else FarmService(
            runner=runner, executor_factory=lambda: ThreadPoolExecutor(2))
        server = FarmServer(svc, port=0, instructions=400, warmup=500,
                            **server_kwargs)
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            client = FarmClient(server.url, timeout=120)
            return await loop.run_in_executor(None, body, client, svc)
        finally:
            await server.close()

    return asyncio.run(main())


def _fingerprint(stats) -> str:
    return json.dumps(stats, sort_keys=True)


# ---------------------------------------------------------------------------
# Basic endpoints
# ---------------------------------------------------------------------------

class TestEndpoints:
    def test_healthz_meta_and_metrics(self):
        def body(client, svc):
            assert client.healthz()
            meta = client.meta()
            stats = client.fetch_cells([SPEC])[0]
            metrics = client.metrics()
            return meta, stats, metrics

        meta, stats, metrics = _with_server(body)
        assert meta["key_schema"] >= 3
        assert "calculix" in meta["workloads"]
        assert stats["workload"] == "calculix"
        assert metrics["farm.requests"] == 1
        assert metrics["farm.completed"] == 1

    def test_job_submit_poll_and_event_stream(self):
        def body(client, svc):
            job_id = client.submit([SPEC, SPEC2])
            events = list(client.stream_events(job_id))
            doc = client.job(job_id)
            return job_id, events, doc

        job_id, events, doc = _with_server(body)
        assert doc["ok"] and doc["done"]
        assert doc["cells"] == [spec_cell_key(SPEC), spec_cell_key(SPEC2)]
        assert len(doc["results"]) == 2
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "farm.job_done"
        assert kinds.count("farm.done") == 2

    def test_unknown_job_and_route_are_404(self):
        def body(client, svc):
            statuses = []
            for call in (lambda: client.job("job-999"),
                         lambda: client._request("GET", "/v1/nothing")):
                with pytest.raises(FarmClientError) as err:
                    call()
                statuses.append(err.value.status)
            return statuses

        assert _with_server(body) == [404, 404]

    def test_bad_cell_specs_are_400(self):
        def body(client, svc):
            statuses = []
            for payload in ({"cells": []},
                            {"cells": [{"workload": "nope",
                                        "config_name": "baseline",
                                        "instructions": 400,
                                        "warmup": 500}]},
                            {"cells": [{"workload": "calculix",
                                        "config_name": "baseline",
                                        "instructions": 400,
                                        "warmup": 500,
                                        "bogus_field": 1}]}):
                with pytest.raises(FarmClientError) as err:
                    client._request("POST", "/v1/cells", payload)
                statuses.append(err.value.status)
            return statuses

        assert _with_server(body) == [400, 400, 400]

    def test_figure_endpoint_serves_table(self):
        def body(client, svc):
            return client.figure("table1")

        doc = _with_server(body)
        assert doc["figure"] == "table1"
        assert doc["rows"] and doc["headers"]
        assert doc["title"].startswith("Table 1")
        assert "\n" in doc["text"]

    def test_trace_endpoint_serves_perfetto_json(self):
        def body(client, svc):
            return client.trace("calculix", "baseline",
                                instructions=400, warmup=500)

        doc = _with_server(body)
        assert "traceEvents" in doc
        assert any(e.get("name") == "process_name"
                   for e in doc["traceEvents"])


class TestDecodeSpec:
    def test_rejects_bad_types_and_plans(self):
        base = {"workload": "calculix", "config_name": "baseline",
                "instructions": 400, "warmup": 500}
        for broken in ({**base, "chain_stats": 1},
                       {**base, "instructions": "400"},
                       {**base, "instructions": 0},
                       {**base, "tier": "bogus"},
                       {**base, "tier": "two-level", "ramp": 100,
                        "window": 200, "stride": 250},
                       "not a dict"):
            with pytest.raises(HttpError):
                decode_spec(broken)

    def test_multicore_specs_validated(self):
        spec = decode_spec({"workload": "", "config_name": "rab_cc",
                            "instructions": 400, "warmup": 500,
                            "cores": 2, "workloads": "mcf,lbm"})
        assert spec.cores == 2 and spec.share == "llc,dram"
        base = {"workload": "mcf", "config_name": "rab_cc",
                "instructions": 400, "warmup": 500}
        for broken in ({**base, "cores": 0},
                       {**base, "cores": 9},
                       {**base, "cores": 2},                  # no workloads
                       {**base, "cores": 2, "workloads": "mcf"},
                       {**base, "cores": 2, "workloads": "mcf,nope"},
                       {**base, "cores": 2, "workloads": "mcf,lbm",
                        "share": "bogus"},
                       {**base, "cores": 2, "workloads": "mcf,lbm",
                        "chain_stats": True},
                       {**base, "cores": 2, "workloads": "mcf,lbm",
                        "tier": "two-level", "ramp": 100, "window": 200,
                        "stride": 1000},
                       {**base, "workloads": "mcf,lbm"}):     # cores == 1
            with pytest.raises(HttpError):
                decode_spec(broken)


# ---------------------------------------------------------------------------
# The acceptance-criteria paths
# ---------------------------------------------------------------------------

class TestConcurrentClients:
    def test_two_clients_same_uncached_cell_one_execution(self):
        """Two concurrent clients requesting the same uncached cell must
        trigger exactly one simulation and receive byte-identical stats."""
        started = threading.Event()
        release = threading.Event()
        calls = []

        def gated_runner(spec):
            calls.append(spec)
            started.set()
            assert release.wait(60)
            return simulate_cell(spec)

        def body(client, svc):
            results = []

            def fetch():
                results.append(client.fetch_cells([SPEC])[0])

            first = threading.Thread(target=fetch)
            second = threading.Thread(target=fetch)
            first.start()
            assert started.wait(60)          # first request is executing
            second.start()
            deadline = time.monotonic() + 30
            while svc.coalesced < 1:         # second request coalesced
                assert time.monotonic() < deadline
                time.sleep(0.01)
            release.set()
            first.join(120)
            second.join(120)
            return results

        results = _with_server(body, runner=gated_runner)
        assert len(calls) == 1
        assert len(results) == 2
        fingerprints = {_fingerprint(r) for r in results}
        assert len(fingerprints) == 1
        # And it is a real simulation payload, not a placeholder.
        assert results[0]["ipc"] > 0

    def test_rerequest_hits_store_after_service_restart(self, tmp_path):
        def body(client, svc):
            return client.fetch_cells([SPEC])[0]

        first = _with_server(
            body, service=FarmService(
                runner=_fake_runner, store=ResultStore(tmp_path),
                executor_factory=lambda: ThreadPoolExecutor(2)))
        svc2 = FarmService(runner=_fake_runner, store=ResultStore(tmp_path),
                           executor_factory=lambda: ThreadPoolExecutor(2))

        def body2(client, svc):
            stats = client.fetch_cells([SPEC])[0]
            return stats, client.metrics()

        second, metrics = _with_server(body2, service=svc2)
        assert _fingerprint(first) == _fingerprint(second)
        assert metrics["farm.store_hits"] == 1
        assert metrics["farm.completed"] == 0    # nothing re-simulated

    def test_client_disconnect_mid_stream_keeps_run_alive(self):
        release = threading.Event()

        def gated_runner(spec):
            assert release.wait(60)
            return _fake_runner(spec)

        def body(client, svc):
            job_id = client.submit([SPEC])
            # Raw-socket stream: read one event line, then hang up.
            with socket.create_connection((client.host, client.port),
                                          timeout=30) as raw:
                raw.sendall(f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                            f"Host: x\r\n\r\n".encode())
                buffered = b""
                while b"\n" not in buffered.split(b"\r\n\r\n", 1)[-1]:
                    buffered += raw.recv(4096)
            # Socket closed mid-stream; the shared run must finish.
            release.set()
            deadline = time.monotonic() + 30
            while not client.job(job_id)["done"]:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            return client.job(job_id)

        doc = _with_server(body, runner=gated_runner)
        assert doc["ok"]
        assert doc["results"][0]["workload"] == "calculix"


class TestRemoteMatrix:
    CELLS = [("calculix", "baseline", False), ("calculix", "runahead", False)]

    def test_remote_suite_prefetch_byte_identical_to_local(self, tmp_path):
        """``repro suite --remote`` cells must byte-match the in-process
        path: same stats, same cache file."""
        local_path = tmp_path / "local.json"
        local = ExperimentMatrix(instructions=400, warmup=500,
                                 cache_path=local_path)
        assert local.prefetch(self.CELLS, jobs=1) == 2

        remote_path = tmp_path / "remote.json"

        def body(client, svc):
            remote = ExperimentMatrix(instructions=400, warmup=500,
                                      cache_path=remote_path)
            progress = []
            count = client.prefetch_matrix(
                remote, self.CELLS,
                progress=lambda spec, done, total: progress.append(
                    (done, total)))
            return count, progress

        count, progress = _with_server(body, runner=simulate_cell)
        assert count == 2
        assert progress[-1] == (2, 2)
        assert local_path.read_bytes() == remote_path.read_bytes()

    def test_prefetch_matrix_noop_when_cached(self, tmp_path):
        path = tmp_path / "cache.json"
        matrix = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=path)
        for workload, config_name, chains in self.CELLS:
            matrix.store(workload, config_name, chains, {"ipc": 1.0})

        def body(client, svc):
            return client.prefetch_matrix(matrix, self.CELLS)

        assert _with_server(body) == 0
