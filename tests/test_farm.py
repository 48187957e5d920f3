"""Farm service and result-store tests (no HTTP).

Concurrency is driven deterministically: the service runs on a plain
``asyncio.run`` loop with an injected runner and a ThreadPoolExecutor,
so coalescing, crash-requeue, and cancellation interleavings are
arranged with events/gathers rather than timing.
"""

import asyncio
import json
import threading
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import pytest

from repro.analysis.experiments import (ExperimentMatrix, KEY_SCHEMA,
                                        MODEL_VERSION)
from repro.analysis.parallel import CellSpec
from repro.config import SamplingConfig
from repro.farm import FarmError, FarmService, ResultStore, spec_cell_key
from repro.obs import FARM_EVENT_KINDS, farm_registry, validate_farm_event

SPEC = CellSpec("calculix", "baseline", False, 400, 500)
SPEC2 = CellSpec("calculix", "runahead", False, 400, 500)


class CountingRunner:
    """Thread-safe fake cell runner with scriptable failures."""

    def __init__(self, fail_first: int = 0, exc=BrokenExecutor,
                 gate: threading.Event = None):
        self.calls = []
        self.lock = threading.Lock()
        self.fail_first = fail_first
        self.exc = exc
        self.gate = gate

    def __call__(self, spec):
        with self.lock:
            self.calls.append(spec)
            n = len(self.calls)
        if self.gate is not None:
            assert self.gate.wait(10)
        if n <= self.fail_first:
            raise self.exc(f"boom {n}")
        return {"workload": spec.workload, "config_name": spec.config_name,
                "chain_stats": spec.chain_stats, "call": n}


def _service(runner, **kwargs) -> FarmService:
    return FarmService(runner=runner,
                       executor_factory=lambda: ThreadPoolExecutor(2),
                       **kwargs)


def _fingerprint(stats) -> str:
    return json.dumps(stats, sort_keys=True)


# ---------------------------------------------------------------------------
# Cell keys
# ---------------------------------------------------------------------------

class TestSpecCellKey:
    def test_matches_matrix_key_detailed(self):
        matrix = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=None)
        assert spec_cell_key(SPEC) == matrix._key("calculix", "baseline",
                                                  False)
        chains = SPEC._replace(chain_stats=True)
        assert spec_cell_key(chains) == matrix._key("calculix", "baseline",
                                                    True)

    def test_matches_matrix_key_two_level(self):
        plan = SamplingConfig(tier="two-level", ramp_instructions=100,
                              window_instructions=200,
                              stride_instructions=1000)
        matrix = ExperimentMatrix(instructions=5000, warmup=500,
                                  cache_path=None, sampling=plan)
        spec = CellSpec("calculix", "baseline", False, 5000, 500,
                        tier="two-level", ramp=100, window=200, stride=1000)
        assert spec_cell_key(spec) == matrix._key("calculix", "baseline",
                                                  False)

    def test_multicore_specs_append_mc_suffix(self):
        spec = CellSpec("", "rab_cc", False, 2000, 3000,
                        cores=2, share="llc,dram", workloads="mcf,lbm")
        key = spec_cell_key(spec)
        assert key == "mcf/rab_cc/2000/w3000/mc2.llc+dram.mcf+lbm"
        # Core order is semantic: permuted workloads address a new cell.
        swapped = spec._replace(workloads="lbm,mcf")
        assert spec_cell_key(swapped) != key
        # Single-core specs are untouched by the new fields' defaults.
        single = CellSpec("mcf", "rab_cc", False, 2000, 3000)
        assert spec_cell_key(single) == "mcf/rab_cc/2000/w3000"


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------

class TestResultStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = spec_cell_key(SPEC)
        assert store.get(cell) is None
        assert store.put(cell, {"ipc": 1.5}) is True
        assert ResultStore(tmp_path).get(cell) == {"ipc": 1.5}
        assert (store.hits, store.misses, store.puts) == (0, 1, 1)

    def test_entries_are_write_once(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = spec_cell_key(SPEC)
        assert store.put(cell, {"ipc": 1.5}) is True
        assert store.put(cell, {"ipc": 9.9}) is False
        assert store.get(cell) == {"ipc": 1.5}

    def test_version_dir_partitions_by_model_and_schema(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(spec_cell_key(SPEC), {"ipc": 1.0})
        assert store.version_dir.name == f"v{MODEL_VERSION}.{KEY_SCHEMA}"
        assert store.version_dir.is_dir()

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = spec_cell_key(SPEC)
        store.put(cell, {"ipc": 1.0})
        path = store._path(cell)
        path.write_text("not json {")
        assert store.get(cell) is None
        assert not path.exists()
        # A rewrite after eviction works.
        assert store.put(cell, {"ipc": 2.0}) is True
        assert store.get(cell) == {"ipc": 2.0}

    def test_foreign_cell_payload_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = spec_cell_key(SPEC)
        store.put(cell, {"ipc": 1.0})
        path = store._path(cell)
        path.write_text(json.dumps({"cell": "someone/else", "stats": {}}))
        assert store.get(cell) is None

    def test_eviction_preserves_concurrent_valid_rewrite(self, tmp_path):
        # The lost-update race: an evictor that read corrupt bytes must
        # not destroy a valid entry a peer wrote in the meantime.
        store = ResultStore(tmp_path)
        cell = spec_cell_key(SPEC)
        store.put(cell, {"ipc": 1.0})
        path = store._path(cell)
        recovered = store._evict(path, cell)
        assert recovered == {"ipc": 1.0}
        assert path.exists()
        assert ResultStore(tmp_path).get(cell) == {"ipc": 1.0}


# ---------------------------------------------------------------------------
# Coalescing and the cell path
# ---------------------------------------------------------------------------

class TestCoalescing:
    def test_identical_concurrent_requests_execute_once(self):
        runner = CountingRunner()

        async def main():
            svc = _service(runner)
            results = await asyncio.gather(*(svc.cell(SPEC)
                                             for _ in range(8)))
            await svc.close()
            return svc, results

        svc, results = asyncio.run(main())
        assert len(runner.calls) == 1
        assert svc.admitted == 1
        assert svc.coalesced == 7
        assert svc.completed == 1
        assert svc.inflight == 0
        assert len({_fingerprint(r) for r in results}) == 1

    def test_burst_of_distinct_cells_admits_as_one_batch(self):
        runner = CountingRunner()
        specs = [SPEC, SPEC2, SPEC._replace(instructions=800)]

        async def main():
            svc = _service(runner)
            await asyncio.gather(*(svc.cell(s) for s in specs))
            await svc.close()
            return svc

        svc = asyncio.run(main())
        assert svc.admitted == 3
        assert svc.batches == 1

    def test_memo_serves_repeat_requests(self):
        runner = CountingRunner()

        async def main():
            svc = _service(runner)
            first = await svc.cell(SPEC)
            second = await svc.cell(SPEC)
            await svc.close()
            return svc, first, second

        svc, first, second = asyncio.run(main())
        assert len(runner.calls) == 1
        assert svc.memo_hits == 1
        assert first is second

    def test_chains_superset_serves_plain_requests(self):
        runner = CountingRunner()
        chains = SPEC._replace(chain_stats=True)

        async def main():
            svc = _service(runner)
            await svc.cell(chains)
            await svc.cell(SPEC)
            await svc.close()
            return svc

        svc = asyncio.run(main())
        assert len(runner.calls) == 1
        assert svc.memo_hits == 1

    def test_store_round_trip_across_service_restarts(self, tmp_path):
        runner = CountingRunner()
        store = ResultStore(tmp_path)

        async def run_once():
            svc = _service(runner, store=ResultStore(tmp_path))
            stats = await svc.cell(SPEC)
            await svc.close()
            return svc, stats

        svc1, stats1 = asyncio.run(run_once())
        svc2, stats2 = asyncio.run(run_once())
        assert len(runner.calls) == 1            # second service never ran
        assert svc2.store_hits == 1
        assert svc2.completed == 0
        assert _fingerprint(stats1) == _fingerprint(stats2)


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------

class TestFailurePaths:
    def test_worker_crash_requeues_and_recovers(self):
        runner = CountingRunner(fail_first=1)

        async def main():
            svc = _service(runner)
            events = svc.subscribe()
            stats = await svc.cell(SPEC)
            await svc.close()
            drained = []
            while not events.empty():
                drained.append(events.get_nowait())
            return svc, stats, drained

        svc, stats, events = asyncio.run(main())
        assert len(runner.calls) == 2
        assert svc.requeues == 1
        assert svc.completed == 1
        assert svc.failures == 0
        assert svc.inflight == 0                 # no wedged entry
        kinds = [e["event"] for e in events]
        assert kinds.count("farm.requeued") == 1
        done = [e for e in events if e["event"] == "farm.done"]
        assert done[0]["attempts"] == 2

    def test_worker_crashes_exhaust_attempts_then_fail(self):
        runner = CountingRunner(fail_first=99)

        async def main():
            svc = _service(runner, max_attempts=2)
            with pytest.raises(FarmError):
                await svc.cell(SPEC)
            inflight_after_failure = svc.inflight
            # The key is not wedged: a later request retries fresh.
            runner.fail_first = len(runner.calls)
            stats = await svc.cell(SPEC)
            await svc.close()
            return svc, inflight_after_failure, stats

        svc, inflight_after_failure, stats = asyncio.run(main())
        assert inflight_after_failure == 0
        assert svc.failures == 1
        assert svc.requeues == 1                 # attempt 1 -> 2 only
        assert stats["workload"] == "calculix"

    def test_deterministic_failure_fails_fast_without_retry(self):
        runner = CountingRunner(fail_first=99, exc=ValueError)

        async def main():
            svc = _service(runner)
            with pytest.raises(ValueError):
                await svc.cell(SPEC)
            await svc.close()
            return svc

        svc = asyncio.run(main())
        assert len(runner.calls) == 1
        assert svc.requeues == 0
        assert svc.failures == 1
        assert svc.inflight == 0

    def test_cancelled_waiter_does_not_cancel_shared_run(self):
        gate = threading.Event()
        runner = CountingRunner(gate=gate)

        async def main():
            svc = _service(runner)
            first = asyncio.create_task(svc.cell(SPEC))
            await asyncio.sleep(0.05)            # first admitted + running
            second = asyncio.create_task(svc.cell(SPEC))
            await asyncio.sleep(0.05)            # second coalesced
            second.cancel()
            await asyncio.sleep(0)
            gate.set()
            stats = await first
            await svc.close()
            return svc, stats, second

        svc, stats, second = asyncio.run(main())
        assert second.cancelled()
        assert len(runner.calls) == 1
        assert svc.completed == 1
        assert stats["workload"] == "calculix"


# ---------------------------------------------------------------------------
# Jobs and events
# ---------------------------------------------------------------------------

class TestJobs:
    def test_job_streams_events_and_collects_results(self):
        runner = CountingRunner()

        async def main():
            svc = _service(runner)
            job = svc.submit_job([SPEC, SPEC2])
            events = []
            while True:
                event = await asyncio.wait_for(job.queue.get(), timeout=10)
                events.append(event)
                if event["event"] == "farm.job_done":
                    break
            await svc.close()
            return job, events

        job, events = asyncio.run(main())
        assert job.ok
        assert len(job.results) == 2
        kinds = [e["event"] for e in events]
        assert kinds.count("farm.queued") == 2
        assert kinds.count("farm.done") == 2
        assert kinds[-1] == "farm.job_done"
        assert events[-1] == {"event": "farm.job_done", "job": job.id,
                              "cells": 2, "ok": True}

    def test_failed_job_reports_error(self):
        runner = CountingRunner(fail_first=99, exc=ValueError)

        async def main():
            svc = _service(runner)
            job = svc.submit_job([SPEC])
            await job.task
            await svc.close()
            return job

        job = asyncio.run(main())
        assert job.done and not job.ok
        assert "boom" in job.error


# ---------------------------------------------------------------------------
# Observability plumbing
# ---------------------------------------------------------------------------

class TestFarmObs:
    def test_registry_collects_every_counter(self):
        runner = CountingRunner()

        async def main():
            svc = _service(runner)
            await svc.cell(SPEC)
            await svc.close()
            return svc

        svc = asyncio.run(main())
        values = farm_registry().collect(svc)
        assert values["farm.requests"] == 1
        assert values["farm.admitted"] == 1
        assert values["farm.completed"] == 1
        assert values["farm.inflight"] == 0
        assert set(values) == set(farm_registry().names())

    def test_validate_farm_event_enforces_schema(self):
        validate_farm_event({"event": "farm.queued", "cell": "a/b/1/w2"})
        with pytest.raises(ValueError):
            validate_farm_event({"event": "farm.unknown", "cell": "x"})
        with pytest.raises(ValueError):
            validate_farm_event({"event": "farm.queued"})          # missing
        with pytest.raises(ValueError):
            validate_farm_event({"event": "farm.queued",
                                 "cell": "x", "extra": 1})         # extra
        with pytest.raises(ValueError):
            validate_farm_event({"event": "farm.done", "cell": "x",
                                 "attempts": True})                # bool!=int

    def test_every_schema_kind_is_exported(self):
        assert "farm.queued" in FARM_EVENT_KINDS
        assert "farm.job_done" in FARM_EVENT_KINDS


class TestDefaultExecutor:
    def test_default_pool_uses_spawn_context(self):
        """The default worker pool must use the spawn start method.

        Pool workers are created lazily — while client sockets are
        open.  A fork'd worker inherits duplicates of every accepted
        connection fd and holds them for the pool's lifetime, so the
        server's FIN after ``Connection: close`` never reaches a
        streaming client (it hangs until its timeout).  spawn'd
        workers exec a fresh interpreter and inherit no sockets.
        """
        async def main():
            svc = FarmService(jobs=1)
            try:
                executor = svc._get_executor()
                return executor._mp_context.get_start_method()
            finally:
                await svc.close()

        assert asyncio.run(main()) == "spawn"
