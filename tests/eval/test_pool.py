"""Tests for the persistent worker pool: lifecycle, crash recovery,
shared-memory shipping hygiene, concurrent runs, and
persistent-vs-inline parity."""

import glob
import json
import os
import textwrap
import threading
import time
from array import array
from multiprocessing import shared_memory

import pytest

from repro.eval import pool as pool_mod
from repro.eval import scheduler as scheduler_mod
from repro.eval.jobs import (
    Job,
    SourceSpec,
    execute_record,
    merge_jobs,
    record_task_for,
    standard_snc_specs,
)
from repro.eval.pipeline import SimulationScale
from repro.eval.pool import (
    WorkerPool,
    get_worker_pool,
    pool_stats,
    pool_stats_dict,
    remember_recording,
    resolve_recording_ref,
    shutdown_worker_pool,
)
from repro.eval.record import RecordedTask, Recording
from repro.eval.report import format_pool_stats
from repro.eval.scheduler import run_tasks
from repro.eval.trace_store import TraceStore, recording_to_bytes

_SCALE = SimulationScale(warmup_refs=20_000, measure_refs=20_000)
_WORKLOADS = ("art", "vpr", "equake")


def _tiny_recording(name: str, event_count: int = 64) -> Recording:
    """A minimal valid recording for shipment-cache unit tests."""
    return Recording(
        name=name, tasks=(RecordedTask(0, name, 6.4),),
        warmup_refs=10, measure_refs=event_count, seed=1,
        l2_lines=64, l2_assoc=4,
        read_misses=5, allocate_misses=3, writebacks=2,
        read_misses_big_l2=1, allocate_misses_big_l2=1,
        task_read_misses={0: 5},
        kinds=array("B", [1] * event_count),
        lines=array("Q", range(event_count)),
        aux=array("Q", [0] * event_count),
    )


def _jobs(scale=_SCALE, seed=1):
    specs = (standard_snc_specs()["lru64"],)
    return [
        Job(table="figure5", schemes=("otp",),
            source=SourceSpec.benchmark(name), snc_configs=specs,
            scale=scale, seed=seed)
        for name in _WORKLOADS
    ]


@pytest.fixture(scope="module")
def inline_results():
    return run_tasks(merge_jobs(_jobs()), n_jobs=1)


@pytest.fixture(autouse=True)
def _fresh_global_pool():
    """Every test starts and ends without a process-wide pool, so one
    test's workers (or injected faults) never leak into the next — and
    never into other test files sharing this pytest process."""
    shutdown_worker_pool()
    yield
    shutdown_worker_pool()


class TestDifferentialParity:
    def test_persistent_vs_inline(self, inline_results):
        """The acceptance bar: identical events whether tasks run inline
        or on the warm persistent pool."""
        tasks = merge_jobs(_jobs())
        persistent = run_tasks(tasks, n_jobs=2)
        expected = [result.events for result in inline_results]
        assert [r.events for r in persistent] == expected

    def test_pool_is_reused_across_runs(self):
        """The tentpole claim: a second run spawns zero new workers."""
        tasks = merge_jobs(_jobs())
        run_tasks(tasks, n_jobs=2)
        spawned_before = pool_stats().workers_spawned
        run_tasks(tasks, n_jobs=2)
        assert pool_stats().workers_spawned == spawned_before


class TestWorkerDeathRecovery:
    def test_crash_respawns_and_retries_inline(self, tmp_path,
                                               monkeypatch):
        """A worker that dies mid-task is buried and respawned, and the
        task runs to completion inline in the parent — once per task,
        so a chronically-crashing task still terminates."""
        helper = tmp_path / "pool_crash_helper.py"
        helper.write_text(textwrap.dedent(
            """
            import multiprocessing
            import os


            def crash_in_worker(item):
                if multiprocessing.parent_process() is not None:
                    os._exit(17)
                return (item * 10,)
            """
        ))
        monkeypatch.syspath_prepend(str(tmp_path))
        import pool_crash_helper

        stats = pool_stats()
        respawned = stats.workers_respawned
        retried = stats.tasks_retried
        pool = WorkerPool(2)
        try:
            results = []
            pool.run(pool_crash_helper.crash_in_worker, [1, 2, 3],
                     results.append)
        finally:
            pool.shutdown()
        assert sorted(results) == [10, 20, 30]
        assert stats.workers_respawned - respawned == 3
        assert stats.tasks_retried - retried == 3

    def test_death_mid_sweep_completes_with_correct_results(
            self, inline_results):
        """Kill a warm worker under the scheduler's feet: the sweep
        must still finish, byte-identical, with the dead worker
        replaced."""
        pool = get_worker_pool(2)
        victim = pool._workers[0].process
        victim.kill()
        victim.join(timeout=10)
        respawned = pool_stats().workers_respawned
        results = run_tasks(merge_jobs(_jobs()), n_jobs=2)
        assert [r.events for r in results] == [
            r.events for r in inline_results
        ]
        assert pool_stats().workers_respawned > respawned
        assert all(worker.process.is_alive()
                   for worker in pool._workers)

    def test_task_that_raises_fails_the_run_but_not_the_pool(
            self, monkeypatch):
        """An exception *raised* by a task (as opposed to a worker
        death) surfaces to the caller; the pool stays usable."""
        monkeypatch.setenv("_REPRO_POOL_FAULT", "_batch_indexed")
        tasks = merge_jobs(_jobs())
        with pytest.raises(RuntimeError, match="injected worker fault"):
            run_tasks(tasks, n_jobs=2)
        monkeypatch.delenv("_REPRO_POOL_FAULT")
        pool = pool_mod._POOL
        assert pool is not None
        assert all(worker.process.is_alive()
                   for worker in pool._workers)


class TestShmHygiene:
    def _spy_shipments(self, monkeypatch, pool):
        shipped = []
        original = pool.ship_recording

        def spy(key, recording=None, payload=None):
            ref = original(key, recording=recording, payload=payload)
            shipped.append(ref["shm"])
            return ref

        monkeypatch.setattr(pool, "ship_recording", spy)
        return shipped

    def test_segments_cached_until_shutdown(self, monkeypatch,
                                            tmp_path):
        """Shipments outlive the run (recordings are immutable per key,
        so later runs reuse them) but never the pool: shutdown must
        unlink every remaining segment."""
        pool = get_worker_pool(2)
        shipped = self._spy_shipments(monkeypatch, pool)
        run_tasks(merge_jobs(_jobs()), n_jobs=2,
                  trace_store=TraceStore(tmp_path))
        assert shipped, "persistent replay run shipped nothing via shm"
        for name in shipped:  # still published: the cross-run cache
            shared_memory.SharedMemory(name=name).close()
        shutdown_worker_pool()
        for name in shipped:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_segments_unlinked_after_exception_then_shutdown(
            self, monkeypatch):
        """A failed run keeps its shipments (a retry reuses them), and
        shutdown still reclaims every segment — no leak either way."""
        monkeypatch.setenv("_REPRO_POOL_FAULT", "_batch_indexed")
        pool = get_worker_pool(2)
        shipped = self._spy_shipments(monkeypatch, pool)
        with pytest.raises(RuntimeError):
            run_tasks(merge_jobs(_jobs()), n_jobs=2)
        assert shipped
        shutdown_worker_pool()
        for name in shipped:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_repeat_run_reuses_cached_shipments(self, tmp_path):
        """The ship-once half of the warm-pool win: a second run over
        the same recordings publishes zero new segments."""
        store = TraceStore(tmp_path)
        tasks = merge_jobs(_jobs())
        run_tasks(tasks, n_jobs=2, trace_store=store)
        shipments = pool_stats().shm_shipments
        assert shipments > 0
        run_tasks(tasks, n_jobs=2, trace_store=store)
        assert pool_stats().shm_shipments == shipments

    def test_budget_evicts_old_epochs_keeps_recent(self, monkeypatch):
        """With a zero cache budget, entries untouched for two runs are
        unlinked as soon as a new shipment lands — but entries shipped
        this run stay pinned (in-flight items may reference them)."""
        monkeypatch.setenv("REPRO_POOL_SHM_CACHE_MB", "0")
        pool = get_worker_pool(1)
        payload = recording_to_bytes(_tiny_recording("old"))
        old = pool.ship_recording("hygiene-old", payload=payload)
        assert "shm" in old
        # Same-run shipments never evict each other, budget or not.
        fresh = pool.ship_recording(
            "hygiene-fresh",
            payload=recording_to_bytes(_tiny_recording("fresh")))
        assert "hygiene-old" in pool._shipped_refs
        with pool._lock:  # two runs complete without touching them
            pool._epoch += 2
        new = pool.ship_recording(
            "hygiene-new",
            payload=recording_to_bytes(_tiny_recording("new")))
        for ref in (old, fresh):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=ref["shm"])
        shared_memory.SharedMemory(name=new["shm"]).close()
        assert list(pool._shipped_refs) == ["hygiene-new"]

    def test_shm_moves_at_least_the_payload_bytes(self, tmp_path):
        """The zero-copy claim, quantified: the bytes published via
        shared memory must cover at least what the pickle pipe would
        otherwise have carried (the gzip wire payloads)."""
        stats = pool_stats()
        shm_before = stats.shm_bytes
        store = TraceStore(tmp_path)
        run_tasks(merge_jobs(_jobs()), n_jobs=2, trace_store=store)
        payload_bytes = sum(
            path.stat().st_size for path in tmp_path.glob("*.trace")
        )
        assert payload_bytes > 0
        assert stats.shm_bytes - shm_before >= payload_bytes

    def test_ship_failure_raises_and_publishes_nothing(self,
                                                       monkeypatch):
        """A segment that cannot be created surfaces as OSError from
        ship_recording, with no counter moved and nothing cached."""
        pool = get_worker_pool(1)

        def no_segments(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(shared_memory, "SharedMemory", no_segments)
        stats = pool_stats()
        shipments, shipped_bytes = stats.shm_shipments, stats.shm_bytes
        with pytest.raises(OSError):
            pool.ship_recording("hygiene-fail",
                                recording=_tiny_recording("fail"))
        assert (stats.shm_shipments, stats.shm_bytes) == (
            shipments, shipped_bytes)
        assert "hygiene-fail" not in pool._shipped_refs
        assert "hygiene-fail" not in pool._segments

    def test_same_key_ships_once(self):
        """A second shipment of a key returns the cached reference
        without publishing another segment."""
        pool = get_worker_pool(1)
        recording = _tiny_recording("once")
        shipments = pool_stats().shm_shipments
        first = pool.ship_recording("hygiene-once", recording=recording)
        second = pool.ship_recording("hygiene-once", recording=recording)
        assert second is first
        assert pool_stats().shm_shipments == shipments + 1

    def test_payload_and_recording_ship_the_same_columns(self):
        """Shipping from the gzip wire payload or from the decoded
        object publishes the same raw columns."""
        pool = get_worker_pool(1)
        recording = _tiny_recording("forms", event_count=100)
        from_object = pool.ship_recording("hygiene-object",
                                          recording=recording)
        from_payload = pool.ship_recording(
            "hygiene-payload", payload=recording_to_bytes(recording))
        assert from_object["size"] == from_payload["size"]
        size = from_object["size"]
        object_buf = pool._segments["hygiene-object"].buf[:size]
        payload_buf = pool._segments["hygiene-payload"].buf[:size]
        assert bytes(object_buf) == bytes(payload_buf)
        pool_mod._RECORDING_LRU.pop("hygiene-payload", None)
        resolved = resolve_recording_ref(from_payload)
        pool_mod._RECORDING_LRU.pop("hygiene-payload", None)
        assert resolved.event_count == recording.event_count
        assert list(resolved.lines) == list(recording.lines)

    def test_shm_failure_prices_the_run_inline(self, monkeypatch,
                                               tmp_path, inline_results):
        """A segment that cannot be created fails the shipment, and the
        scheduler prices the run inline instead: identical events,
        nothing dispatched, and no segment left behind.  The store is
        warm, so the recordings reach the inline loop as the wire
        payloads read for shipping."""
        store = TraceStore(tmp_path)
        run_tasks(merge_jobs(_jobs()), n_jobs=1, trace_store=store)
        real = shared_memory.SharedMemory

        def no_segments(*args, create=False, **kwargs):
            if create:
                raise OSError(28, "No space left on device")
            return real(*args, create=create, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", no_segments)
        dispatched = pool_stats().tasks_dispatched
        results = run_tasks(merge_jobs(_jobs()), n_jobs=2,
                            trace_store=store)
        assert [r.events for r in results] == [
            r.events for r in inline_results
        ]
        assert pool_stats().tasks_dispatched == dispatched
        shutdown_worker_pool()
        assert not glob.glob(f"/dev/shm/repro_pool_{os.getpid()}_*")


class TestRecordingLRU:
    def test_ref_resolves_once_per_process(self):
        record_task = record_task_for(merge_jobs(_jobs())[0])
        recording = execute_record(record_task)
        pool = WorkerPool(1)
        try:
            ref = pool.ship_recording("test-lru-key", recording=recording)
            pool_mod._RECORDING_LRU.pop("test-lru-key", None)
            first = resolve_recording_ref(ref)
            second = resolve_recording_ref(ref)
        finally:
            pool.shutdown()
        assert first is second  # decoded once, LRU-served after
        assert first.event_count == recording.event_count

    def test_lru_evicts_beyond_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_LRU_RECORDINGS", "2")
        pool_mod._RECORDING_LRU.clear()
        sentinel = object()
        for key in ("a", "b", "c"):
            remember_recording(key, sentinel)
        assert list(pool_mod._RECORDING_LRU) == ["b", "c"]
        pool_mod._RECORDING_LRU.clear()


class TestConcurrentRuns:
    def test_concurrent_runs_return_identical_events(self, monkeypatch):
        """Two threads sweeping the same tasks with their record passes
        in flight together: both finish, with identical events."""

        def slow_record(record_task):
            time.sleep(1.0)
            return execute_record(record_task)

        monkeypatch.setattr(scheduler_mod, "execute_record",
                            slow_record)
        tasks = merge_jobs(_jobs()[:1])
        outcomes = {}

        def sweep(tag, delay):
            time.sleep(delay)
            outcomes[tag] = run_tasks(tasks, n_jobs=1)

        first = threading.Thread(target=sweep, args=("first", 0.0))
        second = threading.Thread(target=sweep, args=("second", 0.4))
        first.start()
        second.start()
        first.join(timeout=120)
        second.join(timeout=120)
        assert not first.is_alive() and not second.is_alive()
        first_events = [r.events for r in outcomes["first"]]
        second_events = [r.events for r in outcomes["second"]]
        assert len(first_events) == len(tasks)
        assert first_events == second_events


class TestPoolLifecycle:
    def test_get_worker_pool_grows_never_shrinks(self):
        pool = get_worker_pool(1)
        assert pool.n_workers == 1
        assert get_worker_pool(2) is pool
        assert pool.n_workers == 2
        assert get_worker_pool(1) is pool
        assert pool.n_workers == 2

    def test_shutdown_stops_workers(self):
        pool = get_worker_pool(1)
        processes = [worker.process for worker in pool._workers]
        shutdown_worker_pool()
        assert all(not process.is_alive() for process in processes)
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run(execute_record, [(0, None)], lambda *a: None)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            WorkerPool(0)


class TestPoolStatsLine:
    def test_spawned_once_wording(self):
        stats = pool_mod.PoolStats(workers_spawned=4,
                                   tasks_dispatched=22,
                                   shm_shipments=11,
                                   shm_bytes=7_400_000)
        line = format_pool_stats(stats)
        assert "4 workers spawned once" in line
        assert "22 tasks dispatched" in line
        assert "11 shm shipments (7.4 MB zero-copy)" in line
        assert "respawned" not in line

    def test_respawn_wording(self):
        stats = pool_mod.PoolStats(workers_spawned=5,
                                   workers_respawned=1,
                                   tasks_dispatched=9, tasks_retried=1)
        line = format_pool_stats(stats)
        assert "5 workers (1 respawned after death)" in line
        assert "spawned once" not in line
        assert "1 retried inline" in line

    def test_singular_wording(self):
        stats = pool_mod.PoolStats(workers_spawned=1,
                                   tasks_dispatched=1,
                                   shm_shipments=1, shm_bytes=240_000)
        line = format_pool_stats(stats)
        assert line == ("pool: 1 worker spawned once, 1 task dispatched, "
                        "1 shm shipment (0.2 MB zero-copy)")


class TestPoolStatsDict:
    @pytest.mark.parametrize("key", [
        "shm_bytes", "tasks_dispatched", "tasks_retried",
        "workers_respawned",
    ])
    def test_reports_counter(self, key):
        """The counters the production-path benchmark reads per pass
        are in the snapshot, with the live values."""
        stats = pool_stats()
        snapshot = pool_stats_dict()
        assert snapshot[key] == getattr(stats, key)
        assert isinstance(snapshot[key], int)

    def test_snapshot_is_detached_and_json_ready(self):
        snapshot = pool_stats_dict()
        assert set(snapshot) == set(pool_mod.PoolStats.__dataclass_fields__)
        json.loads(json.dumps(snapshot))
        dispatched = pool_stats().tasks_dispatched
        snapshot["tasks_dispatched"] += 1000
        assert pool_stats().tasks_dispatched == dispatched
