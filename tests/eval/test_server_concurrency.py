"""Concurrent clients against one serve daemon: cross-client
single-flight dedupe, byte-identical results for every subscriber, and
shared work surviving a subscriber's disconnect.

The daemon runs on a background thread; the hammer clients are real
asyncio connections speaking the wire protocol directly, so the
concurrency under test is the protocol's, not a client library's.  The
``_REPRO_SERVE_STALL`` test knob delays batch execution long enough
that every late submitter deterministically *joins* the first
submitter's in-flight tasks instead of racing past them.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

from oracle import produce_task

from repro.eval.cache import events_to_dict
from repro.eval.client import EvalClient
from repro.eval.jobs import SNCSpec, SimulationTask, task_to_wire
from repro.eval.pipeline import SimulationScale
from repro.eval.server import start_server_thread

#: Small enough to execute in well under a second each, big enough to
#: clear every chosen workload's initialization phase.
SCALE = SimulationScale(warmup_refs=8_000, measure_refs=8_000)
WORKLOADS = ("art", "vpr", "gzip", "mesa")


def tiny_task(workload: str) -> SimulationTask:
    return SimulationTask(
        workload=workload,
        snc_configs=(SNCSpec(key="lru64"),),
        scale=SCALE,
    )


async def submit_frames(port: int, tasks, rid: str) -> dict:
    """One asyncio client: submit, collect frames, return the final
    one (``result`` or ``error``) plus the progress count."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        frame = {"type": "submit", "id": rid,
                 "tasks": [task_to_wire(task) for task in tasks]}
        writer.write(json.dumps(frame).encode() + b"\n")
        await writer.drain()
        progress = 0
        while True:
            reply = json.loads(await reader.readline())
            if reply["type"] == "progress":
                progress += 1
                continue
            reply["progress_frames"] = progress
            return reply
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestSingleFlight:
    def test_hammer_overlapping_job_sets(self, monkeypatch):
        """Five concurrent clients, overlapping task sets: the daemon
        executes each distinct task exactly once and every subscriber
        gets byte-identical events."""
        monkeypatch.setenv("_REPRO_SERVE_STALL", "0.5")
        tasks = [tiny_task(workload) for workload in WORKLOADS]
        # Overlapping subsets: every client wants art; the rest varies.
        job_sets = [
            tasks,
            tasks[:2],
            [tasks[0], tasks[2]],
            [tasks[0], tasks[3], tasks[1]],
            list(reversed(tasks)),
        ]
        with start_server_thread(n_jobs=1) as handle:
            port = handle.server.port

            async def hammer():
                return await asyncio.gather(*(
                    submit_frames(port, job_set, f"client{i}")
                    for i, job_set in enumerate(job_sets)
                ))

            replies = asyncio.run(hammer())
            with EvalClient(handle.address) as client:
                stats = client.stats()

        # Single-flight: executed count == distinct tasks, everything
        # else joined an in-flight run (the stall guarantees no client
        # found the LRU already warm).
        assert stats["tasks_executed"] == len(tasks)
        assert stats["tasks_requested"] == sum(map(len, job_sets))
        assert stats["tasks_joined"] == (
            stats["tasks_requested"] - stats["tasks_executed"]
        )
        total_counts = {"executed": 0, "hot": 0, "joined": 0}
        by_workload: dict[str, list] = {}
        for reply, job_set in zip(replies, job_sets):
            assert reply["type"] == "result", reply
            assert len(reply["results"]) == len(job_set)
            # One progress frame per task, streamed before the result.
            assert reply["progress_frames"] == len(job_set)
            for key in total_counts:
                total_counts[key] += reply["counts"][key]
            for task, entry in zip(job_set, reply["results"]):
                by_workload.setdefault(task.workload, []).append(
                    entry["events"]
                )
        assert total_counts["executed"] == len(tasks)
        assert total_counts["hot"] == 0
        # Byte-identical across subscribers: every client's copy of a
        # workload's events serializes to the same dict.
        for workload, copies in by_workload.items():
            assert len(copies) >= 2, workload
            assert all(copy == copies[0] for copy in copies), workload

    def test_results_match_local_execution(self, monkeypatch):
        """What the subscribers got is exactly what a local run
        produces — dedupe never substitutes stale or foreign events."""
        task = tiny_task("art")
        with start_server_thread(n_jobs=1) as handle:
            with EvalClient(handle.address) as client:
                (result,) = client.run_tasks([task])
        assert (events_to_dict(result.events)
                == events_to_dict(produce_task(task)))


class TestOneBatchAtATime:
    def test_distinct_batches_never_overlap(self, monkeypatch):
        """Clients with distinct task sets queue separate batches, and
        the daemon never has two scheduler calls in progress at once —
        the scheduler keeps no cross-call state that overlapping calls
        would need."""
        from repro.eval import server as server_mod

        monkeypatch.setenv("_REPRO_SERVE_STALL", "0.3")
        lock = threading.Lock()
        counts = {"calls": 0, "active": 0, "peak": 0}
        run_tasks = server_mod.run_tasks

        def counted(*args, **kwargs):
            with lock:
                counts["calls"] += 1
                counts["active"] += 1
                counts["peak"] = max(counts["peak"], counts["active"])
            try:
                return run_tasks(*args, **kwargs)
            finally:
                with lock:
                    counts["active"] -= 1

        monkeypatch.setattr(server_mod, "run_tasks", counted)
        job_sets = [[tiny_task(workload)] for workload in WORKLOADS]
        with start_server_thread(n_jobs=1) as handle:
            port = handle.server.port

            async def clients():
                return await asyncio.gather(*(
                    submit_frames(port, job_set, f"client{i}")
                    for i, job_set in enumerate(job_sets)
                ))

            replies = asyncio.run(clients())
        assert counts["calls"] == len(job_sets)
        assert counts["peak"] == 1
        for reply, job_set in zip(replies, job_sets):
            assert reply["type"] == "result", reply
            assert reply["counts"]["executed"] == len(job_set)
            assert len(reply["results"]) == len(job_set)


class TestDisconnects:
    def test_disconnect_mid_stream_keeps_shared_task(self, monkeypatch):
        """A subscriber hanging up mid-request must not cancel the
        task for the surviving subscribers."""
        monkeypatch.setenv("_REPRO_SERVE_STALL", "0.5")
        tasks = [tiny_task("art"), tiny_task("vpr")]
        with start_server_thread(n_jobs=1) as handle:
            survivor_results = []
            errors = []

            def survivor():
                try:
                    with EvalClient(handle.address) as client:
                        survivor_results.extend(
                            client.run_tasks(tasks)
                        )
                except Exception as err:  # surfaced by the assert below
                    errors.append(err)

            thread = threading.Thread(target=survivor)
            thread.start()
            # Give the survivor time to enqueue, then subscribe to the
            # same tasks and hang up before any result arrives.
            time.sleep(0.15)
            sock = socket.create_connection(
                ("127.0.0.1", handle.server.port), timeout=10
            )
            frame = {"type": "submit", "id": "quitter",
                     "tasks": [task_to_wire(task) for task in tasks]}
            sock.sendall(json.dumps(frame).encode() + b"\n")
            sock.close()

            thread.join(timeout=30)
            assert not thread.is_alive()
            assert not errors, errors
            assert len(survivor_results) == len(tasks)
            # The shared run completed once; the quitter's tasks joined
            # it rather than spawning (or cancelling) anything.
            with EvalClient(handle.address) as client:
                stats = client.stats()
                assert stats["tasks_executed"] == len(tasks)
                assert stats["tasks_joined"] == len(tasks)
                assert stats["inflight"] == 0
                # And the daemon still serves: a fresh submit resolves
                # from the now-warm LRU.
                rerun = client.run_tasks(tasks)
            assert client.last_request["counts"]["hot"] == len(tasks)
            for fresh, original in zip(rerun, survivor_results):
                assert (events_to_dict(fresh.events)
                        == events_to_dict(original.events))


class TestServerStatsLine:
    def test_dedupe_visible_in_stats_line(self, monkeypatch):
        """The runner/CI-facing summary line carries the single-flight
        evidence (CI greps the joined count on the two-client smoke)."""
        from repro.eval.report import format_server_stats

        monkeypatch.setenv("_REPRO_SERVE_STALL", "0.3")
        tasks = [tiny_task("art")]
        with start_server_thread(n_jobs=1) as handle:
            port = handle.server.port

            async def two_clients():
                return await asyncio.gather(
                    submit_frames(port, tasks, "a"),
                    submit_frames(port, tasks, "b"),
                )

            replies = asyncio.run(two_clients())
            with EvalClient(handle.address) as client:
                line = format_server_stats(client.stats())
        assert all(reply["type"] == "result" for reply in replies)
        assert "1 executed" in line
        assert "1 joined in flight" in line
