"""Daemon shutdown leaves nothing behind: the ``shutdown`` request and
SIGTERM both drain in-flight work, stop the worker pool, and unlink
every cached ``/dev/shm`` recording segment (the ``repro_pool_<pid>_*``
``RPRW`` shipments).

These tests run the real ``python -m repro.eval serve`` subprocess so
the assertions cover the whole exit path — atexit, signal handlers,
worker reaping — not just the in-process object teardown.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.eval.client import EvalClient
from repro.eval.jobs import SNCSpec, SimulationTask, task_to_wire
from repro.eval.pipeline import SimulationScale

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SHM_DIR = Path("/dev/shm")

SCALE = SimulationScale(warmup_refs=8_000, measure_refs=8_000)
WORKLOADS = ("art", "vpr", "gzip")


def tiny_tasks() -> list[SimulationTask]:
    return [
        SimulationTask(workload=workload,
                       snc_configs=(SNCSpec(key="lru64"),),
                       scale=SCALE)
        for workload in WORKLOADS
    ]


def start_daemon(tmp_path) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.eval", "serve", "--port", "0",
         "--jobs", "2",
         "--cache-dir", str(tmp_path / "cache"),
         "--trace-cache-dir", str(tmp_path / "traces")],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.time() + 60
    address = None
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        if "listening on" in line:
            address = line.split("listening on ")[1].split()[0]
            break
    if address is None:
        proc.kill()
        raise RuntimeError("daemon never announced its address")
    return proc, address


def run_batch_and_snapshot(address: str) -> dict:
    """Submit a parallel batch and return the daemon's stats frame —
    worker pids and pool counters included."""
    with EvalClient(address) as client:
        results = client.run_tasks(tiny_tasks())
        assert len(results) == len(WORKLOADS)
        return client.stats()


def leaked_segments(pid: int) -> list[str]:
    if not SHM_DIR.exists():  # non-Linux: nothing to scan
        return []
    return sorted(
        path.name for path in SHM_DIR.glob(f"repro_pool_{pid}_*")
    )


def workers_alive(pids: list[int]) -> list[int]:
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, PermissionError):
            continue
        alive.append(pid)
    return alive


def wait_workers_dead(pids: list[int], timeout: float = 10.0) -> list[int]:
    deadline = time.time() + timeout
    while time.time() < deadline:
        alive = workers_alive(pids)
        if not alive:
            return []
        time.sleep(0.05)
    return workers_alive(pids)


def assert_clean_exit(proc: subprocess.Popen, stats: dict) -> None:
    pid = stats["pid"]
    worker_pids = stats["worker_pids"]
    # The batch really exercised the machinery being torn down.
    assert worker_pids, "parallel batch never spawned pool workers"
    assert stats["pool_counters"]["shm_shipments"] >= 1
    assert proc.wait(timeout=30) == 0
    assert leaked_segments(pid) == []
    assert wait_workers_dead(worker_pids) == []


@pytest.mark.skipif(sys.platform != "linux",
                    reason="/dev/shm and SIGTERM semantics are "
                           "asserted on Linux")
class TestShutdownCleanliness:
    def test_shutdown_request_drains_and_unlinks(self, tmp_path):
        proc, address = start_daemon(tmp_path)
        try:
            stats = run_batch_and_snapshot(address)
            # The warm pool holds its shipment segments while alive.
            assert leaked_segments(stats["pid"]), (
                "expected live shm shipments before shutdown — the "
                "leak assertion below would be vacuous"
            )
            with EvalClient(address) as client:
                reply = client.shutdown()
            assert reply["ok"] is True
            assert reply["tasks_executed"] == len(WORKLOADS)
            assert_clean_exit(proc, stats)
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_sigterm_drains_and_unlinks(self, tmp_path):
        proc, address = start_daemon(tmp_path)
        try:
            stats = run_batch_and_snapshot(address)
            proc.send_signal(signal.SIGTERM)
            assert_clean_exit(proc, stats)
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_shutdown_waits_for_inflight_submit(self, tmp_path):
        """A shutdown racing an in-flight submit drains it first: the
        submitter still gets its full result frame."""
        proc, address = start_daemon(tmp_path)
        try:
            host, _, port = address.rpartition(":")
            sock = socket.create_connection((host, int(port)),
                                            timeout=30)
            stream = sock.makefile("rb")
            frame = {"type": "submit", "id": "racer",
                     "tasks": [task_to_wire(task)
                               for task in tiny_tasks()]}
            sock.sendall(json.dumps(frame).encode() + b"\n")
            time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            frames = []
            while True:
                line = stream.readline()
                if not line:
                    break
                frames.append(json.loads(line))
                if frames[-1]["type"] in ("result", "error"):
                    break
            sock.close()
            assert frames and frames[-1]["type"] == "result"
            assert len(frames[-1]["results"]) == len(WORKLOADS)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
