"""Concurrent-writer stress tests for the on-disk stores.

The ROADMAP's evaluation-as-a-service daemon needs ``ResultCache`` and
``TraceStore`` to survive many processes hammering one directory — mixed
gets and puts of the same keys, plus the crash debris a real deployment
accumulates (torn target files, stray scratch files).  These tests pin
the contract that makes that safe:

* atomic writes use *writer-unique* temp names
  (:func:`repro.eval.cache.atomic_write_bytes`), so concurrent putters
  of one key can never interleave bytes in a shared scratch file or
  race each other's ``os.replace`` (the old shared ``.tmp`` suffix did
  both — the rename race surfaced as spurious ``put_errors``);
* every completed read is verify-or-miss: a torn or garbled file is
  discarded and re-recorded, never returned;
* writers clean up after themselves — no scratch-file litter
  accumulates, and failed writes remove their own temp file.
"""

import json
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import repro
from repro.eval.cache import ResultCache, atomic_write_bytes
from repro.eval.jobs import (
    Job,
    SourceSpec,
    merge_jobs,
    record_task_for,
    standard_snc_specs,
)
from repro.eval.pipeline import SimulationScale
from repro.eval.trace_store import TraceStore

_SRC_DIR = str(Path(repro.__file__).parents[1])
_WORKLOADS = ("art", "vpr", "equake")


def _tasks():
    specs = (standard_snc_specs()["lru64"],)
    return merge_jobs([
        Job(table="figure5", schemes=("otp",),
            source=SourceSpec.benchmark(name), snc_configs=specs,
            scale=SimulationScale(20_000, 20_000))
        for name in _WORKLOADS
    ])


_HAMMER = """
import random
import sys
from array import array
from pathlib import Path

from repro.eval.cache import ResultCache
from repro.eval.jobs import (
    Job,
    SourceSpec,
    merge_jobs,
    record_task_for,
    standard_snc_specs,
)
from repro.eval.pipeline import BenchmarkEvents, SimulationScale
from repro.eval.record import RecordedTask, Recording
from repro.eval.trace_store import TraceStore

WORKLOADS = ("art", "vpr", "equake")


def tasks():
    specs = (standard_snc_specs()["lru64"],)
    return merge_jobs([
        Job(table="figure5", schemes=("otp",),
            source=SourceSpec.benchmark(name), snc_configs=specs,
            scale=SimulationScale(20_000, 20_000))
        for name in WORKLOADS
    ])


def synthetic_recording(name, event_count):
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


def synthetic_events(name, worker_id):
    # Worker-dependent payload sizes: concurrent putters of one key
    # write different byte lengths, so a torn hybrid cannot pass as
    # either writer's output.
    return BenchmarkEvents(
        name=name, xom_slowdown_target=6.4,
        read_misses=10 ** worker_id, allocate_misses=3, writebacks=2,
        compute_cycles=1000 + worker_id,
    )


def main():
    root = Path(sys.argv[1])
    worker_id = int(sys.argv[2])
    iterations = int(sys.argv[3])
    rng = random.Random(worker_id)
    cache = ResultCache(root / "cache")
    store = TraceStore(root / "traces")
    my_tasks = tasks()
    for step in range(iterations):
        task = rng.choice(my_tasks)
        record_task = record_task_for(task)
        roll = rng.random()
        if roll < 0.35:
            store.put(record_task, synthetic_recording(
                task.workload, 200 + worker_id * 17
            ))
        elif roll < 0.55:
            entry = store.get_entry(record_task)
            assert entry is None or entry[0].name == task.workload
        elif roll < 0.8:
            cache.put(task, synthetic_events(task.workload, worker_id))
        else:
            events = cache.get(task)
            assert events is None or events.name == task.workload
        if step % 11 == 7:
            # Simulate a crashed writer: tear a target file in place.
            torn = (store.path_for(record_task) if roll < 0.5
                    else cache.path_for(task))
            torn.parent.mkdir(parents=True, exist_ok=True)
            torn.write_bytes(b"RPRT\\x02\\x00to" * (worker_id + 1))
    if cache.put_errors or store.put_errors:
        print(f"worker {worker_id}: put_errors cache="
              f"{cache.put_errors} store={store.put_errors}",
              file=sys.stderr)
        sys.exit(1)


main()
"""


@pytest.mark.slow
class TestMultiProcessHammer:
    def test_shared_dirs_survive_concurrent_writers(self, tmp_path):
        """4 processes, mixed get/put on shared dirs, torn files
        injected throughout: every process must finish with zero put
        errors, and the survivors must read back verify-or-miss."""
        script = tmp_path / "hammer.py"
        script.write_text(textwrap.dedent(_HAMMER))
        (tmp_path / "traces").mkdir()
        (tmp_path / "cache").mkdir()
        # Pre-seed crash debris: stray scratch files a dead writer of
        # some other implementation might have left.  The stores must
        # neither trip over them nor ever read them.
        strays = [
            tmp_path / "traces" / ".stray-leftover.tmp",
            tmp_path / "cache" / "dead-writer.tmp",
        ]
        for stray in strays:
            stray.write_bytes(b"\x00garbage\x00")

        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(tmp_path), str(wid),
                 "80"],
                env={"PYTHONPATH": _SRC_DIR, "PATH": "/usr/bin:/bin"},
                stderr=subprocess.PIPE,
            )
            for wid in range(4)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()

        # Every surviving entry reads back valid — or misses cleanly.
        cache = ResultCache(tmp_path / "cache")
        store = TraceStore(tmp_path / "traces")
        for task in _tasks():
            record_task = record_task_for(task)
            entry = store.get_entry(record_task)
            if entry is not None:
                assert entry[0].name == task.workload
            events = cache.get(task)
            if events is not None:
                assert events.name == task.workload

        # No writer litters scratch files: the only .tmp files left are
        # the pre-seeded strays, untouched.
        leftover = sorted((tmp_path / "traces").glob("*.tmp")) + sorted(
            (tmp_path / "cache").glob("*.tmp")
        )
        assert leftover == strays
        for stray in strays:
            assert stray.read_bytes() == b"\x00garbage\x00"


class TestAtomicWriteBytes:
    def test_concurrent_same_key_writes_stay_whole(self, tmp_path):
        """8 threads rewriting one path with different-length payloads:
        the final file must be exactly one writer's bytes, never an
        interleaved hybrid (the shared-.tmp failure mode)."""
        target = tmp_path / "entry.json"
        payloads = [
            json.dumps({"writer": writer, "pad": "x" * (writer * 97)})
            .encode()
            for writer in range(8)
        ]

        def hammer(payload):
            for _ in range(50):
                atomic_write_bytes(target, payload)

        threads = [threading.Thread(target=hammer, args=(payload,))
                   for payload in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = target.read_bytes()
        assert final in payloads
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_cleans_its_scratch_file(self, tmp_path):
        target = tmp_path / "missing-dir" / "entry.json"
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"payload")
        assert not (tmp_path / "missing-dir").exists()
        assert list(tmp_path.glob("**/*.tmp")) == []

    def test_unique_names_across_calls(self, tmp_path, monkeypatch):
        """Two in-flight writes of one key must never share a scratch
        name — pin the per-call uniqueness directly."""
        names = []
        real_replace = __import__("os").replace

        def spying_replace(src, dst):
            names.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr("repro.eval.cache.os.replace",
                            spying_replace)
        target = tmp_path / "entry.json"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert len(set(names)) == 2
