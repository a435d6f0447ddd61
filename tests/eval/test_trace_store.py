"""The recorded-stream store: round trips, corruption, cold vs warm.

A recording that is truncated, garbled, version-skewed or CRC-broken must
never be replayed: the store detects every anomaly, *discards* the bad
file and reports a miss, and the scheduler transparently re-records —
never crashing, never returning stale events.  The ``--no-trace-cache``
path (``trace_store=None``) records fresh every run and writes nothing.
"""

from __future__ import annotations

import gzip
import json
import random
import struct
from array import array
from dataclasses import replace

import pytest

from oracle import oracle_task

from repro.eval.jobs import (
    RecordTask,
    SimulationTask,
    SourceSpec,
    execute_record,
    record_task_for,
    standard_snc_specs,
)
from repro.eval.pipeline import SimulationScale
from repro.eval.record import (
    AUX_TYPECODE,
    KIND_TYPECODE,
    LINE_TYPECODE,
    RecordedTask,
    Recording,
)
from repro.eval.report import format_trace_stats
from repro.eval.scheduler import run_tasks
from repro.eval.trace_store import (
    TRACE_FORMAT,
    TraceStore,
    recording_from_bytes,
    recording_to_bytes,
)
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_RESET,
    EVENT_SWITCH,
    EVENT_WRITEBACK,
)

_SCALE = SimulationScale(warmup_refs=5_000, measure_refs=10_000)


def _record_task(workload: str = "art") -> RecordTask:
    return RecordTask(
        source=SourceSpec(kind="benchmark", workloads=(workload,)),
        scale=_SCALE,
    )


def _task(workload: str = "art") -> SimulationTask:
    return SimulationTask(
        workload=workload,
        snc_configs=(standard_snc_specs()["lru64"],),
        scale=_SCALE,
    )


@pytest.fixture(scope="module")
def recording():
    return execute_record(_record_task())


def test_round_trip_is_lossless(recording):
    restored = recording_from_bytes(recording_to_bytes(recording))
    assert restored == recording


def _random_recording(rng: "random.Random") -> Recording:
    """A synthetic recording with randomized columns over the *whole*
    event vocabulary — kinds, 32-bit line indices, owner aux on
    writebacks, incoming-task aux on switches, RESET boundaries —
    independent of what any real workload happens to emit."""
    tasks = tuple(
        RecordedTask(xom_id, f"task{xom_id}",
                     rng.choice((25.0, 50.0, 80.0)))
        for xom_id in range(rng.randint(1, 3))
    )
    xom_ids = [task.xom_id for task in tasks]
    kinds, lines, aux = [], [], []

    def emit(kind, line=0, extra=0):
        kinds.append(kind)
        lines.append(line)
        aux.append(extra)

    n_events = rng.randint(0, 400)
    reset_at = rng.randrange(n_events) if n_events else None
    for i in range(n_events):
        if i == reset_at:
            emit(EVENT_RESET)
            continue
        kind = rng.choice((EVENT_READ, EVENT_ALLOC, EVENT_WRITEBACK,
                           EVENT_SWITCH))
        line = rng.randint(0, (1 << 32) - 1)
        if kind == EVENT_WRITEBACK:
            emit(kind, line, rng.choice(xom_ids))
        elif kind == EVENT_SWITCH:
            emit(kind, 0, rng.choice(xom_ids))
        else:
            emit(kind, line)
    big_l2 = rng.random() < 0.5
    return Recording(
        name=rng.choice(("synthetic", "mix(a+b)@q500")),
        tasks=tasks,
        warmup_refs=rng.randint(0, 10_000),
        measure_refs=rng.randint(1, 10_000),
        seed=rng.randint(1, 999),
        l2_lines=rng.choice((512, 1024, 2048)),
        l2_assoc=rng.choice((2, 4, 8)),
        read_misses=rng.randint(0, 50_000),
        allocate_misses=rng.randint(0, 50_000),
        writebacks=rng.randint(0, 50_000),
        read_misses_big_l2=rng.randint(0, 50_000) if big_l2 else None,
        allocate_misses_big_l2=(
            rng.randint(0, 50_000) if big_l2 else None
        ),
        task_read_misses={xom: rng.randint(0, 9_999)
                          for xom in xom_ids},
        kinds=array(KIND_TYPECODE, kinds),
        lines=array(LINE_TYPECODE, lines),
        aux=array(AUX_TYPECODE, aux),
    )


@pytest.mark.parametrize("case", range(20))
def test_random_streams_round_trip_lossless(case):
    """Property-style: any well-formed column triple survives the wire
    format bit-for-bit, whatever mix of kinds, aux values and RESET
    boundaries it holds — including the empty stream."""
    rng = random.Random(0xC01 + case)
    recording = _random_recording(rng)
    restored = recording_from_bytes(recording_to_bytes(recording))
    assert restored == recording
    assert restored.kinds.tolist() == recording.kinds.tolist()
    assert restored.lines.tolist() == recording.lines.tolist()
    assert restored.aux.tolist() == recording.aux.tolist()


def test_out_of_range_fields_are_rejected_at_put_time():
    """A line index past 32 bits (or an owner past 16) cannot be
    narrowed to the wire width; serialization must fail loudly, and the
    store must count it as a put error rather than persist garbage."""
    rng = random.Random(7)
    recording = _random_recording(rng)
    oversized = replace(
        recording,
        kinds=array(KIND_TYPECODE, [EVENT_READ]),
        lines=array(LINE_TYPECODE, [1 << 32]),
        aux=array(AUX_TYPECODE, [0]),
    )
    with pytest.raises(Exception):
        recording_to_bytes(oversized)


class TestCorruptionDetection:
    """Every anomaly parses as an error, never as a recording."""

    def test_wrong_magic(self, recording):
        data = b"XXXX" + recording_to_bytes(recording)[4:]
        with pytest.raises(ValueError, match="magic"):
            recording_from_bytes(data)

    def test_version_bump(self, recording):
        data = bytearray(recording_to_bytes(recording))
        struct.pack_into("<H", data, 4, TRACE_FORMAT + 1)
        with pytest.raises(ValueError, match="format"):
            recording_from_bytes(bytes(data))

    def test_truncation_everywhere(self, recording):
        """No prefix of a valid file parses — header cuts, payload cuts,
        even a 0-byte file."""
        data = recording_to_bytes(recording)
        for cut in (0, 3, 5, 9, 40, len(data) // 2, len(data) - 7):
            with pytest.raises(Exception):
                recording_from_bytes(data[:cut])

    def test_garbled_payload(self, recording):
        data = bytearray(recording_to_bytes(recording))
        # Stomp bytes in the compressed event stream.
        for offset in range(len(data) - 30, len(data) - 10):
            data[offset] ^= 0xFF
        with pytest.raises(Exception):
            recording_from_bytes(bytes(data))

    def test_event_count_mismatch(self, recording):
        data = recording_to_bytes(recording)
        header_len = struct.unpack_from("<I", data, 6)[0]
        header = json.loads(data[10:10 + header_len])
        header["event_count"] += 1
        new_header = json.dumps(header, sort_keys=True).encode()
        rebuilt = (data[:4] + struct.pack("<HI", TRACE_FORMAT,
                                          len(new_header))
                   + new_header + data[10 + header_len:])
        with pytest.raises(ValueError, match="events"):
            recording_from_bytes(rebuilt)

    def test_crc_mismatch(self, recording):
        """Same length, different bytes: only the CRC catches it."""
        data = recording_to_bytes(recording)
        header_len = struct.unpack_from("<I", data, 6)[0]
        body_start = 10 + header_len
        packed = bytearray(gzip.decompress(data[body_start:]))
        packed[10] ^= 0x01
        rebuilt = data[:body_start] + gzip.compress(bytes(packed),
                                                    compresslevel=1)
        with pytest.raises(ValueError, match="CRC"):
            recording_from_bytes(rebuilt)


class TestStore:
    def test_cold_get_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get(_record_task()) is None
        assert (store.hits, store.misses) == (0, 1)

    def test_put_then_get(self, tmp_path, recording):
        store = TraceStore(tmp_path)
        record_task = _record_task()
        store.put(record_task, recording)
        assert store.get(record_task) == recording
        assert store.hits == 1

    def test_distinct_keys_per_source_scale_seed(self, tmp_path):
        store = TraceStore(tmp_path)
        base = _record_task()
        assert store.key_for(base) != store.key_for(_record_task("vpr"))
        assert store.key_for(base) != store.key_for(RecordTask(
            source=base.source, scale=base.scale, seed=2,
        ))
        assert store.key_for(base) != store.key_for(RecordTask(
            source=base.source,
            scale=SimulationScale(warmup_refs=5_000, measure_refs=10_001),
        ))

    @pytest.mark.parametrize("how", ["truncate", "garble", "version"])
    def test_corrupt_file_discarded_and_missed(self, tmp_path, recording,
                                               how):
        store = TraceStore(tmp_path)
        record_task = _record_task()
        store.put(record_task, recording)
        path = store.path_for(record_task)
        data = bytearray(path.read_bytes())
        if how == "truncate":
            data = data[:len(data) // 3]
        elif how == "garble":
            for offset in range(20, 60):
                data[offset] ^= 0xA5
        else:
            struct.pack_into("<H", data, 4, TRACE_FORMAT + 7)
        path.write_bytes(bytes(data))

        assert store.get(record_task) is None
        assert not path.exists(), "corrupt recording must be discarded"

    def test_format_upgrade_counted_separately(self, tmp_path,
                                               recording):
        """An old-format file is discarded like corruption but counted
        as a *format upgrade*, so a version bump's silent re-records
        are visible in the runner summary."""
        store = TraceStore(tmp_path)
        record_task = _record_task()
        store.put(record_task, recording)
        path = store.path_for(record_task)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, TRACE_FORMAT - 1)
        path.write_bytes(bytes(data))

        assert store.get(record_task) is None
        assert not path.exists()
        assert store.corrupt_discards == 1
        assert store.format_upgrades == 1
        stats = format_trace_stats(store)
        assert "1 format upgrades" in stats
        assert "1 corrupt discarded" in stats

    def test_unwritable_store_is_silent(self, tmp_path, recording):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        store = TraceStore(blocked)
        store.put(_record_task(), recording)  # must not raise
        assert store.put_errors == 1


class TestSchedulerIntegration:
    """Cold records, warm reuses, corruption re-records — transparently."""

    def _progress(self):
        lines = []
        return lines, lines.append

    def test_cold_then_warm(self, tmp_path):
        store = TraceStore(tmp_path)
        task = _task()
        reference = oracle_task(task)

        lines, progress = self._progress()
        [cold] = run_tasks([task], trace_store=store,
                           progress=progress)
        assert cold.events == reference
        assert any("recorded in" in line for line in lines)

        lines, progress = self._progress()
        [warm] = run_tasks([task], trace_store=store,
                           progress=progress)
        assert warm.events == reference
        assert any("trace cached" in line for line in lines)
        assert not any("recorded in" in line for line in lines)

    def test_old_format_recording_rerecorded_transparently(
            self, tmp_path):
        """The full bump story: a pre-bump file is discarded on first
        touch, the stream is re-recorded, events still match the
        oracle, and the warm run after that hits the fresh file."""
        store = TraceStore(tmp_path)
        task = _task("gzip")
        reference = oracle_task(task)
        [first] = run_tasks([task], trace_store=store)
        assert first.events == reference

        path = store.path_for(record_task_for(task))
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, TRACE_FORMAT + 3)
        path.write_bytes(bytes(data))

        lines, progress = self._progress()
        [again] = run_tasks([task], trace_store=store,
                            progress=progress)
        assert again.events == reference
        assert any("recorded in" in line for line in lines)
        assert store.format_upgrades == 1

        lines, progress = self._progress()
        [warm] = run_tasks([task], trace_store=store,
                           progress=progress)
        assert warm.events == reference
        assert any("trace cached" in line for line in lines)

    def test_corrupted_recording_rerecords_fresh_events(self, tmp_path):
        store = TraceStore(tmp_path)
        task = _task("vpr")
        reference = oracle_task(task)
        [first] = run_tasks([task], trace_store=store)

        # Garble the stored stream in place; a warm run must detect it,
        # re-record, and still produce the oracle events (stale or
        # garbage counts must never surface).
        path = store.path_for(record_task_for(task))
        data = bytearray(path.read_bytes())
        for offset in range(len(data) // 2, len(data) // 2 + 64):
            data[offset % len(data)] ^= 0x3C
        path.write_bytes(bytes(data))

        lines, progress = self._progress()
        [again] = run_tasks([task], trace_store=store,
                            progress=progress)
        assert again.events == reference == first.events
        assert any("recorded in" in line for line in lines)

    def test_no_trace_store_records_every_run(self, tmp_path):
        """The --no-trace-cache path: no store, nothing persisted, and
        each run records inline — results still match the oracle."""
        task = _task()
        reference = oracle_task(task)
        for _run in (1, 2):
            lines, progress = self._progress()
            [result] = run_tasks([task],
                                 trace_store=None, progress=progress)
            assert result.events == reference
            assert any("recorded in" in line for line in lines)
        assert list(tmp_path.iterdir()) == []
