"""On-disk store for recorded event streams (phase 1 artifacts).

The record/replay engine (:mod:`repro.eval.record`) pays the dominant
per-reference cost — workload generation plus L2 simulation — once per
(source, scale, seed, L2 geometry).  This store persists that work across
runs, the way :mod:`repro.eval.cache` persists finished task results:

* one file per recording under ``root``, named by a SHA-256 over the
  record task's canonical configuration and a fingerprint of the
  *recording-relevant* modules only (workload generators, the tag-only
  cache, the recorder itself).  SNC, scheme, integrity and pricing code
  deliberately stay out of the fingerprint: recordings are
  configuration-independent, so an edit to Algorithm 1 must invalidate
  cached *results* (:data:`repro.eval.cache._FINGERPRINT_MODULES` covers
  that) but may keep replaying the same recorded stream — that reuse is
  the engine's whole point.  The serialization format version is *not*
  part of the key: a format bump maps the same record task to the same
  path, so the version check below detects the old file, discards it,
  and counts a **format upgrade** instead of a silent cold miss.
* the payload is stdlib-only: a JSON header (identity + measured
  aggregates) followed by the event stream as three concatenated typed
  columns — kinds (u8), line indices (u32 LE), aux (u16 LE) — compressed
  with ``gzip``.  The columnar planes mirror the in-memory
  :class:`~repro.eval.record.Recording` columns, decode straight into
  :mod:`array` buffers, and compress better than interleaved
  per-event records.
* **any** anomaly — truncated file, flipped bytes, wrong magic, a format
  bump, a CRC mismatch, an event-count mismatch — degrades to a miss:
  the corrupt file is discarded (best-effort unlink) and the caller
  re-records.  A stale or garbled recording is never replayed
  (``tests/eval/test_trace_store.py`` pins every one of these paths).
  The store counts what happened (``hits`` / ``misses`` /
  ``corrupt_discards`` / ``format_upgrades`` / ``put_errors``) so the
  runner summary can surface silent re-records.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import struct
import sys
import zlib
from array import array
from functools import lru_cache
from pathlib import Path

from repro.errors import ConfigurationError
from repro.eval.cache import atomic_write_bytes, fingerprint_of
from repro.eval.record import (
    AUX_TYPECODE,
    KIND_TYPECODE,
    LINE_TYPECODE,
    RecordedTask,
    Recording,
)

#: Bump when the on-disk layout changes; old recordings are discarded on
#: first touch and transparently re-recorded (a *format upgrade*).
#: Format 2: columnar event planes (v1 interleaved 7-byte records).
TRACE_FORMAT = 2

_MAGIC = b"RPRT"
#: Magic of the *raw* (uncompressed) sibling format used for zero-copy
#: shipping through shared memory — same header, same column planes,
#: no gzip, so a mapped buffer decodes without a decompress pass.
_RAW_MAGIC = b"RPRW"
_PREFIX_STRUCT = struct.Struct("<HI")  # format version, header length

#: Wire typecodes: exact u32/u16 element widths for the line and aux
#: planes (kinds are single bytes).
_U32_TYPECODE = next(tc for tc in "ILQ" if array(tc).itemsize == 4)
_U16_TYPECODE = next(tc for tc in "HIL" if array(tc).itemsize == 2)
#: Bytes per event across the three planes: 1 (kind) + 4 (line) + 2 (aux).
_EVENT_BYTES = 7


class TraceFormatError(ValueError):
    """A recording serialized under a different ``TRACE_FORMAT``.

    Distinguished from plain corruption so the store can count format
    upgrades (old recordings discarded after a version bump) separately
    from bit rot."""

    def __init__(self, found: int) -> None:
        super().__init__(f"format {found} != {TRACE_FORMAT}")
        self.found = found


#: Modules whose source determines what gets *recorded* (not how it is
#: priced or simulated downstream).
_FINGERPRINT_MODULES = (
    "repro.eval.record",
    "repro.memory.cache",
    "repro.workloads.patterns",
    "repro.workloads.sources",
    "repro.workloads.spec",
    "repro.workloads.tracegen",
)


@lru_cache(maxsize=1)
def record_fingerprint() -> str:
    """SHA-256 over the source of every recording-relevant module."""
    return fingerprint_of(_FINGERPRINT_MODULES)


def default_trace_dir() -> Path:
    """``$REPRO_TRACE_CACHE_DIR``, or ``~/.cache/repro-eval/traces``."""
    override = os.environ.get("REPRO_TRACE_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-eval" / "traces"


def _pack_columns(recording: Recording) -> bytes:
    """The three event planes, narrowed to their wire widths and
    concatenated (kinds ‖ lines ‖ aux), little-endian."""
    try:
        lines = array(_U32_TYPECODE, recording.lines)
        aux = array(_U16_TYPECODE, recording.aux)
    except OverflowError as err:
        raise ConfigurationError(
            f"{recording.name}: an event field exceeds the trace format's "
            "range (line indices must fit 32 bits, owners/tasks 16)"
        ) from err
    if sys.byteorder == "big":
        lines.byteswap()
        aux.byteswap()
    return b"".join((
        recording.kinds.tobytes(), lines.tobytes(), aux.tobytes()
    ))


def _unpack_columns(packed, event_count: int,
                    ) -> tuple[array, array, array]:
    """The wire planes back as the in-memory column types.

    ``packed`` may be any buffer (bytes or a memoryview over a mapped
    shared-memory segment); every slice is explicitly bounded so a
    page-padded buffer never bleeds garbage into the aux plane."""
    kinds = array(KIND_TYPECODE)
    kinds.frombytes(packed[:event_count])
    lines_wire = array(_U32_TYPECODE)
    lines_wire.frombytes(packed[event_count:event_count * 5])
    aux_wire = array(_U16_TYPECODE)
    aux_wire.frombytes(packed[event_count * 5:event_count * _EVENT_BYTES])
    if sys.byteorder == "big":
        lines_wire.byteswap()
        aux_wire.byteswap()
    return (kinds, array(LINE_TYPECODE, lines_wire),
            array(AUX_TYPECODE, aux_wire))


def _header_bytes(recording: Recording, packed: bytes) -> bytes:
    """The canonical JSON header (identity, measured aggregates, event
    count, CRC over the packed planes) shared by the gzip wire format
    and the raw shared-memory format."""
    header = {
        "name": recording.name,
        "tasks": [[task.xom_id, task.label, task.xom_slowdown_pct]
                  for task in recording.tasks],
        "warmup_refs": recording.warmup_refs,
        "measure_refs": recording.measure_refs,
        "seed": recording.seed,
        "l2_lines": recording.l2_lines,
        "l2_assoc": recording.l2_assoc,
        "read_misses": recording.read_misses,
        "allocate_misses": recording.allocate_misses,
        "writebacks": recording.writebacks,
        "read_misses_big_l2": recording.read_misses_big_l2,
        "allocate_misses_big_l2": recording.allocate_misses_big_l2,
        "task_read_misses": {
            str(xom_id): count
            for xom_id, count in recording.task_read_misses.items()
        },
        "event_count": recording.event_count,
    }
    header["crc32"] = zlib.crc32(packed)
    return json.dumps(header, sort_keys=True).encode()


def recording_to_bytes(recording: Recording) -> bytes:
    """Serialize: magic, version, JSON header, gzip'd column planes."""
    packed = _pack_columns(recording)
    header_bytes = _header_bytes(recording, packed)
    return b"".join((
        _MAGIC,
        _PREFIX_STRUCT.pack(TRACE_FORMAT, len(header_bytes)),
        header_bytes,
        # mtime=0 keeps the payload a pure function of the recording, so
        # byte-equality checks (CI's block-vs-reference compare, the
        # serial/parallel parity steps) see identical files, not a
        # timestamp diff.
        gzip.compress(packed, compresslevel=1, mtime=0),
    ))


def recording_to_raw(recording: Recording) -> bytes:
    """Serialize to the *raw* (uncompressed) shipping format: same
    header and column planes as the wire format, no gzip — the form
    published in shared memory, where compression buys nothing and a
    decompress pass per worker is exactly the cost being avoided."""
    packed = _pack_columns(recording)
    header_bytes = _header_bytes(recording, packed)
    return b"".join((
        _RAW_MAGIC,
        _PREFIX_STRUCT.pack(TRACE_FORMAT, len(header_bytes)),
        header_bytes,
        packed,
    ))


def _split_prefix(data, magic: bytes) -> tuple[int, int]:
    """Validate ``magic`` + version, returning (header start, header
    end).  ``data`` may be any buffer."""
    prefix_end = len(magic) + _PREFIX_STRUCT.size
    if bytes(data[:len(magic)]) != magic:
        raise ValueError("bad magic: not a recording")
    if len(data) < prefix_end:
        raise ValueError("truncated prefix")
    version, header_len = _PREFIX_STRUCT.unpack(
        data[len(magic):prefix_end]
    )
    if version != TRACE_FORMAT:
        raise TraceFormatError(version)
    header_end = prefix_end + header_len
    if len(data) < header_end:
        raise ValueError("truncated header")
    return prefix_end, header_end


def _verify_packed(header: dict, packed) -> None:
    """The two integrity gates every deserialization path runs: the
    packed planes hold exactly ``event_count`` events and their CRC
    matches the header's."""
    event_count = header["event_count"]
    if len(packed) != event_count * _EVENT_BYTES:
        raise ValueError(
            f"event payload holds {len(packed)} bytes, expected "
            f"{event_count} events"
        )
    if zlib.crc32(packed) != header["crc32"]:
        raise ValueError("event payload CRC mismatch")


def _split_wire(data: bytes) -> tuple[bytes, dict, bytes]:
    """Parse and verify the gzip wire format without building the
    recording's column arrays: ``(header_bytes, header, packed)``.

    This is the cheap half of :func:`recording_from_bytes` —
    :func:`raw_from_wire` uses it to repackage a verified store payload
    for shared memory without paying the array decode."""
    prefix_end, header_end = _split_prefix(data, _MAGIC)
    header = json.loads(data[prefix_end:header_end])
    packed = gzip.decompress(data[header_end:])
    _verify_packed(header, packed)
    return data[prefix_end:header_end], header, packed


def raw_from_wire(payload: bytes) -> bytes:
    """A verified gzip wire payload repackaged as the raw shipping
    format (decompress + verify only — no array building)."""
    header_bytes, _, packed = _split_wire(payload)
    return b"".join((
        _RAW_MAGIC,
        _PREFIX_STRUCT.pack(TRACE_FORMAT, len(header_bytes)),
        header_bytes,
        packed,
    ))


def _recording_from_parts(header: dict, packed) -> Recording:
    kinds, lines, aux = _unpack_columns(packed, header["event_count"])
    return Recording(
        name=header["name"],
        tasks=tuple(
            RecordedTask(xom_id, label, slowdown)
            for xom_id, label, slowdown in header["tasks"]
        ),
        warmup_refs=header["warmup_refs"],
        measure_refs=header["measure_refs"],
        seed=header["seed"],
        l2_lines=header["l2_lines"],
        l2_assoc=header["l2_assoc"],
        read_misses=header["read_misses"],
        allocate_misses=header["allocate_misses"],
        writebacks=header["writebacks"],
        read_misses_big_l2=header["read_misses_big_l2"],
        allocate_misses_big_l2=header["allocate_misses_big_l2"],
        task_read_misses={
            int(xom_id): count
            for xom_id, count in header["task_read_misses"].items()
        },
        kinds=kinds,
        lines=lines,
        aux=aux,
    )


def recording_from_bytes(data: bytes) -> Recording:
    """Parse and *verify* a serialized recording.

    Raises ``ValueError`` on any anomaly — wrong magic, version skew
    (:class:`TraceFormatError`), truncation, garbled header, CRC or
    event-count mismatch — so callers (the store, a pool worker) can
    treat every failure mode uniformly.
    """
    _, header, packed = _split_wire(data)
    return _recording_from_parts(header, packed)


def recording_from_raw(buf) -> Recording:
    """Parse and verify a recording in the raw shipping format.

    ``buf`` may be any buffer — in particular a ``memoryview`` over a
    mapped shared-memory segment, in which case the column arrays are
    filled straight from the mapping (no pickle, no decompress, no
    intermediate copy of the payload).  The same CRC and event-count
    gates apply as for the wire format: a torn or garbled segment
    raises rather than replaying garbage.
    """
    prefix_end, header_end = _split_prefix(buf, _RAW_MAGIC)
    header = json.loads(bytes(buf[prefix_end:header_end]))
    packed = buf[header_end:]
    expected = header["event_count"] * _EVENT_BYTES
    if len(packed) < expected:
        raise ValueError(
            f"event payload holds {len(packed)} bytes, expected "
            f"{header['event_count']} events"
        )
    packed = packed[:expected]
    _verify_packed(header, packed)
    return _recording_from_parts(header, packed)


class TraceStore:
    """One recording file per record task under ``root``.

    Same discipline as :class:`~repro.eval.cache.ResultCache`: reads miss
    on any anomaly (and discard the offending file), writes are atomic
    (tmp + rename) and best-effort — an unwritable store must never abort
    a run whose recording already succeeded.

    Every outcome is counted: ``hits``, ``misses`` (every way a get can
    fail), ``corrupt_discards`` (a file existed but did not verify),
    ``format_upgrades`` (the subset of discards caused by a
    ``TRACE_FORMAT`` skew — old recordings after a bump) and
    ``put_errors``.  :func:`repro.eval.report.format_trace_stats`
    renders them in the runner summary.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_trace_dir()
        self.hits = 0
        self.misses = 0
        self.corrupt_discards = 0
        self.format_upgrades = 0
        self.put_errors = 0
        # Timing telemetry the scheduler feeds per run (not persisted):
        # what the cold half (record passes) and the warm half (replay
        # pricing) actually cost, for the runner's summary line.
        self.records = 0
        self.record_refs = 0
        self.record_seconds = 0.0
        self.tasks_priced = 0
        self.price_seconds = 0.0
        self.price_passes = 0
        self.price_shards = 0

    def note_record(self, total_refs: int, seconds: float) -> None:
        """Count one completed record pass of ``total_refs`` references."""
        self.records += 1
        self.record_refs += total_refs
        self.record_seconds += seconds

    def note_priced(self, tasks: int, seconds: float,
                    shards: int) -> None:
        """Count one batch pass pricing ``tasks`` simulation tasks.

        ``shards`` is how many lane shards the group's pass was split
        into (1 when it ran whole).  The summary line surfaces sharding
        only when some pass split (``price_shards > price_passes``)."""
        self.tasks_priced += tasks
        self.price_seconds += seconds
        self.price_passes += 1
        self.price_shards += shards

    def key_for(self, record_task) -> str:
        digest = hashlib.sha256()
        digest.update(f"code:{record_fingerprint()}\n".encode())
        digest.update(f"task:{record_task.config_hash()}\n".encode())
        return digest.hexdigest()

    def path_for(self, record_task) -> Path:
        return self.root / f"{self.key_for(record_task)}.trace"

    def get_entry(self, record_task) -> tuple[Recording, bytes] | None:
        """The verified recording *and* its wire payload.

        The payload comes back so callers shipping recordings to pool
        workers (:mod:`repro.eval.scheduler`) never re-serialize what
        the store just read and verified."""
        path = self.path_for(record_task)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            recording = recording_from_bytes(data)
        except Exception as err:
            # Corrupt (truncated, garbled, version skew, bad gzip/CRC):
            # discard so a stale file can never shadow the re-recorded
            # stream, then report a miss — the caller re-records.
            self.misses += 1
            self.corrupt_discards += 1
            if isinstance(err, TraceFormatError):
                self.format_upgrades += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return recording, data

    def get(self, record_task) -> Recording | None:
        entry = self.get_entry(record_task)
        return None if entry is None else entry[0]

    def get_payload(self, record_task) -> bytes | None:
        """The verified wire payload alone — no column arrays built.

        The scheduler's fan-out path ships store hits to pool workers
        as-is, so the parent never needs the decoded object; this skips
        the array decode :meth:`get_entry` pays (each worker decodes its
        own copy once, into its recording LRU).  Verification is not
        skipped: the CRC and event-count gates run here exactly as they
        do for a full read, and a file that fails them is discarded and
        reported as a miss."""
        path = self.path_for(record_task)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            _split_wire(data)
        except Exception as err:
            self.misses += 1
            self.corrupt_discards += 1
            if isinstance(err, TraceFormatError):
                self.format_upgrades += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return data

    def put(self, record_task, recording: Recording | None = None, *,
            payload: bytes | None = None) -> bytes | None:
        """Persist a recording, given as the object, its wire
        ``payload``, or both (a caller that already serialized — a pool
        worker's return value — should pass the payload so it is not
        packed twice).

        Returns the payload written so the caller can reuse the wire
        form (e.g. to ship to replay workers) instead of serializing the
        same recording again; ``None`` if serialization failed."""
        if payload is None:
            try:
                payload = recording_to_bytes(recording)
            except ConfigurationError:
                self.put_errors += 1
                return None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(self.path_for(record_task), payload)
        except OSError:
            self.put_errors += 1
        return payload
