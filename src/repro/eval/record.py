"""Phase 1 of the record/replay trace engine: the record pass.

Every SNC geometry, protection scheme, integrity model and §4.3 switch
strategy consumes the exact same L2 miss/writeback stream, so the
workload + L2 part of a simulation is *configuration-independent*.
:func:`record_source` runs the workload source and the L2(s) **once**
per (source, scale, seed, L2 geometry) and keeps only the compacted
events: read/allocate misses, writebacks (with their owner), context
switches, and the warmup boundary, plus the measured aggregate counters.
The result is a :class:`Recording`, persisted by
:mod:`repro.eval.trace_store`; phase 2,
:func:`repro.eval.jobs.price_batch`, prices any number of tasks from
it.

This module keys the trace store (its code is part of
:func:`repro.eval.trace_store.record_fingerprint`), so it holds the
record pass and nothing of the pricing side: an edit to pricing code
never renames a stored recording.  The recorder is checked against the
per-reference oracle in ``tests/eval/oracle.py`` column for column and
byte for byte on the wire.

Event vocabulary: parallel typed columns ``kinds`` / ``lines`` / ``aux``
(:mod:`array`), one entry per event, using the ``EVENT_*`` constants from
:mod:`repro.timing.model`.  The stream covers warmup too (it warms the
SNC/integrity state); :data:`~repro.timing.model.EVENT_RESET` marks where
every counter zeroes while state stays warm.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.memory.cache import TagOnlyCache
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_RESET,
    EVENT_SWITCH,
    EVENT_WRITEBACK,
)
from repro.eval.pipeline import (
    L2_BASE_ASSOC,
    L2_BASE_LINES,
    L2_BIG_ASSOC,
    L2_BIG_LINES,
    SimulationScale,
)
from repro.workloads.sources import Switch, WorkloadSource

#: In-memory column typecodes: value-exact (the wire format narrows to
#: u8/u32/u16 and rejects what doesn't fit; see
#: :mod:`repro.eval.trace_store`).
KIND_TYPECODE = "B"
LINE_TYPECODE = "Q"
AUX_TYPECODE = "Q"


@dataclass(frozen=True)
class RecordedTask:
    """One task of a recording: enough to rebuild the per-task compute
    calibration without the original :class:`~repro.workloads.sources.
    WorkloadSource` (same fields as its
    :class:`~repro.workloads.sources.TaskBinding`)."""

    xom_id: int
    label: str
    xom_slowdown_pct: float


@dataclass
class Recording:
    """Everything phase 2 needs: the compacted event stream plus the
    measured aggregates phase 1 already counted.

    The stream lives in three parallel typed columns — ``kinds``,
    ``lines``, ``aux`` (:mod:`array`; entry *i* of each is event *i*) —
    covering warmup too (warmup events warm SNC and integrity state);
    the aggregate counters cover only the measurement window.  The
    alternate-L2 counters are ``None`` when the recording skipped the
    Figure 8 cache (non-benchmark sources never record it)."""

    name: str
    tasks: tuple[RecordedTask, ...]
    warmup_refs: int
    measure_refs: int
    seed: int
    l2_lines: int
    l2_assoc: int
    read_misses: int
    allocate_misses: int
    writebacks: int
    read_misses_big_l2: int | None
    allocate_misses_big_l2: int | None
    task_read_misses: dict[int, int]
    kinds: array = field(default_factory=lambda: array(KIND_TYPECODE))
    lines: array = field(default_factory=lambda: array(LINE_TYPECODE))
    aux: array = field(default_factory=lambda: array(AUX_TYPECODE))

    @property
    def total_refs(self) -> int:
        return self.warmup_refs + self.measure_refs

    @property
    def event_count(self) -> int:
        return len(self.kinds)


#: Block size of the block record pass: big enough to amortize the
#: per-block Python overhead, small enough to stay cache-friendly.
DEFAULT_RECORD_BLOCK = 4096


def record_source(source: WorkloadSource,
                  scale: SimulationScale | None = None,
                  seed: int = 1,
                  include_alt_l2: bool = True,
                  l2_lines: int = L2_BASE_LINES,
                  l2_assoc: int = L2_BASE_ASSOC,
                  *,
                  block_size: int = DEFAULT_RECORD_BLOCK) -> Recording:
    """Phase 1: one pass over the source and the L2(s), columns out.

    Counters zero at the warmup boundary, and a dirty eviction of a
    shared L2 is recorded under the task that fetched the line (its
    owner), not the one scheduled when it is evicted.
    ``include_alt_l2`` additionally runs the
    Figure 8 384KB L2 and records its measured miss counts (aggregates
    only; no SNC consumes its stream); benchmark-source recordings always
    include it so one recording serves every figure.

    The pass is block-columnar: the source supplies typed column blocks
    (:meth:`~repro.workloads.sources.WorkloadSource.stream_blocks`), each
    block — split at the warmup boundary, trimmed at the total — goes
    through :meth:`~repro.memory.cache.TagOnlyCache.access_block` in one
    call, and events land directly in the recording's columns.  The
    result is byte-identical for any ``block_size`` to the per-reference
    oracle's (``tests/eval/test_record_block.py`` pins it).
    """
    scale = scale or SimulationScale()
    tasks = source.tasks
    first_task = tasks[0].xom_id
    l2 = TagOnlyCache(l2_lines, l2_assoc)
    access_block = l2.access_block
    big_counts = None
    if include_alt_l2:
        big_counts = TagOnlyCache(
            L2_BIG_LINES, L2_BIG_ASSOC
        ).access_block_counts

    kinds = array(KIND_TYPECODE)
    lines = array(LINE_TYPECODE)
    aux = array(AUX_TYPECODE)
    warmup = scale.warmup_refs
    total = scale.total_refs
    read_misses = allocate_misses = writebacks = 0
    read_misses_big = allocate_misses_big = 0
    task_read_misses = {task.xom_id: 0 for task in tasks}
    # Single-task streams skip the ownership map: every line's owner is
    # the one task (access_block's fast arm resolves victims without it).
    line_owner: dict[int, int] | None = (
        {} if len(tasks) > 1 else None
    )
    current_task = first_task
    position = 0

    if hasattr(source, "stream_blocks"):
        block_stream = source.stream_blocks(seed, block_size)
    else:  # duck-typed source: chunk its scalar stream generically
        block_stream = WorkloadSource.stream_blocks(
            source, seed, block_size
        )
    for item in block_stream:
        if type(item) is Switch:
            kinds.append(EVENT_SWITCH)
            lines.append(0)
            aux.append(item.next_task)
            current_task = item.next_task
            continue
        block_lines, block_writes = item
        count = len(block_lines)
        if position + count > total:
            count = total - position
            block_lines = block_lines[:count]
            block_writes = block_writes[:count]
        if position < warmup < position + count:
            split = warmup - position
            parts = (
                (block_lines[:split], block_writes[:split]),
                (block_lines[split:], block_writes[split:]),
            )
        else:
            parts = ((block_lines, block_writes),)
        for part_lines, part_writes in parts:
            if not part_lines:
                continue
            measuring = position >= warmup
            r, a, w = access_block(
                part_lines, part_writes, kinds, lines, aux,
                EVENT_READ, EVENT_ALLOC, EVENT_WRITEBACK,
                current_task, line_owner,
            )
            if measuring:
                read_misses += r
                allocate_misses += a
                writebacks += w
                task_read_misses[current_task] += r
            position += len(part_lines)
            if position == warmup:
                kinds.append(EVENT_RESET)
                lines.append(0)
                aux.append(0)
            if big_counts is not None:
                big_r, big_a = big_counts(part_lines, part_writes)
                if measuring:
                    read_misses_big += big_r
                    allocate_misses_big += big_a
        if position >= total:
            break

    if read_misses == 0:
        raise ConfigurationError(
            f"{source.name}: the measurement window saw no load misses — "
            "the trace scale is too small to get past the workload's "
            "initialization phase (use at least the QUICK_SCALE lengths)"
        )
    return Recording(
        name=source.name,
        tasks=tuple(
            RecordedTask(task.xom_id, task.label, task.xom_slowdown_pct)
            for task in tasks
        ),
        warmup_refs=scale.warmup_refs,
        measure_refs=scale.measure_refs,
        seed=seed,
        l2_lines=l2_lines,
        l2_assoc=l2_assoc,
        read_misses=read_misses,
        allocate_misses=allocate_misses,
        writebacks=writebacks,
        read_misses_big_l2=read_misses_big if include_alt_l2 else None,
        allocate_misses_big_l2=(
            allocate_misses_big if include_alt_l2 else None
        ),
        task_read_misses=task_read_misses,
        kinds=kinds,
        lines=lines,
        aux=aux,
    )
