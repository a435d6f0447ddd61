"""Phase 1 + phase 2 of the record/replay trace engine.

Every SNC geometry, protection scheme, integrity model and §4.3 switch
strategy consumes the exact same L2 miss/writeback stream, so the
workload + L2 part of a simulation is *configuration-independent*.  This
module splits the pass in two:

* :func:`record_source` — run the workload source and the L2(s) **once**
  per (source, scale, seed, L2 geometry) and keep only the compacted
  events: read/allocate misses, writebacks (with their owner), context
  switches, and the warmup boundary, plus the measured aggregate counters.
  The result is a :class:`Recording`, persisted by
  :mod:`repro.eval.trace_store`.
* :meth:`Recording.replay_batch` — phase 2: price many configuration
  sets together from the recording
  (:func:`repro.timing.batch.replay_events_batch`, one walk per SNC
  geometry group) and assemble one
  :class:`~repro.eval.pipeline.BenchmarkEvents` per set.

Both phases are checked against the per-reference oracle in
``tests/eval/oracle.py`` (one loop over the scalar stream driving the L2
and every state machine directly): the recorder column for column and
byte for byte on the wire, the pricer field for field.

Event vocabulary: parallel typed columns ``kinds`` / ``lines`` / ``aux``
(:mod:`array`), one entry per event, using the ``EVENT_*`` constants from
:mod:`repro.timing.model`.  The stream covers warmup too (it warms the
SNC/integrity state); :data:`~repro.timing.model.EVENT_RESET` marks where
every counter zeroes while state stays warm.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.memory.cache import TagOnlyCache
from repro.secure.integrity import IntegrityConfig
from repro.secure.snc import SNCConfig
from repro.secure.snc_policy import SwitchStrategy
from repro.timing.batch import replay_events_batch
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_RESET,
    EVENT_SWITCH,
    EVENT_WRITEBACK,
    calibrate_compute_cycles,
)
from repro.eval.pipeline import (
    L2_BASE_ASSOC,
    L2_BASE_LINES,
    L2_BIG_ASSOC,
    L2_BIG_LINES,
    BenchmarkEvents,
    SimulationScale,
    _build_integrity_models,
    _build_sims,
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


@dataclass(frozen=True)
class ReplayRequest:
    """One replay's configuration set — what distinguishes the tasks a
    :meth:`Recording.replay_batch` pass prices together.

    ``strategy`` selects the flavor: ``None`` is the figure path (no
    task bookkeeping, scheme-default switch handling, optional
    alternate-L2 aggregates), a :class:`~repro.secure.snc_policy.
    SwitchStrategy` is the §4.3 scenario path (per-task cores, per-task
    compute calibration)."""

    snc_configs: Mapping[str, SNCConfig]
    snc_schemes: Mapping[str, str] | None = None
    strategy: SwitchStrategy | None = None
    alt_l2: bool = False
    integrity_configs: Mapping[str, IntegrityConfig] | None = None
    integrity_providers: Mapping[str, str] | None = None


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

    # -- phase 2 -------------------------------------------------------

    def replay_batch(self, requests: Sequence[ReplayRequest],
                     ) -> list[BenchmarkEvents]:
        """Phase 2, batched: price every request together from the
        columns.

        One recording often serves many configuration sets — a FLUSH
        task and a TAG task, or several SNC geometry sweeps — and the
        union of all requests' state machines is priced at once, one
        walk per SNC geometry group
        (:func:`repro.timing.batch.replay_events_batch`).
        """
        built = [self._build(request) for request in requests]
        all_sims = [sim for sims, _models in built
                    for sim in sims.values()]
        all_models = [model for _sims, models in built
                      for model in models.values()]
        replay_events_batch(all_sims, all_models,
                            self.kinds, self.lines, self.aux)
        return [
            self._assemble(request, sims, models)
            for request, (sims, models) in zip(requests, built)
        ]

    def _build(self, request: ReplayRequest) -> tuple[dict, dict]:
        """The state machines one request needs, validated against the
        recording."""
        if request.alt_l2 and self.read_misses_big_l2 is None:
            raise ConfigurationError(
                f"{self.name}: this recording carries no alternate-L2 "
                "counts — re-record with include_alt_l2=True"
            )
        sims = _build_sims(dict(request.snc_configs),
                           dict(request.snc_schemes)
                           if request.snc_schemes else None,
                           request.strategy)
        models = _build_integrity_models(
            dict(request.integrity_configs)
            if request.integrity_configs else None,
            dict(request.integrity_providers)
            if request.integrity_providers else None,
        )
        if request.strategy is not None:
            first_task = self.tasks[0].xom_id
            for sim in sims.values():
                sim.begin_task(first_task)
        return sims, models

    def _assemble(self, request: ReplayRequest, sims: dict,
                  models: dict) -> BenchmarkEvents:
        """One request's :class:`BenchmarkEvents` from its replayed
        state machines plus the recorded aggregates: figure requests
        calibrate compute from the one task's Figure 3 anchor, scenario
        requests per task, summed."""
        if request.strategy is None:
            events = BenchmarkEvents(
                self.name, self.tasks[0].xom_slowdown_pct
            )
            if request.alt_l2:
                events.read_misses_big_l2 = self.read_misses_big_l2
                events.allocate_misses_big_l2 = (
                    self.allocate_misses_big_l2
                )
            else:
                events.read_misses_big_l2 = None
                events.allocate_misses_big_l2 = None
            events.compute_cycles = calibrate_compute_cycles(
                self.read_misses, self.tasks[0].xom_slowdown_pct
            )
        else:
            events = BenchmarkEvents(self.name, 0.0)
            events.read_misses_big_l2 = None
            events.allocate_misses_big_l2 = None
            tasks = self.tasks
            task_read_misses = self.task_read_misses
            compute = 0
            for task in tasks:
                misses = task_read_misses[task.xom_id]
                if misses:
                    compute += calibrate_compute_cycles(
                        misses, task.xom_slowdown_pct
                    )
            events.compute_cycles = compute
            if len(tasks) == 1:
                events.xom_slowdown_target = tasks[0].xom_slowdown_pct
            else:
                events.xom_slowdown_target = sum(
                    task.xom_slowdown_pct * task_read_misses[task.xom_id]
                    for task in tasks
                ) / self.read_misses
            events.task_read_misses = {
                f"{task.xom_id}:{task.label}":
                    task_read_misses[task.xom_id]
                for task in tasks
            }
        events.read_misses = self.read_misses
        events.allocate_misses = self.allocate_misses
        events.writebacks = self.writebacks
        events.snc = {name: sim.counts for name, sim in sims.items()}
        events.integrity = {
            name: model.counts for name, model in models.items()
        }
        return events


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
