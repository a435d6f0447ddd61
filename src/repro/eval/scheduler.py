"""Executor for evaluation tasks: record once, batch-price, fan out.

There are two run calls.  :func:`run_tasks` executes a list of
:class:`~repro.eval.jobs.Task` — figure passes and §4.3 scenarios alike
— and returns one :class:`TaskResult` per task, in task order;
:func:`run_jobs` merges table-level jobs (:func:`repro.eval.jobs.
merge_jobs`), runs the tasks, and indexes the events by
``task.workload``.  Either way the tasks run in two phases:

* **Record.**  Pending tasks are grouped by their
  :class:`~repro.eval.jobs.RecordTask`, and each distinct recording is
  resolved once — from the :class:`~repro.eval.trace_store.TraceStore`
  when one is given, else recorded fresh (in parallel when several are
  missing and ``n_jobs > 1``).
* **Price.**  Each group is **batch-priced**: one event-major pass
  (:func:`repro.eval.jobs.price_batch`) walks the shared columns once
  while every task's state machines consume them in lock-step.

``n_jobs == 1`` (the default) runs everything inline in this process.
``n_jobs > 1`` fans the work over the process-wide warm
:class:`~repro.eval.pool.WorkerPool`: workers are spawned once per
process and reused across every ``run_tasks``/``run_jobs`` call,
recordings ship to them through shared memory (zero-copy) and the
shipments stay cached on the pool across runs, and a crashed worker is
respawned with its task retried once inline.  A run whose recordings
cannot be shipped (no shared memory segment could be created) is priced
inline instead.  Workers
re-import :mod:`repro` fresh, so results cannot depend on parent-process
state.  When recordings alone cannot fill the workers, a recording's
pricing lanes (one per SNC configuration or integrity model —
independent by construction) are split into **lane shards**
(:func:`plan_lane_shards`): each worker prices its subset over the same
shipped recording, and the parent reassembles per-task events in
canonical lane order (:func:`repro.eval.jobs.merge_shard_events`).
Every job count produces byte-identical events.

The result list comes back **in task order** (completion order only
affects progress lines), and every priced result is written back to the
:class:`~repro.eval.cache.ResultCache` when one is given.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.eval.cache import ResultCache
from repro.eval.jobs import (
    Job,
    Lane,
    RecordTask,
    Task,
    execute_record,
    merge_jobs,
    merge_shard_events,
    price_batch,
    record_task_for,
    task_lanes,
    total_lane_count,
)
from repro.eval.pipeline import BenchmarkEvents
from repro.eval.pool import (
    get_worker_pool,
    pool_stats,
    remember_recording,
    resolve_recording_ref,
)
from repro.eval.record import Recording
from repro.eval.trace_store import (
    TraceStore,
    recording_from_bytes,
    recording_to_bytes,
)

Progress = Callable[[str], None]


@dataclass(frozen=True)
class TaskResult:
    """One executed (or cache-served) task."""

    task: Task
    events: BenchmarkEvents
    seconds: float
    cached: bool


def _record_indexed(item: tuple[int, RecordTask]):
    """Phase 1 worker: returns the serialized recording (the compact
    wire form the store persists and replay workers consume as-is).
    A persistent-pool worker also keeps the decoded recording in its
    LRU, so its own phase-2 tasks on this recording skip the decode."""
    index, record_task = item
    started = time.perf_counter()
    recording = execute_record(record_task)
    remember_recording(record_task.config_hash(), recording)
    payload = recording_to_bytes(recording)
    return index, payload, time.perf_counter() - started


def _batch_indexed(item):
    """Batch worker: prices one lane shard of one recording's task
    group in a single event-major pass — the whole group when the
    shard plan left it in one piece — and returns the per-task
    (possibly partial) event lists.

    ``item`` is ``(group_index, shard_index, members, ref)`` where
    ``members`` is a tuple of ``(task, lane_keys)`` pairs; a ``None``
    ``lane_keys`` means every lane of that task.  ``_REPRO_SHARD_CRASH``
    (``"<group>:<shard>"``) kills the matching shard's *worker* process
    mid-task — the crash-recovery tests use it to pin that only the
    dead worker's shard is re-priced."""
    group_index, shard_index, members, ref = item
    crash = os.environ.get("_REPRO_SHARD_CRASH", "")
    if (crash == f"{group_index}:{shard_index}"
            and multiprocessing.parent_process() is not None):
        os._exit(17)
    started = time.perf_counter()
    events = price_batch(
        [task for task, _lanes in members],
        resolve_recording_ref(ref),
        lanes=[lanes for _task, lanes in members],
    )
    return group_index, shard_index, events, time.perf_counter() - started


#: Never split a group below this many lanes per shard: each shard
#: re-walks the whole event stream, so a shard must amortize that
#: decode over at least two lanes to beat sharing one pass.
MIN_SHARD_LANES = 2


def plan_lane_shards(lane_counts: Sequence[int], n_jobs: int) -> list[int]:
    """How many lane shards each recording's batch pass splits into.

    Every group starts as one pass (the sharding-free baseline); the
    workers left idle by that plan (``n_jobs - n_groups``) are then
    dealt out greedily to whichever group has the most lanes per shard,
    while a further split still leaves :data:`MIN_SHARD_LANES` lanes in
    every shard.  Degenerates to all-ones —
    exactly the historical one-pass-per-recording plan — when groups
    already cover the workers or ``n_jobs == 1``; a 16-lane
    single-workload sweep at 4 jobs plans 4 shards of 4 lanes."""
    shards = [1] * len(lane_counts)
    spare = n_jobs - len(lane_counts)
    while spare > 0:
        candidates = [
            g for g, lanes in enumerate(lane_counts)
            if lanes >= MIN_SHARD_LANES * (shards[g] + 1)
        ]
        if not candidates:
            break
        best = max(candidates,
                   key=lambda g: lane_counts[g] / shards[g])
        shards[best] += 1
        spare -= 1
    return shards


def _shard_members(members: list[tuple[int, Task]], n_shards: int,
                   ) -> list[list[tuple[int, Task,
                                        tuple[Lane, ...] | None]]]:
    """Split one group's members into ``n_shards`` contiguous lane
    chunks, balanced to within one lane.

    Lanes are flattened in member order (each task's lanes in canonical
    order), so a task spanning a chunk boundary contributes a lane
    subset to each side.  Returns one list of ``(index, task,
    lane_keys)`` triples per shard; ``lane_keys`` is ``None`` when the
    shard holds every lane of that task — the ``n_shards == 1``
    degenerate case is then exactly the unsharded item."""
    flat: list[tuple[int, Task, Lane | None]] = []
    for index, task in members:
        lanes = task_lanes(task)
        if lanes:
            flat.extend((index, task, lane) for lane in lanes)
        else:
            # A lane-less task (no SNC configs, no integrity) still
            # needs its non-lane events produced exactly once.
            flat.append((index, task, None))
    total = len(flat)
    shards = []
    for s in range(n_shards):
        chunk = flat[total * s // n_shards:total * (s + 1) // n_shards]
        order: list[int] = []
        by_task: dict[int, tuple[Task, list[Lane]]] = {}
        for index, task, lane in chunk:
            if index not in by_task:
                by_task[index] = (task, [])
                order.append(index)
            if lane is not None:
                by_task[index][1].append(lane)
        shard = []
        for index in order:
            task, lanes = by_task[index]
            keys = (None if len(lanes) == len(task_lanes(task))
                    else tuple(lanes))
            shard.append((index, task, keys))
        shards.append(shard)
    return shards


def auto_jobs(tasks: Sequence[Task]) -> int:
    """The worker count ``--jobs auto`` resolves to for a task list:
    one per CPU, capped by the total lane count — with lane sharding a
    sweep can use as many workers as it has pricing lanes (not just
    recordings), and any more would idle."""
    cpus = os.cpu_count() or 1
    return max(1, min(cpus, total_lane_count(tasks)))


def _fan_out(items: list, worker, n_jobs: int, on_result) -> None:
    """Run indexed work items serially (zero scheduling overhead) or on
    the process-wide persistent pool, handing each worker's result
    tuple to ``on_result`` as it completes.  The one fan-out used by
    both phases — record passes and batch shards."""
    if len(items) <= 1 or n_jobs == 1:
        for item in items:
            on_result(*worker(item))
        return
    workers = min(n_jobs, len(items))
    get_worker_pool(workers).run(worker, items, on_result,
                                 max_workers=workers)


def _resolve_recordings(record_tasks: list[RecordTask], n_jobs: int,
                        trace_store: TraceStore | None,
                        progress: Progress | None,
                        want_recordings: bool = True,
                        ) -> tuple[dict[RecordTask, bytes],
                                   dict[RecordTask, Recording]]:
    """Phase 1: one recording per distinct record task, as wire payloads.

    Store hits are served first.  The misses are recorded inline, or
    across the pool when there are several and ``n_jobs > 1``, and
    written back to the store.  Payloads travel as the bytes the store
    read or the worker produced (never re-serialized); parsed
    :class:`Recording` objects come back only where one already exists,
    callers parse the rest on demand.  A caller that will fan phase 2
    out (the payloads ship to workers as-is) passes
    ``want_recordings=False``: store hits are then read verify-only
    (:meth:`TraceStore.get_payload`) and the parent never pays the
    column decode."""
    payloads: dict[RecordTask, bytes] = {}
    recordings: dict[RecordTask, Recording] = {}
    pending: list[tuple[int, RecordTask]] = []
    total = len(record_tasks)

    def emit(index: int, record_task: RecordTask, how: str) -> None:
        if progress is not None:
            progress(f"[record {index + 1}/{total}] "
                     f"{record_task.describe()}: {how}")

    for index, record_task in enumerate(record_tasks):
        if trace_store is not None:
            if want_recordings:
                entry = trace_store.get_entry(record_task)
                if entry is not None:
                    recordings[record_task] = entry[0]
                    payloads[record_task] = entry[1]
                    emit(index, record_task, "trace cached")
                    continue
            else:
                payload = trace_store.get_payload(record_task)
                if payload is not None:
                    payloads[record_task] = payload
                    emit(index, record_task, "trace cached")
                    continue
        pending.append((index, record_task))

    if len(pending) <= 1 or n_jobs == 1:
        # In-process: keep the Recording object itself — serialization
        # happens only if the store persists it (inside ``put``) or a
        # pool of replay workers later needs the wire form.
        for index, record_task in pending:
            started = time.perf_counter()
            recording = execute_record(record_task)
            seconds = time.perf_counter() - started
            recordings[record_task] = recording
            if trace_store is not None:
                trace_store.note_record(record_task.scale.total_refs,
                                        seconds)
                # ``put`` returns the wire form it packed, so a later
                # pool of replay workers reuses it instead of packing
                # the same recording a second time.
                payload = trace_store.put(record_task, recording)
                if payload is not None:
                    payloads[record_task] = payload
            emit(index, record_task, f"recorded in {seconds:.1f}s")
        return payloads, recordings

    def on_recorded(index: int, payload: bytes, seconds: float) -> None:
        record_task = record_tasks[index]
        payloads[record_task] = payload
        if trace_store is not None:
            trace_store.note_record(record_task.scale.total_refs, seconds)
            trace_store.put(record_task, payload=payload)
        emit(index, record_task, f"recorded in {seconds:.1f}s")

    _fan_out(pending, _record_indexed, n_jobs, on_recorded)
    return payloads, recordings


def run_tasks(tasks: list[Task], n_jobs: int = 1,
              cache: ResultCache | None = None,
              progress: Progress | None = None,
              backend: str = "replay",
              trace_store: TraceStore | None = None,
              on_result=None) -> list[TaskResult]:
    """Execute tasks — figure and scenario alike — in task order.

    Cache hits are resolved first (and never occupy a worker); the
    remainder is recorded and batch-priced inline (``n_jobs == 1``) or
    across the persistent pool.  ``trace_store`` persists recordings
    across runs.  ``backend`` names the engine and accepts only
    ``"replay"``, the one there is.  ``on_result(index, result)``,
    when given, fires once per task *as it completes* (cache hits
    included, completion order) — the serve daemon resolves each
    subscriber's future from it instead of waiting for the whole list.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if backend != "replay":
        raise ValueError(
            f"unknown backend {backend!r} (the only engine is 'replay')"
        )
    total = len(tasks)
    results: list[TaskResult | None] = [None] * total
    pending: list[tuple[int, Task]] = []

    def emit(index: int, result: TaskResult) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)
        if progress is not None:
            how = "cached" if result.cached else (
                f"batch-priced in {result.seconds:.1f}s"
            )
            progress(f"[{index + 1}/{total}] {result.task.describe()}: "
                     f"{how}")

    for index, task in enumerate(tasks):
        events = cache.get(task) if cache is not None else None
        if events is not None:
            emit(index, TaskResult(task, events, 0.0, cached=True))
        else:
            pending.append((index, task))

    if pending:
        _run_pending(pending, n_jobs, cache, emit, progress, trace_store)
    return [result for result in results if result is not None]


def _run_pending(pending: list[tuple[int, Task]], n_jobs: int,
                 cache: ResultCache | None, emit, progress,
                 trace_store: TraceStore | None) -> None:
    """Record and batch-price the non-cached tasks.

    One pool item per (recording, lane shard): groups alone when they
    cover the workers, lane shards within them when they don't (a
    single-recording sweep still fills the pool).  Each shard prices a
    contiguous lane subset over the same shipped recording (riding the
    pool's retry/respawn machinery as-is — a dead worker re-prices only
    its shard), and the group's results are merged back
    per task in canonical lane order
    (:func:`~repro.eval.jobs.merge_shard_events`), byte-identical to
    the one-pass path.  The group's wall time — summed across its
    shards — is apportioned evenly across its tasks so run stats still
    sum to the real priced time.
    """
    # Group by record pass, preserving first-appearance order: distinct
    # (source, scale, seed) triples record once each; everything else
    # about a task is pricing-side configuration.
    record_tasks: list[RecordTask] = []
    groups: dict[RecordTask, list[tuple[int, Task]]] = {}
    for index, task in pending:
        record_task = record_task_for(task)
        if record_task not in groups:
            record_tasks.append(record_task)
        groups.setdefault(record_task, []).append((index, task))
    plan = plan_lane_shards(
        [sum(len(task_lanes(task)) for _index, task in groups[rt])
         for rt in record_tasks],
        n_jobs,
    )
    fanning_out = n_jobs > 1 and sum(plan) > 1
    payloads, recordings = _resolve_recordings(
        record_tasks, n_jobs, trace_store, progress,
        # Phase 2 in the workers consumes the wire payloads as-is, so
        # the parent skips the column decode for store hits entirely.
        want_recordings=not fanning_out,
    )
    if fanning_out:
        workers = min(n_jobs, sum(plan))
        worker_pool = get_worker_pool(workers)
        try:
            # Shared-memory shipments are cached on the pool across runs
            # and unlinked by its budget or shutdown.
            refs = {
                record_task: worker_pool.ship_recording(
                    record_task.config_hash(),
                    recording=recordings.get(record_task),
                    payload=payloads.get(record_task),
                )
                for record_task in record_tasks
            }
        except OSError:
            # No segment to ship through: price the run inline.
            fanning_out = False
            plan = [1] * len(record_tasks)
    n_groups = len(record_tasks)
    group_shards = [
        _shard_members(groups[record_task], plan[group_index])
        for group_index, record_task in enumerate(record_tasks)
    ]

    def finish(group_index: int,
               per_shard: dict[int, tuple[list[BenchmarkEvents],
                                          float]]) -> None:
        record_task = record_tasks[group_index]
        members = groups[record_task]
        n_shards = len(group_shards[group_index])
        seconds = sum(shard_seconds
                      for _events, shard_seconds in per_shard.values())
        if trace_store is not None:
            trace_store.note_priced(len(members), seconds,
                                    shards=n_shards)
        if n_shards > 1:
            stats = pool_stats()
            stats.lane_shards += n_shards
            stats.shard_seconds += seconds
        if progress is not None:
            sharding = (
                f" in {n_shards} shards" if n_shards > 1 else ""
            )
            progress(
                f"[batch {group_index + 1}/{n_groups}] "
                f"{record_task.describe()}: {len(members)} task"
                f"{'s' if len(members) != 1 else ''}{sharding} "
                f"batch-priced in {seconds:.1f}s"
            )
        partials: dict[int, list[BenchmarkEvents]] = {}
        for shard_index in sorted(per_shard):
            events_list, _shard_seconds = per_shard[shard_index]
            for (index, _task, _lanes), events in zip(
                group_shards[group_index][shard_index], events_list
            ):
                partials.setdefault(index, []).append(events)
        share = seconds / len(members)
        for index, task in members:
            if n_shards > 1:
                events = merge_shard_events(task, partials[index])
            else:
                events = partials[index][0]
            if cache is not None:
                cache.put(task, events)
            emit(index, TaskResult(task, events, share, cached=False))

    pending_shards: dict[int, dict[int, tuple[list, float]]] = {}

    def on_priced(group_index: int, shard_index: int,
                  events_list: list[BenchmarkEvents],
                  seconds: float) -> None:
        got = pending_shards.setdefault(group_index, {})
        got[shard_index] = (events_list, seconds)
        if len(got) == len(group_shards[group_index]):
            finish(group_index, pending_shards.pop(group_index))

    if not fanning_out:
        # Inline: parse each payload at most once (inline store hits
        # arrive parsed already; pool recordings and payloads read for
        # a shipment that failed arrive as wire bytes), and price each
        # group in one unsharded pass.
        for group_index, record_task in enumerate(record_tasks):
            recording = recordings.get(record_task)
            if recording is None:
                recording = recording_from_bytes(payloads[record_task])
            started = time.perf_counter()
            events_list = price_batch(
                [task for _, task in groups[record_task]], recording
            )
            on_priced(group_index, 0,
                      events_list, time.perf_counter() - started)
        return

    items = [
        (group_index, shard_index,
         tuple((task, lanes) for _index, task, lanes in shard),
         refs[record_task])
        for group_index, record_task in enumerate(record_tasks)
        for shard_index, shard in enumerate(group_shards[group_index])
    ]
    worker_pool.run(_batch_indexed, items, on_priced, max_workers=workers)


def run_jobs(jobs: Sequence[Job], n_jobs: int = 1,
             cache: ResultCache | None = None,
             progress: Progress | None = None,
             trace_store: TraceStore | None = None,
             ) -> dict[str, BenchmarkEvents]:
    """Merge table-level jobs, execute, and index events by
    ``task.workload``.

    This is the one-call path for callers that declare jobs — figures,
    scenarios and integrity columns in any mix — and want the mapping
    the table drivers price: ``{benchmark: events}`` for figure passes,
    ``{"label/strategy": events}`` for scenarios.  The mapping is only
    well-defined when each name resolves to one task, so a job list
    mixing scales or seeds for the same pass is rejected rather than
    silently dropping results — use :func:`merge_jobs` +
    :func:`run_tasks` directly for multi-scale sweeps.
    """
    tasks = merge_jobs(jobs)
    workloads = [task.workload for task in tasks]
    if len(set(workloads)) != len(workloads):
        raise ValueError(
            "run_jobs needs one task per workload; mixed scales/seeds "
            "for one workload make the {workload: events} mapping "
            "ambiguous (use merge_jobs + run_tasks instead)"
        )
    results = run_tasks(tasks, n_jobs=n_jobs, cache=cache,
                        progress=progress, trace_store=trace_store)
    return {result.task.workload: result.events for result in results}
