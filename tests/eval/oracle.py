"""The per-reference oracle the production engine is checked against.

Production splits a simulation in two: :func:`~repro.eval.record.
record_source` runs the workload and the L2s block by block into event
columns, and :func:`~repro.eval.jobs.price_batch` prices the columns
through every task's configurations, most lanes by one shared walk per
geometry group.  :func:`oracle` does the same job the slow, obvious
way: one loop over the scalar reference stream (``source.stream(seed)``)
that drives :meth:`~repro.memory.cache.TagOnlyCache.access` for the
base L2 (and the Figure 8 alternate L2 when asked), tracks line owners
for writebacks, and calls every :class:`~repro.timing.model.SNCTimingSim`'s
``read_miss`` / ``writeback`` / ``switch_task`` / ``reset_counts`` and
every integrity model's ``verify`` / ``update`` / ``reset_counts``
directly, one event at a time.  It also emits the ``(kind, line, aux)``
events and aggregates the recorder must produce, so one loop is the
reference for both phases: :attr:`OracleRun.recording` for the record
pass (columns, aggregates, wire bytes), :attr:`OracleRun.events` for
pricing (every counter field).

:func:`produce` is the production path with the same signature —
record, ship through the wire form, batch-price — so a differential
test calls both with identical arguments, and every other test that
needs events for a source goes through it.  Both take the pricing side
as a :class:`~repro.eval.jobs.Task`'s pricing fields: ``snc`` (a
tuple of :class:`~repro.eval.jobs.SNCSpec`), ``strategy`` (``None``,
``"flush"`` or ``"tag"``), ``alt_l2`` and ``integrity`` (a tuple of
:class:`~repro.eval.jobs.IntegrityModelSpec`); :func:`pricing_task`
wraps them in the task :func:`~repro.eval.jobs.price_batch` takes.
:func:`oracle_task` and :func:`produce_task` are the same pair for one
scheduler task.

``python tests/eval/test_golden_master.py`` renders the golden tables
through :func:`oracle_task`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.eval.jobs import (
    SourceSpec,
    Task,
    price_batch,
    standard_snc_specs,
)
from repro.eval.pipeline import (
    L2_BASE_ASSOC,
    L2_BASE_LINES,
    L2_BIG_ASSOC,
    L2_BIG_LINES,
    BenchmarkEvents,
    SimulationScale,
)
from repro.eval.record import (
    AUX_TYPECODE,
    KIND_TYPECODE,
    LINE_TYPECODE,
    RecordedTask,
    Recording,
    record_source,
)
from repro.eval.scheduler import run_tasks
from repro.eval.trace_store import recording_from_bytes, recording_to_bytes
from repro.memory.cache import TagOnlyCache
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_RESET,
    EVENT_SWITCH,
    EVENT_WRITEBACK,
    calibrate_compute_cycles,
)
from repro.workloads.sources import Switch


@dataclass
class OracleRun:
    """One oracle pass: the priced events, and the recording (the
    ``(kind, line, aux)`` event columns plus the measured aggregates)
    the recorder must reproduce."""

    events: BenchmarkEvents
    recording: Recording


def _standard_snc():
    return tuple(standard_snc_specs().values())


def oracle(source, scale=None, seed=1, *, snc=None, strategy=None,
           alt_l2=False, integrity=(), l2_lines=L2_BASE_LINES,
           l2_assoc=L2_BASE_ASSOC) -> OracleRun:
    """Simulate ``source`` one reference at a time.

    ``snc=None`` means the five standard configurations.
    ``strategy=None`` is a figure task (the one task's calibration, the
    alternate-L2 counts when ``alt_l2``); ``"flush"`` or ``"tag"`` is a
    §4.3 scenario task (per-task cores and per-task calibration,
    summed)."""
    scale = scale or SimulationScale()
    if snc is None:
        snc = _standard_snc()
    sim_by_key = {spec.key: spec.build_sim(strategy) for spec in snc}
    model_by_key = {spec.key: spec.build_model() for spec in integrity}
    sims = list(sim_by_key.values())
    models = list(model_by_key.values())
    tasks = source.tasks
    current = tasks[0].xom_id
    if strategy is not None:
        for sim in sims:
            sim.begin_task(current)
    l2 = TagOnlyCache(l2_lines, l2_assoc)
    big_l2 = TagOnlyCache(L2_BIG_LINES, L2_BIG_ASSOC) if alt_l2 else None
    stream: list[tuple[int, int, int]] = []
    reads = allocs = writebacks = big_reads = big_allocs = 0
    task_reads = {task.xom_id: 0 for task in tasks}
    owner: dict[int, int] = {}
    position = 0

    for item in source.stream(seed):
        if type(item) is Switch:
            current = item.next_task
            stream.append((EVENT_SWITCH, 0, current))
            for sim in sims:
                sim.switch_task(current)
            continue
        measuring = position >= scale.warmup_refs
        line, is_write = item
        hit, victim = l2.access(line, is_write)
        if not hit:
            owner[line] = current
            stream.append((EVENT_ALLOC if is_write else EVENT_READ, line, 0))
            if measuring and is_write:
                allocs += 1
            elif measuring:
                reads += 1
                task_reads[current] += 1
            for sim in sims:
                sim.read_miss(line, critical=not is_write)
            for model in models:
                model.verify(line, critical=not is_write)
        if victim is not None:
            victim_owner = owner.pop(victim, current)
            stream.append((EVENT_WRITEBACK, victim, victim_owner))
            if measuring:
                writebacks += 1
            for sim in sims:
                sim.writeback(victim, victim_owner)
            for model in models:
                model.update(victim)
        if big_l2 is not None and not big_l2.access(line, is_write)[0]:
            if measuring and is_write:
                big_allocs += 1
            elif measuring:
                big_reads += 1
        position += 1
        if position == scale.warmup_refs:
            stream.append((EVENT_RESET, 0, 0))
            for counted in sims + models:
                counted.reset_counts()
        if position >= scale.total_refs:
            break

    if reads == 0:
        raise ConfigurationError(
            f"{source.name}: the measurement window saw no load misses"
        )
    recording = Recording(
        name=source.name,
        tasks=tuple(RecordedTask(task.xom_id, task.label,
                                 task.xom_slowdown_pct) for task in tasks),
        warmup_refs=scale.warmup_refs,
        measure_refs=scale.measure_refs,
        seed=seed,
        l2_lines=l2_lines,
        l2_assoc=l2_assoc,
        read_misses=reads,
        allocate_misses=allocs,
        writebacks=writebacks,
        read_misses_big_l2=big_reads if alt_l2 else None,
        allocate_misses_big_l2=big_allocs if alt_l2 else None,
        task_read_misses=task_reads,
        kinds=array(KIND_TYPECODE, (kind for kind, _, _ in stream)),
        lines=array(LINE_TYPECODE, (line for _, line, _ in stream)),
        aux=array(AUX_TYPECODE, (aux for _, _, aux in stream)),
    )

    if strategy is None:
        anchor = tasks[0].xom_slowdown_pct
        events = BenchmarkEvents(source.name, anchor)
        events.compute_cycles = calibrate_compute_cycles(reads, anchor)
    else:
        events = BenchmarkEvents(source.name, 0.0)
        events.compute_cycles = sum(
            calibrate_compute_cycles(task_reads[task.xom_id],
                                     task.xom_slowdown_pct)
            for task in tasks if task_reads[task.xom_id]
        )
        if len(tasks) == 1:
            events.xom_slowdown_target = tasks[0].xom_slowdown_pct
        else:
            events.xom_slowdown_target = sum(
                task.xom_slowdown_pct * task_reads[task.xom_id]
                for task in tasks
            ) / reads
        events.task_read_misses = {
            f"{task.xom_id}:{task.label}": task_reads[task.xom_id]
            for task in tasks
        }
    events.read_misses = reads
    events.allocate_misses = allocs
    events.writebacks = writebacks
    if strategy is None and alt_l2:
        events.read_misses_big_l2 = big_reads
        events.allocate_misses_big_l2 = big_allocs
    else:
        events.read_misses_big_l2 = events.allocate_misses_big_l2 = None
    events.snc = {key: sim.counts for key, sim in sim_by_key.items()}
    events.integrity = {key: model.counts
                        for key, model in model_by_key.items()}
    return OracleRun(events, recording)


#: The source :func:`pricing_task` names.  :func:`~repro.eval.jobs.
#: price_batch` reads only a task's pricing fields, so a recording of any
#: source — a test-only one, or one under a non-paper L2 — prices under
#: a task over this placeholder.
PRICING_SOURCE = SourceSpec.benchmark("gzip")


def pricing_task(snc=None, strategy=None, *, alt_l2=False,
                 integrity=()) -> Task:
    """The task :func:`~repro.eval.jobs.price_batch` prices ``snc``,
    ``strategy``, ``alt_l2`` and ``integrity`` under (as in
    :func:`oracle`)."""
    return Task(source=PRICING_SOURCE,
                snc_configs=_standard_snc() if snc is None else tuple(snc),
                scale=SimulationScale(), strategy=strategy, alt_l2=alt_l2,
                integrity=tuple(integrity))


def produce(source, scale=None, seed=1, *, snc=None, strategy=None,
            alt_l2=False, integrity=(), l2_lines=L2_BASE_LINES,
            l2_assoc=L2_BASE_ASSOC) -> BenchmarkEvents:
    """The production path for the same arguments as :func:`oracle`:
    block-record, round-trip the wire form a pool worker or a warm
    store would see, batch-price."""
    recording = recording_from_bytes(recording_to_bytes(record_source(
        source, scale=scale, seed=seed, include_alt_l2=alt_l2,
        l2_lines=l2_lines, l2_assoc=l2_assoc,
    )))
    task = pricing_task(snc, strategy, alt_l2=alt_l2, integrity=integrity)
    return price_batch([task], recording)[0]


def oracle_task(task) -> BenchmarkEvents:
    """A scheduler task's events, computed by :func:`oracle`."""
    return oracle(
        task.source.build(), task.scale, task.seed,
        snc=task.snc_configs, strategy=task.strategy, alt_l2=task.alt_l2,
        integrity=task.integrity,
    ).events


def produce_task(task) -> BenchmarkEvents:
    """A scheduler task's events through the production scheduler."""
    return run_tasks([task])[0].events
