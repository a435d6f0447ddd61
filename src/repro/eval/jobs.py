"""Schedulable units of the evaluation: jobs, tasks and record passes.

The paper's evaluation is one sweep of trace passes: every figure prices
per-benchmark event sets under different SNC geometries and latencies,
and the §4.3 multi-programmed runs are the same pass with a context
switch strategy added.  This module turns that sweep into explicit data:

* :class:`Task` — one trace pass, the unit the scheduler runs and the
  result cache keys: a :class:`SourceSpec` (a benchmark, a trace file,
  or a multi-task interleave with its quantum), the SNC configurations
  and integrity models it prices (:class:`SNCSpec`,
  :class:`IntegrityModelSpec`), the scale and seed, and a switch
  strategy — ``None`` for a figure pass, which may also price the
  Figure 8 alternate L2, ``"flush"``/``"tag"`` for a §4.3 scenario.
  :func:`SimulationTask` and :func:`ScenarioTask` build the two flavors.
* :class:`Job` — what one *table* needs from one pass: a task's fields
  plus the table's name and the registered protection schemes it prices
  (:mod:`repro.secure.schemes`).  Tables declare jobs
  (:func:`repro.eval.experiments.plan_jobs`, ``scenario_jobs``,
  ``integrity_jobs``); :func:`merge_jobs` folds any mix of them into
  the minimal task list, so the seven figures still simulate each
  benchmark exactly once.
* :class:`RecordTask` — phase 1: the configuration-independent record
  pass a task's pricing depends on (:func:`record_task_for` derives it;
  :func:`execute_record` runs it; :func:`price_batch` is phase 2).
  Tasks that differ only in SNC geometry, scheme, integrity, switch
  strategy or the alternate-L2 flag map to the *same* record task —
  that sharing is the engine's speedup.

All are frozen, hashable and picklable, so tasks can fan out across
processes (:mod:`repro.eval.scheduler`) and key an on-disk result store
(:mod:`repro.eval.cache`).  Identity is *content-based*:
:meth:`Task.config_hash` is a SHA-256 over the canonical JSON of the
full configuration, stable across processes and interpreter runs
(unlike ``hash()``, which is salted per process for strings); a trace
source hashes its file's *contents*, so editing a trace invalidates its
cached results.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

from repro.errors import ConfigurationError
from repro.eval.pipeline import (
    L2_BASE_ASSOC,
    L2_BASE_LINES,
    L2_BIG_ASSOC,
    L2_BIG_LINES,
    BenchmarkEvents,
    SimulationScale,
    standard_snc_configs,
)
from repro.eval.record import Recording, record_source
from repro.secure.integrity import IntegrityConfig, get_integrity
from repro.secure.schemes import get_scheme
from repro.secure.snc import SNCConfig, SNCPolicy
from repro.secure.snc_policy import SwitchStrategy
from repro.timing.batch import replay_events_batch
from repro.timing.model import SNCTimingSim, calibrate_compute_cycles
from repro.workloads.sources import (
    TRACE_XOM_SLOWDOWN_PCT,
    MultiTaskInterleaver,
    SingleBenchmark,
    TraceFile,
    WorkloadSource,
)
from repro.workloads.spec import BY_NAME


@dataclass(frozen=True)
class SNCSpec:
    """A hashable, JSON-friendly description of one SNC configuration.

    ``scheme`` names the registered protection scheme whose timing state
    machine simulates this configuration (``"otp"`` for the paper's
    Algorithm 1; variants like ``"otp_split"`` plug in their own core).
    """

    key: str  # the pricing key figures use, e.g. "lru64"
    size_bytes: int = 64 * 1024
    entry_bytes: int = 2
    assoc: int | None = None  # None = fully associative
    policy: str = SNCPolicy.LRU.value
    scheme: str = "otp"

    @classmethod
    def from_config(cls, key: str, config: SNCConfig,
                    scheme: str = "otp") -> SNCSpec:
        return cls(
            key=key,
            size_bytes=config.size_bytes,
            entry_bytes=config.entry_bytes,
            assoc=config.assoc,
            policy=config.policy.value,
            scheme=scheme,
        )

    def to_config(self) -> SNCConfig:
        return SNCConfig(
            size_bytes=self.size_bytes,
            entry_bytes=self.entry_bytes,
            assoc=self.assoc,
            policy=SNCPolicy(self.policy),
        )

    def build_sim(self, strategy: str | None = None) -> SNCTimingSim:
        """This configuration's timing state machine, built by its
        scheme's registry spec.  ``strategy`` selects the §4.3 switch
        handling; ``None`` (a figure pass, which never switches) keeps
        the scheme's default."""
        build = get_scheme(self.scheme).build_timing_sim
        if strategy is None:
            return build(self.to_config())
        return build(self.to_config(),
                     switch_strategy=SwitchStrategy(strategy))

    def canonical(self) -> list:
        return [self.key, self.size_bytes, self.entry_bytes, self.assoc,
                self.policy, self.scheme]


def standard_snc_specs() -> dict[str, SNCSpec]:
    """The five standard configurations, as specs keyed like the pipeline."""
    return {
        key: SNCSpec.from_config(key, config)
        for key, config in standard_snc_configs().items()
    }


@dataclass(frozen=True)
class IntegrityModelSpec:
    """A hashable, JSON-friendly description of one integrity
    configuration — the eval layer's handle on the
    :mod:`repro.secure.integrity` registry, exactly as :class:`SNCSpec`
    is its handle on the scheme registry.

    ``provider`` names the registered
    :class:`~repro.secure.integrity.IntegritySpec` whose byte-free
    timing model simulates this configuration (it must declare one —
    ``"none"`` is expressed by *not* requesting a model, which is how
    the figure jobs stay byte-identical to the pre-integrity pipeline);
    ``key`` is the pricing key figures and tables use.
    """

    key: str  # the pricing key, e.g. "tree_nc1024"
    provider: str  # integrity registry key: "mac", "hash_tree", ...
    n_lines: int = 1 << 19  # covers every synthetic workload footprint
    node_cache_entries: int = 0
    tag_bytes: int = 16

    def __post_init__(self) -> None:
        spec = get_integrity(self.provider)  # raises on unregistered
        if spec.build_timing_model is None:
            raise ConfigurationError(
                f"integrity provider {self.provider!r} declares no "
                f"timing model — request it by omission, not by key"
            )

    def to_config(self) -> IntegrityConfig:
        return IntegrityConfig(
            base_addr=0,
            n_lines=self.n_lines,
            node_cache_entries=self.node_cache_entries,
            tag_bytes=self.tag_bytes,
        )

    def build_model(self):
        """This configuration's byte-free timing model, built by its
        provider's registry spec."""
        return get_integrity(self.provider).build_timing_model(
            self.to_config()
        )

    def canonical(self) -> list:
        return [self.key, self.provider, self.n_lines,
                self.node_cache_entries, self.tag_bytes]


def _by_key(specs: Iterable) -> tuple:
    """Specs in canonical order: sorted by pricing key."""
    return tuple(sorted(specs, key=lambda spec: spec.key))


def _union_by_key(target: dict, specs: Iterable, what: str) -> None:
    """Union specs into ``target`` by pricing key.  One key bound to two
    different configurations is ambiguous (the merged task could price
    only one of them), so it raises."""
    for spec in specs:
        existing = target.setdefault(spec.key, spec)
        if existing != spec:
            raise ValueError(
                f"{what} key {spec.key!r} bound to two different "
                f"configurations in one job set"
            )


def _canonical_hash(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _scale_canonical(scale: SimulationScale) -> list[int]:
    return [scale.warmup_refs, scale.measure_refs]


@lru_cache(maxsize=64)
def _trace_digest_stat(path: str, mtime_ns: int, size: int) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _trace_digest(path: str) -> str:
    """Content digest of a trace file, memoized per (path, mtime, size)
    so hashing a scheduled trace task doesn't re-read the whole file on
    every cache lookup."""
    stat = Path(path).stat()
    return _trace_digest_stat(path, stat.st_mtime_ns, stat.st_size)


@dataclass(frozen=True)
class SourceSpec:
    """A hashable, JSON-friendly description of one workload source.

    ``kind`` selects the :mod:`repro.workloads.sources` implementation:

    * ``"benchmark"`` — one synthetic model (``workloads`` has one name);
    * ``"multitask"`` — the §4.3 interleaver over ``workloads`` with
      ``quantum`` references per time slice;
    * ``"trace"`` — a recorded trace file at ``trace_path``, calibrated
      by ``xom_slowdown_pct``.  Its canonical form digests the file's
      contents, so a changed trace never resolves to a stale cached
      result.
    """

    kind: str
    workloads: tuple[str, ...] = ()
    quantum: int = 0
    trace_path: str = ""
    #: Trace calibration anchor; same default :class:`TraceFile` uses.
    xom_slowdown_pct: float = TRACE_XOM_SLOWDOWN_PCT

    def __post_init__(self) -> None:
        if self.kind in ("benchmark", "multitask"):
            if not self.workloads:
                raise ConfigurationError(
                    f"{self.kind!r} source needs workload names"
                )
            for name in self.workloads:
                if name not in BY_NAME:
                    raise KeyError(f"unknown workload {name!r}")
            if self.kind == "benchmark" and len(self.workloads) != 1:
                raise ConfigurationError(
                    "'benchmark' source takes exactly one workload"
                )
            if self.kind == "multitask" and self.quantum <= 0:
                raise ConfigurationError(
                    "'multitask' source needs a positive quantum"
                )
        elif self.kind == "trace":
            if not self.trace_path:
                raise ConfigurationError("'trace' source needs a path")
        else:
            raise ConfigurationError(
                f"unknown source kind {self.kind!r} "
                "(benchmark, multitask, trace)"
            )

    @classmethod
    def benchmark(cls, name: str) -> SourceSpec:
        """The one-benchmark source a figure pass runs over."""
        return cls(kind="benchmark", workloads=(name,))

    @property
    def label(self) -> str:
        if self.kind == "benchmark":
            return self.workloads[0]
        if self.kind == "multitask":
            return f"mix({'+'.join(self.workloads)})@q{self.quantum}"
        return f"trace:{self.trace_path}"

    def build(self) -> WorkloadSource:
        """Materialize the runtime source this spec describes."""
        if self.kind == "benchmark":
            return SingleBenchmark(self.workloads[0])
        if self.kind == "multitask":
            return MultiTaskInterleaver(self.workloads, self.quantum)
        return TraceFile(self.trace_path,
                         xom_slowdown_pct=self.xom_slowdown_pct)

    def canonical(self) -> list:
        if self.kind == "trace":
            return [self.kind, _trace_digest(self.trace_path),
                    self.xom_slowdown_pct]
        return [self.kind, list(self.workloads), self.quantum]


def _check_pass(source: SourceSpec, snc_configs: tuple[SNCSpec, ...],
                strategy: str | None, alt_l2: bool) -> None:
    """Reject a pass the engine cannot price: an unregistered scheme or
    switch strategy, a scheme without an SNC timing state machine, a
    figure pass over anything but one benchmark, or the Figure 8
    alternate L2 on a scenario."""
    for spec in snc_configs:
        # get_scheme raises KeyError on an unregistered scheme.
        if not get_scheme(spec.scheme).uses_snc:
            raise ConfigurationError(
                f"scheme {spec.scheme!r} declares no SNC timing state "
                f"machine — config {spec.key!r} cannot be simulated"
            )
    if strategy is not None:
        SwitchStrategy(strategy)  # raises ValueError on a bad name
        if alt_l2:
            raise ConfigurationError(
                "the Figure 8 alternate L2 is priced on figure passes "
                "only (strategy=None)"
            )
    elif source.kind != "benchmark":
        raise ConfigurationError(
            f"a {source.kind!r} source runs as a scenario: give it a "
            "switch strategy"
        )


def _pass_name(source: SourceSpec, strategy: str | None) -> str:
    """A pass's display name: the benchmark for a figure pass,
    ``label/strategy`` for a scenario."""
    if strategy is None:
        return source.label
    return f"{source.label}/{strategy}"


@dataclass(frozen=True)
class Task:
    """One trace pass over one source — the unit the scheduler runs.

    ``strategy`` is ``None`` for a figure pass over one benchmark (which
    alone may set ``alt_l2``, pricing the Figure 8 384KB L2) and a
    :class:`~repro.secure.snc_policy.SwitchStrategy` value (``"flush"``
    or ``"tag"``) for a §4.3 scenario."""

    source: SourceSpec
    snc_configs: tuple[SNCSpec, ...]
    scale: SimulationScale
    seed: int = 1
    strategy: str | None = None
    alt_l2: bool = False
    integrity: tuple[IntegrityModelSpec, ...] = ()

    def __post_init__(self) -> None:
        _check_pass(self.source, self.snc_configs, self.strategy,
                    self.alt_l2)

    @property
    def workload(self) -> str:
        """The display name run stats, progress lines and
        :func:`~repro.eval.scheduler.run_jobs` results use."""
        return _pass_name(self.source, self.strategy)

    def canonical(self) -> dict:
        """The configuration the hash covers: a figure pass by its
        ``workload`` and ``alt_l2``, a scenario by ``"kind":
        "scenario"``, its source and its strategy.  These two forms key
        every cached result and ``perfbench/pins.json``, so they must
        not change (``tests/eval/test_task_identity.py`` pins them)."""
        payload = {
            "snc": [spec.canonical() for spec in _by_key(self.snc_configs)],
            "integrity": [spec.canonical()
                          for spec in _by_key(self.integrity)],
            "scale": _scale_canonical(self.scale),
            "seed": self.seed,
        }
        if self.strategy is None:
            payload.update(workload=self.workload, alt_l2=self.alt_l2)
        else:
            payload.update(kind="scenario", source=self.source.canonical(),
                           strategy=self.strategy)
        return payload

    def config_hash(self) -> str:
        return _canonical_hash(self.canonical())

    def describe(self) -> str:
        scale = self.scale
        strategy = f"{self.strategy}, " if self.strategy else ""
        integrity = (
            f", {len(self.integrity)} integrity cfgs"
            if self.integrity else ""
        )
        return (
            f"{self.source.label} "
            f"[{strategy}{len(self.snc_configs)} SNC cfgs{integrity}, "
            f"{scale.warmup_refs}+{scale.measure_refs} refs, "
            f"seed {self.seed}]"
        )


def SimulationTask(workload: str, snc_configs: tuple[SNCSpec, ...],
                   scale: SimulationScale, seed: int = 1,
                   alt_l2: bool = False,
                   integrity: tuple[IntegrityModelSpec, ...] = (),
                   ) -> Task:
    """A figure pass over one benchmark."""
    return Task(source=SourceSpec.benchmark(workload),
                snc_configs=snc_configs, scale=scale, seed=seed,
                alt_l2=alt_l2, integrity=integrity)


def ScenarioTask(source: SourceSpec, snc_configs: tuple[SNCSpec, ...],
                 strategy: str, scale: SimulationScale, seed: int = 1,
                 integrity: tuple[IntegrityModelSpec, ...] = (),
                 ) -> Task:
    """A §4.3 scenario pass: ``source`` under a switch strategy."""
    if strategy is None:
        raise ConfigurationError("a scenario needs a switch strategy")
    return Task(source=source, snc_configs=snc_configs, scale=scale,
                seed=seed, strategy=strategy, integrity=integrity)


@dataclass(frozen=True)
class Job:
    """One table's requirement on one pass — the unit tables declare.

    ``table`` says who wants the result and ``schemes`` names the
    registered protection schemes whose pricers consume it; the other
    fields are a :class:`Task`'s.  Jobs sharing (``source``,
    ``strategy``, ``scale``, ``seed``) merge into one task
    (:func:`merge_jobs`)."""

    table: str
    schemes: tuple[str, ...]
    source: SourceSpec
    snc_configs: tuple[SNCSpec, ...]
    scale: SimulationScale
    seed: int = 1
    strategy: str | None = None
    alt_l2: bool = False
    integrity: tuple[IntegrityModelSpec, ...] = ()

    def __post_init__(self) -> None:
        for key in self.schemes:
            get_scheme(key)  # raises KeyError on an unregistered scheme
        _check_pass(self.source, self.snc_configs, self.strategy,
                    self.alt_l2)

    @property
    def workload(self) -> str:
        """The name the merged task's events are indexed under."""
        return _pass_name(self.source, self.strategy)


def merge_jobs(jobs: Iterable[Job]) -> list[Task]:
    """Fold table-level jobs into the minimal task list.

    Jobs on the same (source, strategy, scale, seed) merge into one task
    whose SNC and integrity sets are the unions of theirs — and whose
    alternate-L2 flag is the OR of theirs — so overlapping tables never
    re-simulate a trace, and nobody pays for the Figure 8 cache unless
    some figure prices it.  Task order follows first appearance, keeping
    the scheduler's result order deterministic.
    """
    snc: dict[tuple, dict[str, SNCSpec]] = {}
    integrity: dict[tuple, dict[str, IntegrityModelSpec]] = {}
    alt_l2: dict[tuple, bool] = {}
    for job in jobs:
        group = (job.source, job.strategy, job.scale, job.seed)
        _union_by_key(snc.setdefault(group, {}), job.snc_configs, "SNC")
        _union_by_key(integrity.setdefault(group, {}), job.integrity,
                      "integrity")
        alt_l2[group] = alt_l2.get(group, False) or job.alt_l2
    tasks = []
    for group, specs in snc.items():
        source, strategy, scale, seed = group
        tasks.append(Task(
            source=source, snc_configs=_by_key(specs.values()),
            scale=scale, seed=seed, strategy=strategy,
            alt_l2=alt_l2[group],
            integrity=_by_key(integrity[group].values()),
        ))
    return tasks


@dataclass(frozen=True)
class RecordTask:
    """Phase 1 of the engine: one (source, scale, seed) record
    pass whose event stream any number of replay tasks consume.

    Derived from tasks by :func:`record_task_for`;
    deliberately **omits** everything configuration-dependent — SNC
    geometries, schemes, integrity models, switch strategies, the
    alternate-L2 flag — because the recorded stream does not depend on
    them.  That is what lets a FLUSH task and a TAG task (or a figure-5
    task and a figure-6 task on new SNC keys) share one recording.
    Benchmark-source recordings always include the Figure 8 alternate
    L2's aggregate counts, so one recording per benchmark serves every
    figure.
    """

    source: SourceSpec
    scale: SimulationScale
    seed: int = 1

    @property
    def include_alt_l2(self) -> bool:
        return self.source.kind == "benchmark"

    def canonical(self) -> dict:
        return {
            "kind": "record",
            "source": self.source.canonical(),
            "scale": _scale_canonical(self.scale),
            "seed": self.seed,
            "l2": [L2_BASE_LINES, L2_BASE_ASSOC],
            "alt_l2": (
                [L2_BIG_LINES, L2_BIG_ASSOC] if self.include_alt_l2
                else None
            ),
        }

    def config_hash(self) -> str:
        return _canonical_hash(self.canonical())

    def describe(self) -> str:
        scale = self.scale
        return (
            f"{self.source.label} "
            f"[{scale.warmup_refs}+{scale.measure_refs} refs, "
            f"seed {self.seed}]"
        )


def record_task_for(task: Task) -> RecordTask:
    """The record pass a task's replay depends on (its phase 1 key)."""
    return RecordTask(source=task.source, scale=task.scale, seed=task.seed)


def execute_record(record_task: RecordTask) -> Recording:
    """Run one record pass (picklable: pool workers call it)."""
    return record_source(
        record_task.source.build(),
        scale=record_task.scale,
        seed=record_task.seed,
        include_alt_l2=record_task.include_alt_l2,
    )


#: One independently priced state machine of a task: ``("snc", key)``
#: for an SNC configuration, ``("integrity", key)`` for an integrity
#: model.  Lanes never interact during a replay — each consumes the
#: shared event columns on its own — which is what lets the scheduler
#: shard a batch pass by lane subsets without changing a single count.
Lane = tuple[str, str]


def task_lanes(task: Task) -> tuple[Lane, ...]:
    """A task's pricing lanes in canonical order: every SNC
    configuration (key-sorted, as the task stores them), then every
    integrity model.  This order is the contract sharding relies on —
    :func:`merge_shard_events` rebuilds the per-lane dicts in exactly
    this order so a merged result is byte-identical to an unsharded
    pass."""
    return (
        tuple(("snc", spec.key) for spec in task.snc_configs)
        + tuple(("integrity", spec.key) for spec in task.integrity)
    )


def total_lane_count(tasks: Sequence[Task]) -> int:
    """How many pricing lanes a task list carries in total — the upper
    bound on useful batch-mode parallelism (``--jobs auto`` sizes the
    pool with it)."""
    return sum(len(task.snc_configs) + len(task.integrity)
               for task in tasks)


def price_batch(tasks: Sequence[Task],
                recording: Recording,
                lanes: Sequence[Sequence[Lane] | None] | None = None,
                ) -> list[BenchmarkEvents]:
    """Phase 2: price many tasks of one recording as a single batch
    pass.  Every task's state machines are built from its specs and
    the union consumes the shared columns event-major
    (:func:`repro.timing.batch.replay_events_batch`); each task gets
    its events back in order — identical to pricing each task on its
    own.  Only a task's pricing fields are read (SNC and integrity
    specs, strategy, ``alt_l2``); the recording supplies the rest.

    ``lanes`` (parallel to ``tasks``) restricts each task to a lane
    subset — one shard of a lane-sharded pass; a ``None`` entry keeps
    every lane of that task.  A sharded task's events carry only its
    shard's ``snc``/``integrity`` counts; :func:`merge_shard_events`
    reassembles the full object from the shards."""
    if lanes is None:
        lanes = [None] * len(tasks)
    built = []
    for task, lane_subset in zip(tasks, lanes):
        if task.alt_l2 and recording.read_misses_big_l2 is None:
            raise ConfigurationError(
                f"{recording.name}: this recording carries no "
                "alternate-L2 counts — re-record with include_alt_l2=True"
            )
        picked = None if lane_subset is None else set(lane_subset)
        sims = {spec.key: spec.build_sim(task.strategy)
                for spec in task.snc_configs
                if picked is None or ("snc", spec.key) in picked}
        if task.strategy is not None:
            for sim in sims.values():
                sim.begin_task(recording.tasks[0].xom_id)
        models = {spec.key: spec.build_model()
                  for spec in task.integrity
                  if picked is None or ("integrity", spec.key) in picked}
        built.append((sims, models))
    replay_events_batch(
        [sim for sims, _models in built for sim in sims.values()],
        [model for _sims, models in built for model in models.values()],
        recording.kinds, recording.lines, recording.aux,
    )
    return [_task_events(task, recording, sims, models)
            for task, (sims, models) in zip(tasks, built)]


def _task_events(task: Task, recording: Recording, sims: dict,
                 models: dict) -> BenchmarkEvents:
    """One task's :class:`BenchmarkEvents`: its priced state machines
    plus the recorded aggregates.  A figure pass calibrates compute
    from its one task's Figure 3 anchor; a scenario calibrates per
    task, summed, and keeps the per-task load-miss split."""
    tasks = recording.tasks
    read_misses = recording.read_misses
    task_read_misses = None
    if task.strategy is None:
        target = tasks[0].xom_slowdown_pct
        compute = calibrate_compute_cycles(read_misses, target)
    else:
        misses = recording.task_read_misses
        compute = sum(
            calibrate_compute_cycles(misses[t.xom_id], t.xom_slowdown_pct)
            for t in tasks if misses[t.xom_id]
        )
        if len(tasks) == 1:
            target = tasks[0].xom_slowdown_pct
        else:
            target = sum(t.xom_slowdown_pct * misses[t.xom_id]
                         for t in tasks) / read_misses
        task_read_misses = {f"{t.xom_id}:{t.label}": misses[t.xom_id]
                            for t in tasks}
    return BenchmarkEvents(
        name=recording.name,
        xom_slowdown_target=target,
        read_misses=read_misses,
        allocate_misses=recording.allocate_misses,
        writebacks=recording.writebacks,
        read_misses_big_l2=(
            recording.read_misses_big_l2 if task.alt_l2 else None
        ),
        allocate_misses_big_l2=(
            recording.allocate_misses_big_l2 if task.alt_l2 else None
        ),
        compute_cycles=compute,
        snc={key: sim.counts for key, sim in sims.items()},
        integrity={key: model.counts for key, model in models.items()},
        task_read_misses=task_read_misses,
    )


def merge_shard_events(task: Task,
                       partials: Sequence[BenchmarkEvents],
                       ) -> BenchmarkEvents:
    """Reassemble one task's events from the lane-shard partials of a
    sharded batch pass.

    Each partial priced a disjoint lane subset of ``task`` over the
    same recording, so every non-lane field (miss counts, compute
    cycles, per-task splits) derives from the recording alone and is
    identical across partials; only the ``snc`` / ``integrity`` dicts
    differ.  They are unioned and rebuilt in the task's canonical lane
    order (:func:`task_lanes`), making the merged object — including
    dict iteration order, which the result cache's serialization
    preserves — byte-identical to an unsharded pass.  A lane missing
    from every partial raises ``KeyError``: shards must cover the task
    exactly."""
    merged = partials[0]
    snc: dict = {}
    integrity: dict = {}
    for events in partials:
        snc.update(events.snc)
        integrity.update(events.integrity)
    merged.snc = {spec.key: snc[spec.key] for spec in task.snc_configs}
    merged.integrity = {spec.key: integrity[spec.key]
                        for spec in task.integrity}
    return merged


def task_to_wire(task: Task) -> dict:
    """Serialize a task to the serve protocol's JSON wire form.

    The inverse of :func:`task_from_wire`:
    ``task_from_wire(json.loads(json.dumps(task_to_wire(task))))``
    rebuilds an equal task, so a client-shipped task hashes (and so
    caches) exactly like the local one.  ``kind`` is ``"simulation"``
    for a figure pass (named by its ``workload``, with its ``alt_l2``
    flag) and ``"scenario"`` for a switch-strategy pass (its ``source``
    and ``strategy``); specs travel as their dataclass field dicts; the
    scale is a ``[warmup_refs, measure_refs]`` pair.
    """
    wire: dict = {
        "snc": [asdict(spec) for spec in task.snc_configs],
        "integrity": [asdict(spec) for spec in task.integrity],
        "scale": _scale_canonical(task.scale),
        "seed": task.seed,
    }
    if task.strategy is None:
        wire.update(kind="simulation", workload=task.workload,
                    alt_l2=task.alt_l2)
    else:
        wire.update(kind="scenario", source=asdict(task.source),
                    strategy=task.strategy)
    return wire


def task_from_wire(wire: object) -> Task:
    """Rebuild a task from its JSON wire form, validating as it goes.

    Every malformed payload — wrong shape, unknown ``kind``, unknown
    workload/scheme/provider, bad field types — raises
    :class:`~repro.errors.ConfigurationError` with a message naming
    the problem, so the serve daemon can answer a bad ``submit`` with
    one error frame instead of dying.
    """
    try:
        if not isinstance(wire, dict):
            raise ConfigurationError(
                f"task payload must be a JSON object, got "
                f"{type(wire).__name__}"
            )
        warmup, measure = wire["scale"]
        common = dict(
            snc_configs=tuple(SNCSpec(**dict(spec))
                              for spec in wire.get("snc", ())),
            scale=SimulationScale(warmup_refs=int(warmup),
                                  measure_refs=int(measure)),
            seed=int(wire.get("seed", 1)),
            integrity=tuple(IntegrityModelSpec(**dict(spec))
                            for spec in wire.get("integrity", ())),
        )
        kind = wire.get("kind")
        if kind == "scenario":
            fields = dict(wire["source"])
            fields["workloads"] = tuple(fields.get("workloads", ()))
            return ScenarioTask(source=SourceSpec(**fields),
                                strategy=wire["strategy"], **common)
        if kind == "simulation":
            return SimulationTask(workload=wire["workload"],
                                  alt_l2=bool(wire.get("alt_l2", False)),
                                  **common)
        raise ConfigurationError(
            f"unknown task kind {kind!r} (simulation, scenario)"
        )
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigurationError(
            f"malformed task payload: {err}"
        ) from err
