"""Schedulable units of the evaluation: the experiment job graph.

The paper's evaluation is a sweep of independent trace simulations — every
figure prices the same kind of per-benchmark event sets under different
SNC geometries and latencies.  This module turns that sweep into explicit
data:

* :class:`ExperimentJob` — what one *figure* needs from one *workload*:
  the registered protection schemes being priced
  (:mod:`repro.secure.schemes`), the SNC configurations that must be
  simulated, the integrity configurations riding the same pass
  (:class:`IntegrityModelSpec`, resolving through the
  :mod:`repro.secure.integrity` registry; figure jobs declare none, as
  in the paper), whether the Figure 8 alternate L2 is priced, the trace
  scale and the workload seed.  Figures declare jobs
  (:func:`repro.eval.experiments.figure_jobs`); they never loop inline.
* :class:`SimulationTask` — what actually runs: one trace pass over one
  workload, feeding the union of every SNC configuration any selected
  figure asked for (and the alternate L2 only if some figure prices it).
  :func:`merge_jobs` folds a job list into the minimal task list, so
  requesting all seven figures still simulates each benchmark exactly
  once.
* :class:`ScenarioJob` / :class:`ScenarioTask` — the same two-level shape
  for multi-programmed §4.3 scenarios: a :class:`SourceSpec` names the
  workload source (a benchmark, a trace file, or a multi-task interleave
  with its quantum), a switch strategy picks FLUSH or TAG, and
  :func:`merge_scenario_jobs` unions SNC requirements exactly like
  :func:`merge_jobs`.  The scheduler and result cache treat both task
  kinds identically.
* :class:`RecordTask` — phase 1: the configuration-independent record
  pass a task's pricing depends on (:func:`record_task_for` derives it;
  :func:`execute_record` runs it; :func:`price_batch` is phase 2).
  Tasks that differ only in SNC geometry, scheme, integrity, switch
  strategy or the alternate-L2 flag map to the *same* record task —
  that sharing is the engine's speedup.

All are frozen, hashable and picklable, so tasks can fan out across
processes (:mod:`repro.eval.scheduler`) and key an on-disk result store
(:mod:`repro.eval.cache`).  Identity is *content-based*:
:meth:`SimulationTask.config_hash` is a SHA-256 over the canonical JSON of
the full configuration, stable across processes and interpreter runs
(unlike ``hash()``, which is salted per process for strings); a trace
source hashes its file's *contents*, so editing a trace invalidates its
cached results.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
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
from repro.eval.record import (
    Recording,
    ReplayRequest,
    record_source,
)
from repro.secure.integrity import IntegrityConfig, get_integrity
from repro.secure.schemes import get_scheme
from repro.secure.snc import SNCConfig, SNCPolicy
from repro.secure.snc_policy import SwitchStrategy
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

    def canonical(self) -> list:
        return [self.key, self.provider, self.n_lines,
                self.node_cache_entries, self.tag_bytes]


def _merge_integrity(target: dict[str, IntegrityModelSpec],
                     specs: tuple[IntegrityModelSpec, ...],
                     context: str) -> None:
    """Union integrity specs by pricing key, rejecting conflicts —
    the same discipline :func:`merge_jobs` applies to SNC specs."""
    for spec in specs:
        existing = target.get(spec.key)
        if existing is not None and existing != spec:
            raise ValueError(
                f"integrity key {spec.key!r} bound to two different "
                f"configurations in one {context}"
            )
        target[spec.key] = spec


def _canonical_hash(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _scale_canonical(scale: SimulationScale) -> list[int]:
    return [scale.warmup_refs, scale.measure_refs]


@dataclass(frozen=True)
class ExperimentJob:
    """One figure's requirement on one workload — the unit figures declare.

    ``figure`` says who wants the result; ``schemes`` names the registered
    protection schemes whose pricers will consume it (validated against
    the registry); ``workload``, ``snc_configs``, ``alt_l2``, ``scale``
    and ``seed`` pin down the simulation itself.  Jobs on the same
    (workload, scale, seed) share one :class:`SimulationTask` whose SNC
    set is the union of theirs (:func:`merge_jobs`).
    """

    figure: str
    schemes: tuple[str, ...]  # registered scheme keys being priced
    workload: str
    snc_configs: tuple[SNCSpec, ...]
    scale: SimulationScale
    seed: int = 1
    alt_l2: bool = False  # does this figure price the Figure 8 384KB L2?
    #: Integrity configurations this figure prices; empty (the paper's
    #: own configuration) for every figure job, so the seven tables are
    #: untouched by the axis.
    integrity: tuple[IntegrityModelSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.workload not in BY_NAME:
            raise KeyError(f"unknown workload {self.workload!r}")
        for key in self.schemes:
            get_scheme(key)  # raises KeyError on an unregistered scheme
        for spec in self.snc_configs:
            get_scheme(spec.scheme)

    def canonical(self) -> dict:
        return {
            "figure": self.figure,
            "schemes": sorted(self.schemes),
            "workload": self.workload,
            "snc": [spec.canonical() for spec in
                    sorted(self.snc_configs, key=lambda spec: spec.key)],
            "integrity": [spec.canonical() for spec in
                          sorted(self.integrity,
                                 key=lambda spec: spec.key)],
            "scale": _scale_canonical(self.scale),
            "seed": self.seed,
            "alt_l2": self.alt_l2,
        }

    def config_hash(self) -> str:
        """Stable across processes and runs — safe as a cache-key input."""
        return _canonical_hash(self.canonical())


@dataclass(frozen=True)
class SimulationTask:
    """One trace pass over one workload — the unit the scheduler runs."""

    workload: str
    snc_configs: tuple[SNCSpec, ...]
    scale: SimulationScale
    seed: int = 1
    alt_l2: bool = False
    integrity: tuple[IntegrityModelSpec, ...] = ()

    def canonical(self) -> dict:
        return {
            "workload": self.workload,
            "snc": [spec.canonical() for spec in
                    sorted(self.snc_configs, key=lambda spec: spec.key)],
            "integrity": [spec.canonical() for spec in
                          sorted(self.integrity,
                                 key=lambda spec: spec.key)],
            "scale": _scale_canonical(self.scale),
            "seed": self.seed,
            "alt_l2": self.alt_l2,
        }

    def config_hash(self) -> str:
        return _canonical_hash(self.canonical())

    def describe(self) -> str:
        scale = self.scale
        integrity = (
            f", {len(self.integrity)} integrity cfgs"
            if self.integrity else ""
        )
        return (
            f"{self.workload} "
            f"[{len(self.snc_configs)} SNC cfgs{integrity}, "
            f"{scale.warmup_refs}+{scale.measure_refs} refs, "
            f"seed {self.seed}]"
        )


def merge_jobs(jobs: list[ExperimentJob]) -> list[SimulationTask]:
    """Fold figure-level jobs into the minimal simulation task list.

    Jobs on the same (workload, scale, seed) merge into one task whose SNC
    set is the union of their requirements — and whose alternate-L2 flag
    is the OR of theirs — so overlapping figures never re-simulate a
    trace, and nobody pays for the Figure 8 cache unless some figure
    prices it.  Task order follows first appearance, keeping the
    scheduler's result order deterministic.
    """
    grouped: dict[tuple, dict[str, SNCSpec]] = {}
    integrity: dict[tuple, dict[str, IntegrityModelSpec]] = {}
    alt_l2: dict[tuple, bool] = {}
    for job in jobs:
        group = (job.workload, job.scale, job.seed)
        specs = grouped.setdefault(group, {})
        alt_l2[group] = alt_l2.get(group, False) or job.alt_l2
        _merge_integrity(integrity.setdefault(group, {}), job.integrity,
                         "job set")
        for spec in job.snc_configs:
            existing = specs.get(spec.key)
            if existing is not None and existing != spec:
                raise ValueError(
                    f"SNC key {spec.key!r} bound to two different "
                    f"geometries in one job set"
                )
            specs[spec.key] = spec
    return [
        SimulationTask(
            workload=workload,
            snc_configs=tuple(sorted(specs.values(),
                                     key=lambda spec: spec.key)),
            scale=scale,
            seed=seed,
            alt_l2=alt_l2[(workload, scale, seed)],
            integrity=tuple(sorted(
                integrity[(workload, scale, seed)].values(),
                key=lambda spec: spec.key,
            )),
        )
        for (workload, scale, seed), specs in grouped.items()
    ]


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


@dataclass(frozen=True)
class ScenarioJob:
    """One scenario table's requirement on one workload source.

    The scenario analogue of :class:`ExperimentJob`: ``scenario`` says
    who wants the result, ``schemes`` names the registered schemes whose
    pricers will consume it, and (``source``, ``strategy``, ``scale``,
    ``seed``) pin down the simulation.  Jobs sharing those four merge
    into one :class:`ScenarioTask` (:func:`merge_scenario_jobs`).
    """

    scenario: str
    schemes: tuple[str, ...]
    source: SourceSpec
    snc_configs: tuple[SNCSpec, ...]
    strategy: str  # SwitchStrategy value: "flush" | "tag"
    scale: SimulationScale
    seed: int = 1
    integrity: tuple[IntegrityModelSpec, ...] = ()

    def __post_init__(self) -> None:
        SwitchStrategy(self.strategy)  # raises ValueError on a bad name
        for key in self.schemes:
            get_scheme(key)
        for spec in self.snc_configs:
            get_scheme(spec.scheme)

    def canonical(self) -> dict:
        return {
            "scenario": self.scenario,
            "schemes": sorted(self.schemes),
            "source": self.source.canonical(),
            "snc": [spec.canonical() for spec in
                    sorted(self.snc_configs, key=lambda spec: spec.key)],
            "integrity": [spec.canonical() for spec in
                          sorted(self.integrity,
                                 key=lambda spec: spec.key)],
            "strategy": self.strategy,
            "scale": _scale_canonical(self.scale),
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        return _canonical_hash(self.canonical())


@dataclass(frozen=True)
class ScenarioTask:
    """One scenario trace pass — scheduled and cached like a
    :class:`SimulationTask`."""

    source: SourceSpec
    snc_configs: tuple[SNCSpec, ...]
    strategy: str
    scale: SimulationScale
    seed: int = 1
    integrity: tuple[IntegrityModelSpec, ...] = ()

    @property
    def workload(self) -> str:
        """The display name run stats and progress lines use."""
        return f"{self.source.label}/{self.strategy}"

    def canonical(self) -> dict:
        return {
            "kind": "scenario",
            "source": self.source.canonical(),
            "snc": [spec.canonical() for spec in
                    sorted(self.snc_configs, key=lambda spec: spec.key)],
            "integrity": [spec.canonical() for spec in
                          sorted(self.integrity,
                                 key=lambda spec: spec.key)],
            "strategy": self.strategy,
            "scale": _scale_canonical(self.scale),
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        return _canonical_hash(self.canonical())

    def describe(self) -> str:
        scale = self.scale
        return (
            f"{self.source.label} "
            f"[{self.strategy}, {len(self.snc_configs)} SNC cfgs, "
            f"{scale.warmup_refs}+{scale.measure_refs} refs, "
            f"seed {self.seed}]"
        )


#: What the scheduler runs and the result cache keys: either task kind.
AnyTask = SimulationTask | ScenarioTask


@dataclass(frozen=True)
class RecordTask:
    """Phase 1 of the engine: one (source, scale, seed) record
    pass whose event stream any number of replay tasks consume.

    Derived from simulation/scenario tasks by :func:`record_task_for`;
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


def record_task_for(task: AnyTask) -> RecordTask:
    """The record pass a task's replay depends on (its phase 1 key)."""
    if isinstance(task, ScenarioTask):
        source = task.source
    else:
        source = SourceSpec(kind="benchmark", workloads=(task.workload,))
    return RecordTask(source=source, scale=task.scale, seed=task.seed)


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


def task_lanes(task: AnyTask) -> tuple[Lane, ...]:
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


def total_lane_count(tasks: Sequence[AnyTask]) -> int:
    """How many pricing lanes a task list carries in total — the upper
    bound on useful batch-mode parallelism (``--jobs auto`` sizes the
    pool with it)."""
    return sum(len(task.snc_configs) + len(task.integrity)
               for task in tasks)


def replay_request_for(task: AnyTask,
                       lanes: Sequence[Lane] | None = None,
                       ) -> ReplayRequest:
    """A task's replay-side configuration as the request object
    :meth:`~repro.eval.record.Recording.replay_batch` consumes — the
    phase 2 twin of :func:`_task_configs`.  ``lanes`` restricts the
    request to a subset of the task's lanes (a shard of a sharded batch
    pass); ``None`` means all of them."""
    configs = _task_configs(task, lanes=lanes)
    if isinstance(task, ScenarioTask):
        return ReplayRequest(
            strategy=SwitchStrategy(task.strategy), **configs
        )
    return ReplayRequest(alt_l2=task.alt_l2, **configs)


def price_batch(tasks: Sequence[AnyTask],
                recording: Recording,
                lanes: Sequence[Sequence[Lane] | None] | None = None,
                ) -> list[BenchmarkEvents]:
    """Run many tasks of one recording as a single batch-priced pass:
    the union of every task's state machines consumes the shared
    columns event-major (:meth:`~repro.eval.record.Recording.
    replay_batch`), and each task gets its events back in order —
    identical to pricing each task on its own.

    ``lanes`` (parallel to ``tasks``) restricts each task to a lane
    subset — one shard of a lane-sharded pass; a ``None`` entry keeps
    every lane of that task.  A sharded task's events carry only its
    shard's ``snc``/``integrity`` counts; :func:`merge_shard_events`
    reassembles the full object from the shards."""
    if lanes is None:
        lanes = [None] * len(tasks)
    requests = [replay_request_for(task, lanes=lane_subset)
                for task, lane_subset in zip(tasks, lanes)]
    return recording.replay_batch(requests)


def merge_shard_events(task: AnyTask,
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


def merge_scenario_jobs(jobs: list[ScenarioJob]) -> list[ScenarioTask]:
    """Fold scenario jobs into the minimal task list, like
    :func:`merge_jobs`: jobs sharing (source, strategy, scale, seed)
    merge into one task whose SNC set is the union of theirs."""
    grouped: dict[tuple, dict[str, SNCSpec]] = {}
    integrity: dict[tuple, dict[str, IntegrityModelSpec]] = {}
    for job in jobs:
        group = (job.source, job.strategy, job.scale, job.seed)
        specs = grouped.setdefault(group, {})
        _merge_integrity(integrity.setdefault(group, {}), job.integrity,
                         "scenario job set")
        for spec in job.snc_configs:
            existing = specs.get(spec.key)
            if existing is not None and existing != spec:
                raise ValueError(
                    f"SNC key {spec.key!r} bound to two different "
                    f"geometries in one scenario job set"
                )
            specs[spec.key] = spec
    return [
        ScenarioTask(
            source=source,
            snc_configs=tuple(sorted(specs.values(),
                                     key=lambda spec: spec.key)),
            strategy=strategy,
            scale=scale,
            seed=seed,
            integrity=tuple(sorted(
                integrity[(source, strategy, scale, seed)].values(),
                key=lambda spec: spec.key,
            )),
        )
        for (source, strategy, scale, seed), specs in grouped.items()
    ]


def _task_configs(task: AnyTask,
                  lanes: Sequence[Lane] | None = None) -> dict:
    """A task's spec tuples as the keyword mapping a
    :class:`~repro.eval.record.ReplayRequest` takes.  ``lanes``
    keeps only the named subset of the task's lanes (a shard of a
    sharded batch pass); filtering preserves the canonical key-sorted
    spec order, so a shard's dicts iterate exactly like the matching
    slice of the full task's."""
    snc_specs = task.snc_configs
    integrity_specs = task.integrity
    if lanes is not None:
        picked = set(lanes)
        snc_specs = tuple(spec for spec in snc_specs
                          if ("snc", spec.key) in picked)
        integrity_specs = tuple(spec for spec in integrity_specs
                                if ("integrity", spec.key) in picked)
    return {
        "snc_configs": {spec.key: spec.to_config()
                        for spec in snc_specs},
        "snc_schemes": {spec.key: spec.scheme
                        for spec in snc_specs},
        "integrity_configs": {spec.key: spec.to_config()
                              for spec in integrity_specs},
        "integrity_providers": {spec.key: spec.provider
                                for spec in integrity_specs},
    }


def task_to_wire(task: AnyTask) -> dict:
    """Serialize a task to the serve protocol's JSON wire form.

    The inverse of :func:`task_from_wire`:
    ``task_from_wire(json.loads(json.dumps(task_to_wire(task))))``
    rebuilds an equal task, so a client-shipped task hashes (and so
    caches) exactly like the local one.  ``kind`` selects the task
    class; specs travel as their dataclass field dicts; the scale is a
    ``[warmup_refs, measure_refs]`` pair.
    """
    wire: dict = {
        "snc": [asdict(spec) for spec in task.snc_configs],
        "integrity": [asdict(spec) for spec in task.integrity],
        "scale": _scale_canonical(task.scale),
        "seed": task.seed,
    }
    if isinstance(task, ScenarioTask):
        wire["kind"] = "scenario"
        wire["source"] = asdict(task.source)
        wire["strategy"] = task.strategy
    else:
        wire["kind"] = "simulation"
        wire["workload"] = task.workload
        wire["alt_l2"] = task.alt_l2
    return wire


def task_from_wire(wire: object) -> AnyTask:
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
        kind = wire.get("kind")
        snc = tuple(SNCSpec(**dict(spec)) for spec in wire.get("snc", ()))
        for spec in snc:
            get_scheme(spec.scheme)  # KeyError on unregistered scheme
        integrity = tuple(IntegrityModelSpec(**dict(spec))
                          for spec in wire.get("integrity", ()))
        warmup, measure = wire["scale"]
        scale = SimulationScale(warmup_refs=int(warmup),
                                measure_refs=int(measure))
        seed = int(wire.get("seed", 1))
        if kind == "scenario":
            fields = dict(wire["source"])
            fields["workloads"] = tuple(fields.get("workloads", ()))
            strategy = wire["strategy"]
            SwitchStrategy(strategy)  # ValueError on a bad name
            return ScenarioTask(
                source=SourceSpec(**fields),
                snc_configs=snc,
                strategy=strategy,
                scale=scale,
                seed=seed,
                integrity=integrity,
            )
        if kind == "simulation":
            workload = wire["workload"]
            if workload not in BY_NAME:
                raise KeyError(f"unknown workload {workload!r}")
            return SimulationTask(
                workload=workload,
                snc_configs=snc,
                scale=scale,
                seed=seed,
                alt_l2=bool(wire.get("alt_l2", False)),
                integrity=integrity,
            )
        raise ConfigurationError(
            f"unknown task kind {kind!r} (simulation, scenario)"
        )
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigurationError(
            f"malformed task payload: {err}"
        ) from err
