"""The stable public surface of the evaluation harness.

Everything a benchmark, example, or downstream script needs lives here
under one import::

    from repro.eval.api import plan_jobs, run_jobs, figure5, format_figure

    events = run_jobs(plan_jobs(["figure5"]), n_jobs=4)
    print(format_figure(figure5(events)))

The modules behind this facade (:mod:`~repro.eval.experiments`,
:mod:`~repro.eval.jobs`, :mod:`~repro.eval.scheduler`, ...) are
internals: their layout moves when the engine does.  What the facade
promises:

**Recording** (phase 1 of the replay engine)
    :func:`record` turns one (source, scale, seed) into a
    :class:`Recording` of typed event columns; :class:`RecordTask` /
    :func:`record_task_for` name the pass a task depends on, and
    :class:`TraceStore` persists the wire form across runs.

**Pricing** (phase 2)
    :func:`price_batch` prices any number of tasks over one
    :class:`Recording` in a single event-major pass — the one pricing
    call, which the scheduler uses too.

**Running experiments**
    One task family: a :class:`Task` is one trace pass — a figure pass
    over a benchmark (:func:`SimulationTask`) or a §4.3 scenario under
    a switch strategy (:func:`ScenarioTask`).  Tables declare
    :class:`Job` lists — :func:`plan_jobs` (figures), :func:`scenario_jobs`
    (switch strategies), :func:`integrity_jobs` (memory integrity) —
    and :func:`merge_jobs` folds any mix into the minimal task list.
    There are two run calls, and both take ``n_jobs=``, ``cache=`` and
    ``trace_store=``: :func:`run_jobs` (jobs -> ``{task.workload:
    events}``, what the ``figureN`` drivers and the table formatters
    consume) and :func:`run_tasks` (tasks -> :class:`TaskResult` list,
    in task order, for callers that want run stats).

**The execution engine**
    Parallel runs (``n_jobs > 1``) reuse the process-wide warm
    :class:`WorkerPool` (:func:`get_worker_pool` /
    :func:`shutdown_worker_pool`) with shared-memory recording
    shipping.  :func:`pool_stats` exposes the engine's counters and
    :func:`format_pool_stats` renders them as the runner's summary
    line.  When recordings alone cannot fill the workers, batch passes
    are lane-sharded across them (:func:`plan_lane_shards` plans the
    split, :func:`merge_shard_events` reassembles each task).  All of
    it is byte-identical to ``n_jobs=1``.

**Serving**
    :class:`EvalServer` is the evaluation service daemon
    (``python -m repro.eval serve``): one warm pool + caches + a
    hot-result LRU behind a newline-delimited JSON socket protocol,
    with cross-client single-flight task dedupe.  :class:`EvalClient`
    is the blocking client the runner's ``--server`` uses
    (:func:`task_to_wire` / :func:`task_from_wire` are the task wire
    form); :func:`start_server_thread` hosts a daemon on a background
    thread for tests and embedders.  Tables rendered from a server run
    are byte-identical to local ones — see ``docs/serve.md``.

**Formatting**
    :func:`format_figure`, :func:`format_summary`,
    :func:`format_scenario_table`, :func:`format_integrity_table`,
    :func:`format_run_stats`, :func:`format_trace_stats`; plus
    :func:`events_to_dict` / :func:`events_from_dict`, the result
    cache's JSON wire form — the canonical byte-parity fingerprint the
    benchmarks and parity tests serialize events through.
"""

from __future__ import annotations

from repro.eval.cache import (
    ResultCache,
    default_cache_dir,
    events_from_dict,
    events_to_dict,
)
from repro.eval.experiments import (
    ALL_FIGURES,
    FIGURES_BY_ID,
    FigureResult,
    INTEGRITY_NODE_CACHE_SIZES,
    INTEGRITY_SNC_KEY,
    INTEGRITY_WORKLOADS,
    PAPER_LATENCIES,
    SCENARIO_SCHEMES,
    SCENARIO_STRATEGIES,
    SLOW_CRYPTO_LATENCIES,
    Series,
    figure3,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    integrity_jobs,
    integrity_slowdowns,
    integrity_table_keys,
    plan_jobs,
    scenario_jobs,
    scenario_slowdowns,
    scenario_snc_specs,
    scheme_config_key,
)
from repro.eval.client import (
    DEFAULT_PORT,
    EvalClient,
    PROTOCOL_VERSION,
    ServerError,
    parse_address,
)
from repro.eval.jobs import (
    IntegrityModelSpec,
    Job,
    RecordTask,
    ScenarioTask,
    SNCSpec,
    SimulationTask,
    SourceSpec,
    Task,
    execute_record as record,
    merge_jobs,
    merge_shard_events,
    price_batch,
    record_task_for,
    standard_snc_specs,
    task_from_wire,
    task_lanes,
    task_to_wire,
    total_lane_count,
)
from repro.eval.pipeline import (
    BenchmarkEvents,
    QUICK_SCALE,
    SimulationScale,
    standard_snc_configs,
)
from repro.eval.pool import (
    PoolStats,
    WorkerPool,
    get_worker_pool,
    pool_stats,
    pool_stats_dict,
    pool_worker_pids,
    reset_pool_stats,
    shutdown_worker_pool,
)
from repro.eval.record import Recording, record_source
from repro.eval.report import (
    format_client_stats,
    format_figure,
    format_integrity_table,
    format_pool_stats,
    format_run_stats,
    format_scenario_table,
    format_server_stats,
    format_summary,
    format_trace_stats,
)
from repro.eval.scheduler import (
    TaskResult,
    auto_jobs,
    plan_lane_shards,
    run_jobs,
    run_tasks,
)
from repro.eval.server import (
    EvalServer,
    ServeStats,
    ServerHandle,
    start_server_thread,
)
from repro.eval.trace_store import TraceStore, default_trace_dir
from repro.eval.runner import parse_scale


__all__ = [
    "ALL_FIGURES",
    "BenchmarkEvents",
    "DEFAULT_PORT",
    "EvalClient",
    "EvalServer",
    "FIGURES_BY_ID",
    "FigureResult",
    "INTEGRITY_NODE_CACHE_SIZES",
    "INTEGRITY_SNC_KEY",
    "INTEGRITY_WORKLOADS",
    "IntegrityModelSpec",
    "Job",
    "PAPER_LATENCIES",
    "PROTOCOL_VERSION",
    "PoolStats",
    "QUICK_SCALE",
    "RecordTask",
    "Recording",
    "ResultCache",
    "SCENARIO_SCHEMES",
    "SCENARIO_STRATEGIES",
    "SLOW_CRYPTO_LATENCIES",
    "SNCSpec",
    "ScenarioTask",
    "Series",
    "ServeStats",
    "ServerError",
    "ServerHandle",
    "SimulationScale",
    "SimulationTask",
    "SourceSpec",
    "Task",
    "TaskResult",
    "TraceStore",
    "WorkerPool",
    "auto_jobs",
    "default_cache_dir",
    "default_trace_dir",
    "events_from_dict",
    "events_to_dict",
    "figure3",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "format_client_stats",
    "format_figure",
    "format_integrity_table",
    "format_pool_stats",
    "format_run_stats",
    "format_scenario_table",
    "format_server_stats",
    "format_summary",
    "format_trace_stats",
    "get_worker_pool",
    "integrity_jobs",
    "integrity_slowdowns",
    "integrity_table_keys",
    "merge_jobs",
    "merge_shard_events",
    "parse_address",
    "parse_scale",
    "plan_jobs",
    "plan_lane_shards",
    "pool_stats",
    "pool_stats_dict",
    "pool_worker_pids",
    "price_batch",
    "record",
    "record_source",
    "record_task_for",
    "reset_pool_stats",
    "run_jobs",
    "run_tasks",
    "scenario_jobs",
    "scenario_slowdowns",
    "scenario_snc_specs",
    "scheme_config_key",
    "shutdown_worker_pool",
    "standard_snc_configs",
    "standard_snc_specs",
    "start_server_thread",
    "task_from_wire",
    "task_lanes",
    "task_to_wire",
    "total_lane_count",
]
