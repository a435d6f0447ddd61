"""The stable public surface of the evaluation harness.

Everything a benchmark, example, or downstream script needs lives here
under one import::

    from repro.eval.api import run_figures, format_figure

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
    ``recording.replay_batch(...)`` prices many :class:`ReplayRequest`
    sets in a single event-major pass; :func:`price_batch` is the
    task-level spelling the scheduler uses.

**Running experiments**
    :func:`run_figures` (figures by number), :func:`run_scenarios` /
    :func:`run_scenario_tasks` (§4.3 switch strategies),
    :func:`run_integrity_sweep` (memory integrity),
    :func:`run_all_benchmarks` / :func:`run_everything`, and the
    lower-level :func:`run_tasks` / :func:`run_jobs`.  All take
    ``n_jobs=``, ``cache=`` and ``trace_store=``.

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
    index_scenario_results,
    integrity_slowdowns,
    integrity_table_keys,
    plan_jobs,
    run_all_benchmarks,
    run_everything,
    run_integrity_sweep,
    run_scenario_tasks,
    run_scenarios,
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
    AnyTask,
    ExperimentJob,
    IntegrityModelSpec,
    RecordTask,
    ScenarioJob,
    ScenarioTask,
    SNCSpec,
    SimulationTask,
    SourceSpec,
    execute_record as record,
    merge_jobs,
    merge_scenario_jobs,
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
from repro.eval.record import (
    Recording,
    ReplayRequest,
    record_source,
)
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


def run_figures(figure_ids=None, *, scale: SimulationScale | None = None,
                seed: int = 1, n_jobs: int = 1,
                cache: ResultCache | None = None,
                progress=None,
                trace_store: TraceStore | None = None,
                ) -> list[FigureResult]:
    """Simulate and price the selected figures (default: all seven).

    The one-call spelling of what ``python -m repro.eval`` does:
    declare the figures' jobs, record and price them, and return
    one :class:`FigureResult` per requested figure, in request order.
    ``figure_ids`` accepts ``"figure5"`` / ``"5"`` / ``5`` spellings.
    """
    if figure_ids is None:
        names = list(FIGURES_BY_ID)
    else:
        names = []
        for figure_id in figure_ids:
            name = str(figure_id)
            if not name.startswith("figure"):
                name = f"figure{name}"
            if name not in FIGURES_BY_ID:
                known = ", ".join(sorted(FIGURES_BY_ID))
                raise KeyError(
                    f"unknown figure {figure_id!r} (known: {known})"
                )
            names.append(name)
    events = run_jobs(plan_jobs(names, scale=scale, seed=seed),
                      n_jobs=n_jobs, cache=cache, progress=progress,
                      trace_store=trace_store)
    return [FIGURES_BY_ID[name](events) for name in names]


__all__ = [
    "ALL_FIGURES",
    "AnyTask",
    "BenchmarkEvents",
    "DEFAULT_PORT",
    "EvalClient",
    "EvalServer",
    "ExperimentJob",
    "FIGURES_BY_ID",
    "FigureResult",
    "INTEGRITY_NODE_CACHE_SIZES",
    "INTEGRITY_SNC_KEY",
    "INTEGRITY_WORKLOADS",
    "IntegrityModelSpec",
    "PAPER_LATENCIES",
    "PROTOCOL_VERSION",
    "PoolStats",
    "QUICK_SCALE",
    "RecordTask",
    "Recording",
    "ReplayRequest",
    "ResultCache",
    "SCENARIO_SCHEMES",
    "SCENARIO_STRATEGIES",
    "SLOW_CRYPTO_LATENCIES",
    "SNCSpec",
    "ScenarioJob",
    "ScenarioTask",
    "Series",
    "ServeStats",
    "ServerError",
    "ServerHandle",
    "SimulationScale",
    "SimulationTask",
    "SourceSpec",
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
    "index_scenario_results",
    "integrity_slowdowns",
    "integrity_table_keys",
    "merge_jobs",
    "merge_scenario_jobs",
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
    "run_all_benchmarks",
    "run_everything",
    "run_figures",
    "run_integrity_sweep",
    "run_jobs",
    "run_scenario_tasks",
    "run_scenarios",
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
