"""Plain-text reporting: the same rows the paper's figures print.

``format_figure`` renders one reproduced figure as a paper-vs-measured
table; ``format_summary`` prints the headline averages;
``format_run_stats`` summarizes one scheduler pass (simulated vs cached,
where the time went); and ``format_scenario_table`` renders the §4.3
FLUSH-vs-TAG strategy table.  These are what ``pytest benchmarks/
--benchmark-only``, ``python -m repro.eval`` and the examples show.
"""

from __future__ import annotations

from repro.eval.experiments import (
    FigureResult,
    INTEGRITY_SNC_KEY,
    SCENARIO_SCHEMES,
    integrity_slowdowns,
    integrity_table_keys,
    scenario_slowdowns,
    scheme_config_key,
)
from repro.eval.paper_data import BENCHMARK_ORDER
from repro.eval.pipeline import BenchmarkEvents
from repro.eval.scheduler import TaskResult


def _fmt(value: float, width: int = 7) -> str:
    return f"{value:{width}.2f}"


def format_figure(result: FigureResult) -> str:
    """Render a figure as an aligned paper-vs-measured text table."""
    lines = [
        f"{result.figure_id}: {result.caption}",
        f"unit: {result.unit}",
    ]
    header = f"{'benchmark':<10}"
    for series in result.series:
        header += f" | {series.label + ' paper':>18} {'ours':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for bench in BENCHMARK_ORDER:
        row = f"{bench:<10}"
        for series in result.series:
            row += (
                f" | {_fmt(series.paper[bench], 18)}"
                f" {_fmt(series.measured[bench])}"
            )
        lines.append(row)
    avg_row = f"{'average':<10}"
    for series in result.series:
        avg_row += (
            f" | {_fmt(series.paper_avg, 18)} {_fmt(series.measured_avg)}"
        )
    lines.append(avg_row)
    return "\n".join(lines)


def format_summary(results: list[FigureResult]) -> str:
    """The paper's §5 headlines, paper vs measured."""
    by_id = {result.figure_id: result for result in results}
    lines = ["Headline comparison (paper -> measured):"]
    if "figure5" in by_id:
        fig = by_id["figure5"]
        for label in ("XOM", "SNC-NoRepl", "SNC-LRU"):
            series = fig.series_by_label(label)
            lines.append(
                f"  avg {label:<11} slowdown: "
                f"{series.paper_avg:6.2f}% -> {series.measured_avg:6.2f}%"
            )
    if "figure10" in by_id:
        fig = by_id["figure10"]
        for label in ("XOM", "SNC-LRU"):
            series = fig.series_by_label(label)
            lines.append(
                f"  avg {label:<11} slowdown @102-cycle crypto: "
                f"{series.paper_avg:6.2f}% -> {series.measured_avg:6.2f}%"
            )
    return "\n".join(lines)


def format_scenario_table(
    results: dict[str, BenchmarkEvents],
    schemes: tuple[str, ...] = SCENARIO_SCHEMES,
    snc_key: str = "lru64",
) -> str:
    """The §4.3 strategy table: one row per scenario pass, keyed by its
    ``task.workload`` (``label/strategy``, as :func:`~repro.eval.
    scheduler.run_jobs` returns it) and sorted by (label, strategy); one
    slowdown column per scheme, plus the switch-cost columns the paper
    leaves open (spills per switch, warm-read fraction)."""
    header = f"{'scenario':<26} {'strategy':<9}"
    for scheme in schemes:
        header += f" {scheme:>10}"
    header += f" {'switches':>9} {'spills/sw':>10} {'warm%':>7}"
    lines = [
        f"SNC context-switch strategies (section 4.3)  "
        f"[slowdown %, {snc_key} geometry]",
        header,
        "-" * len(header),
    ]
    rows = sorted((name.rsplit("/", 1), events)
                  for name, events in results.items())
    for (label, strategy), events in rows:
        row = f"{label:<26} {strategy:<9}"
        for scheme, value in scenario_slowdowns(
            events, schemes, snc_key
        ).items():
            row += f" {value:>10.2f}"
        counts = events.snc[scheme_config_key(schemes[0], snc_key)]
        spills_per_switch = (
            counts.switch_spills / counts.switches if counts.switches
            else 0.0
        )
        warm_pct = (
            100.0 * counts.overlapped_reads / counts.reads
            if counts.reads else 0.0
        )
        row += (
            f" {counts.switches:>9} {spills_per_switch:>10.1f}"
            f" {warm_pct:>7.1f}"
        )
        lines.append(row)
    return "\n".join(lines)


def format_integrity_table(
    events: dict[str, BenchmarkEvents],
    keys: tuple[str, ...] | None = None,
    scheme: str = "otp",
    snc_key: str = INTEGRITY_SNC_KEY,
) -> str:
    """The integrity experiment: one row per workload, one slowdown
    column per integrity configuration, then the per-configuration hash
    work that explains the slowdowns (hashes per verification and the
    trusted node cache's hit rate, averaged over the workloads)."""
    if keys is None:
        keys = integrity_table_keys()
    header = f"{'workload':<10}" + "".join(f" {key:>12}" for key in keys)
    lines = [
        f"memory-integrity cost over {scheme}+SNC ({snc_key})  "
        f"[slowdown %]",
        header,
        "-" * len(header),
    ]
    for name, bench_events in events.items():
        slowdowns = integrity_slowdowns(bench_events, keys, scheme,
                                        snc_key)
        lines.append(
            f"{name:<10}"
            + "".join(f" {slowdowns[key]:>12.2f}" for key in keys)
        )

    lines.append("")
    lines.append("hash work per configuration (mean over workloads):")
    detail_header = (
        f"{'config':<14} {'hashes/verify':>14} {'nc-hit rate':>12}"
    )
    lines.append(detail_header)
    lines.append("-" * len(detail_header))
    for key in keys:
        if key == "none":
            continue
        per_verify, hit_rates = [], []
        for bench_events in events.values():
            counts = bench_events.integrity[key]
            if counts.verifications:
                per_verify.append(
                    counts.verify_hashes / counts.verifications
                )
                hit_rates.append(
                    counts.node_cache_hits / counts.verifications
                )
        mean_hashes = sum(per_verify) / len(per_verify) if per_verify else 0
        mean_hits = sum(hit_rates) / len(hit_rates) if hit_rates else 0
        lines.append(
            f"{key:<14} {mean_hashes:>14.2f} {mean_hits:>11.1%}"
        )
    return "\n".join(lines)


def format_trace_stats(store) -> str:
    """One line about a :class:`~repro.eval.trace_store.TraceStore`
    pass: how recordings were resolved, and — crucially after a
    ``TRACE_FORMAT`` bump — how many old files were silently discarded
    and re-recorded (``format upgrades``) versus plain bit rot
    (``corrupt``).  When the scheduler fed the store its timing
    telemetry, the cold half (record passes, with their refs/s) and the
    warm half (tasks priced by replay) are broken out too, so a run's
    cold-vs-warm cost is visible at a glance.  The runner prints this
    after every replay run."""
    parts = [
        f"trace store: {store.hits} hit{'s' if store.hits != 1 else ''}",
        f"{store.misses} miss{'es' if store.misses != 1 else ''}",
    ]
    if store.corrupt_discards:
        parts.append(f"{store.corrupt_discards} corrupt discarded")
    if store.format_upgrades:
        parts.append(f"{store.format_upgrades} format upgrades")
    if store.put_errors:
        parts.append(f"{store.put_errors} write errors")
    if getattr(store, "records", 0):
        rate = (store.record_refs / store.record_seconds
                if store.record_seconds > 0 else 0.0)
        parts.append(
            f"{store.records} record pass"
            f"{'es' if store.records != 1 else ''} "
            f"({store.record_seconds:.1f}s, {rate:,.0f} refs/s)"
        )
    if getattr(store, "tasks_priced", 0):
        shards = getattr(store, "price_shards", 0)
        if shards > getattr(store, "price_passes", 0):
            # Some batch pass was lane-sharded across the pool: show
            # how many shard passes the pricing actually ran as.
            parts.append(
                f"{store.tasks_priced} task"
                f"{'s' if store.tasks_priced != 1 else ''} "
                f"batch-priced in {shards} shards "
                f"({store.price_seconds:.1f}s)"
            )
        else:
            parts.append(
                f"{store.tasks_priced} task"
                f"{'s' if store.tasks_priced != 1 else ''} replay-priced "
                f"({store.price_seconds:.1f}s)"
            )
    return ", ".join(parts)


def format_pool_stats(stats) -> str:
    """One line about the persistent pool
    (:func:`repro.eval.pool.pool_stats`): whether the warm workers were
    reused or respawned, how many recordings shipped to them through
    shared memory, and how the work split into lane shards.  The runner
    prints this after every run with ``--jobs`` > 1; CI greps it to pin
    "workers spawned once" and "shm" on the smoke sweeps."""
    if stats.workers_respawned:
        workers = (f"pool: {stats.workers_spawned} workers "
                   f"({stats.workers_respawned} respawned after death)")
    else:
        workers = (f"pool: {stats.workers_spawned} worker"
                   f"{'s' if stats.workers_spawned != 1 else ''} "
                   "spawned once")
    parts = [
        workers,
        f"{stats.tasks_dispatched} task"
        f"{'s' if stats.tasks_dispatched != 1 else ''} dispatched",
        f"{stats.shm_shipments} shm shipment"
        f"{'s' if stats.shm_shipments != 1 else ''} "
        f"({stats.shm_bytes / 1e6:.1f} MB zero-copy)",
    ]
    if getattr(stats, "lane_shards", 0):
        per_shard = stats.shard_seconds / stats.lane_shards
        parts.append(
            f"{stats.lane_shards} lane shard"
            f"{'s' if stats.lane_shards != 1 else ''} priced "
            f"({per_shard:.2f}s/shard)"
        )
    if stats.tasks_retried:
        parts.append(f"{stats.tasks_retried} retried inline")
    return ", ".join(parts)


def format_run_stats(results: list[TaskResult]) -> str:
    """One line about a scheduler pass: cache hits and simulation time."""
    simulated = [result for result in results if not result.cached]
    cached = len(results) - len(simulated)
    parts = [
        f"{len(simulated)} task{'s' if len(simulated) != 1 else ''} "
        f"simulated, {cached} cached"
    ]
    if simulated:
        total = sum(result.seconds for result in simulated)
        slowest = max(simulated, key=lambda result: result.seconds)
        parts.append(
            f"{total:.1f}s sim time, slowest {slowest.task.workload} "
            f"{slowest.seconds:.1f}s"
        )
    return "; ".join(parts)


def format_server_stats(payload: dict) -> str:
    """One line about a serve daemon's lifetime, from its ``stats`` (or
    final ``shutdown``) payload: connections and requests served, how
    tasks were resolved — executed once, answered from the hot LRU, or
    joined onto an identical in-flight run — and how many frames were
    rejected.  The daemon prints this on exit; the concurrency tests
    read the counts to prove cross-client single-flight dedupe."""
    tasks = payload.get("tasks_requested", 0)
    parts = [
        f"serve: {payload.get('connections', 0)} connection"
        f"{'s' if payload.get('connections', 0) != 1 else ''}",
        f"{payload.get('requests', 0)} request"
        f"{'s' if payload.get('requests', 0) != 1 else ''}",
        f"{tasks} task{'s' if tasks != 1 else ''} "
        f"({payload.get('tasks_executed', 0)} executed, "
        f"{payload.get('tasks_hot', 0)} hot, "
        f"{payload.get('tasks_joined', 0)} joined in flight)",
    ]
    errors = (payload.get("protocol_errors", 0)
              + payload.get("request_errors", 0))
    if errors:
        parts.append(f"{errors} error frame{'s' if errors != 1 else ''}")
    uptime = payload.get("uptime_seconds")
    if uptime is not None:
        parts.append(f"up {uptime:.1f}s")
    return ", ".join(parts)


def format_client_stats(summary: dict, address: str) -> str:
    """One line about a ``--server`` run, from
    :attr:`~repro.eval.client.EvalClient.last_request`: where the tasks
    went and how the daemon resolved them.  The runner prints this
    instead of pool/trace lines (those live server-side); CI greps the
    dedupe counts on the two-client smoke."""
    counts = summary.get("counts", {})
    tasks = summary.get("tasks", 0)
    return (
        f"server {address}: {tasks} task{'s' if tasks != 1 else ''} "
        f"({counts.get('executed', 0)} executed, "
        f"{counts.get('hot', 0)} hot, "
        f"{counts.get('joined', 0)} joined in flight) "
        f"in {summary.get('seconds', 0.0):.1f}s server-side"
    )
