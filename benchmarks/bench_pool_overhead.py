"""Benchmark the persistent worker pool's shipping and lane sharding.

Two questions, answered with wall-clock numbers in ``BENCH_pool.json``:

* **Shm shipping** — a multi-figure sweep run as F separate
  invocations at ``--jobs 4`` (the shape of F CLI runs, or F requests
  to the serve daemon): how many recording bytes crossed shared
  memory, and the sweep's wall time.  The pytest asserts shm carries
  at least the recording payload bytes (the pickle pipe carries only
  the tiny segment references).  All runs share one pre-warmed trace store, so the
  numbers isolate execution-engine overhead, not recording time.
* **Lane sharding** — the worst case for recording-level parallelism:
  ONE workload swept across 16 SNC configurations at ``--jobs 4``.
  Unsharded (the shard planner patched to plan one pass per
  recording) that is one batch pass on one process no matter the job
  count; sharded (the default) the scheduler splits the pass into
  per-worker lane shards over the same shipped recording.  The batch
  pricer walks all lanes of one set count together, so the gated sweep
  (``shard_sweep``) uses 16 no-replacement geometries with pairwise
  distinct set counts: each lane is its own rank walk, and splitting
  the lanes splits the work.  The headline field is its
  ``shard_warm_speedup`` (unsharded warm seconds over sharded warm
  seconds); CI asserts it stays ≥ 1.5x on its multi-core runners (the
  payload's ``cpus`` field says what the box could do — a 1-CPU host
  can't run shards concurrently).
  ``shard_sweep_lru`` times the same shape over 16 fully associative
  LRU geometries, ungated: they share one stack walk, so an unsharded
  run is already cheap and sharding it mostly adds shipping.

Run as a script to (re)produce ``BENCH_pool.json``::

    PYTHONPATH=src python benchmarks/bench_pool_overhead.py
    PYTHONPATH=src python benchmarks/bench_pool_overhead.py \\
        --refs 30000:50000 --figures 5 10 --jobs 4

or under pytest (with the repo's benchmark config) for the invariant
checks and a tracked timing::

    PYTHONPATH=src python -m pytest benchmarks/bench_pool_overhead.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import tempfile
import time
from pathlib import Path
from unittest import mock

from repro.eval.api import (
    Job,
    QUICK_SCALE,
    SNCSpec,
    SimulationScale,
    SourceSpec,
    TraceStore,
    events_to_dict,
    merge_jobs,
    parse_scale,
    plan_jobs,
    pool_stats,
    reset_pool_stats,
    run_jobs,
    run_tasks,
    shutdown_worker_pool,
)

DEFAULT_FIGURES = ("5", "10")
DEFAULT_JOBS = 4

#: The shard sweep's shape: ONE workload, many SNC configurations —
#: after merge_jobs that is a single task (one recording), so without
#: lane sharding no job count can parallelize it.
SHARD_WORKLOAD = "equake"
SHARD_CONFIGS = 16
#: The gated sweep: one 64KB no-replacement SNC at every associativity
#: from direct-mapped to fully associative (32768 entries, 1 to 32768
#: ways), so no two lanes share a set count and each takes its own
#: walk.
SHARD_SPECS = tuple(
    SNCSpec(key=f"norepl64k_{1 << bits}way", size_bytes=64 * 1024,
            assoc=1 << bits, policy="no-replacement")
    for bits in range(SHARD_CONFIGS)
)
#: The ungated sweep: fully associative LRU SNCs of eight sizes with 2-
#: and 4-byte entries, which all share one stack walk.
SHARD_SPECS_LRU = tuple(
    SNCSpec(key=f"lru{kb}e{entry_bytes}", size_bytes=kb * 1024,
            entry_bytes=entry_bytes)
    for kb in (4, 8, 16, 32, 64, 128, 256, 512)
    for entry_bytes in (2, 4)
)


# ------------------------------------------------------------------ timing


def _sweep(figures, scale: SimulationScale, n_jobs: int,
           trace_store: TraceStore) -> float:
    """One multi-figure sweep as len(figures) separate invocations,
    returning total wall seconds.  No result cache: every run prices
    for real."""
    started = time.perf_counter()
    for figure in figures:
        run_jobs(plan_jobs([f"figure{figure}"], scale=scale),
                 n_jobs=n_jobs, trace_store=trace_store)
    return time.perf_counter() - started


def warm_trace_store(figures, scale: SimulationScale,
                     root: Path) -> TraceStore:
    """Record every stream the sweep needs, once, inline — the bench
    then measures pure execution-engine overhead on warm recordings."""
    store = TraceStore(root)
    run_jobs(plan_jobs([f"figure{figure}" for figure in figures],
                       scale=scale),
             n_jobs=1, trace_store=store)
    return store


def time_shipping(figures, scale: SimulationScale, n_jobs: int,
                  trace_store: TraceStore) -> dict:
    """One warm sweep on a fresh pool — the bytes shipped through shared
    memory plus wall time, and the gzip payload bytes the pickle pipe
    would otherwise carry."""
    payload_bytes = sum(
        path.stat().st_size
        for path in Path(trace_store.root).glob("*.trace")
    )
    shutdown_worker_pool()
    reset_pool_stats()
    try:
        seconds = _sweep(figures, scale, n_jobs, trace_store)
        stats = pool_stats()
        shm = {"seconds": round(seconds, 3),
               "shipments": stats.shm_shipments,
               "bytes": stats.shm_bytes}
    finally:
        shutdown_worker_pool()
    return {"payload_bytes": payload_bytes, "shm": shm}


def shard_sweep_tasks(scale: SimulationScale, specs=SHARD_SPECS):
    """One merged task sweeping the SNC ``specs`` on a single
    workload."""
    job = Job(table="shard-sweep", schemes=("otp",),
              source=SourceSpec.benchmark(SHARD_WORKLOAD), snc_configs=specs,
              scale=scale)
    return merge_jobs([job])


def _shard_run(tasks, n_jobs: int,
               trace_store: TraceStore) -> tuple[float, str]:
    """One uncached run of the merged sweep task; wall seconds plus a
    canonical serialization of the results (the parity fingerprint)."""
    started = time.perf_counter()
    results = run_tasks(tasks, n_jobs=n_jobs, trace_store=trace_store)
    seconds = time.perf_counter() - started
    digest = json.dumps([events_to_dict(r.events) for r in results])
    return seconds, digest


def _unsharded():
    """Patch the scheduler's shard planner to plan one pass per
    recording — the unsharded baseline the sharded runs are gated
    against."""
    return mock.patch(
        "repro.eval.scheduler.plan_lane_shards",
        lambda lane_counts, n_jobs: [1] * len(lane_counts),
    )


def time_shard_modes(scale: SimulationScale, n_jobs: int,
                     trace_store: TraceStore, specs=SHARD_SPECS,
                     repeats: int = 3) -> dict:
    """Lane sharding on the worst case for recording-level parallelism.

    The sweep is one workload x the SNC ``specs`` — a single
    merged task, a single recording.  Unsharded (:func:`_unsharded`)
    that batch pass runs on one process no matter ``n_jobs``; sharded
    (the default) the scheduler deals the
    configuration lanes across the warm pool.  Runs are interleaved (so
    a box-wide load blip hits both modes instead of biasing whichever
    ran during it) and reduced to medians; ``shard_warm_speedup`` is
    unsharded-warm over sharded-warm seconds on the same warm pool.
    Every mode's results are checked byte-identical before any number
    is reported.

    The speedup is compute parallelism, so it needs cores: the payload
    carries ``cpus`` and CI only enforces the 1.5x bar on multi-core
    runners (a 1-CPU box still gains ~1.2x — the sharded path skips
    the parent-side recording decode — but can't run shards
    concurrently)."""
    tasks = shard_sweep_tasks(scale, specs)
    # Warm the recording inline, then the pool (untimed), so the timed
    # runs measure pure pricing.
    _, baseline = _shard_run(tasks, 1, trace_store)
    shutdown_worker_pool()
    _shard_run(tasks, n_jobs, trace_store)
    unsharded_runs, sharded_runs = [], []
    for _ in range(repeats):
        with _unsharded():
            seconds, digest = _shard_run(tasks, n_jobs, trace_store)
        assert digest == baseline, "unsharded warm diverged"
        unsharded_runs.append(seconds)
        seconds, digest = _shard_run(tasks, n_jobs, trace_store)
        assert digest == baseline, "sharded warm diverged"
        sharded_runs.append(seconds)
    unsharded_seconds = statistics.median(unsharded_runs)
    sharded_seconds = statistics.median(sharded_runs)
    return {
        "workload": SHARD_WORKLOAD,
        "lanes": specs[0].policy,
        "n_configs": len(specs),
        "n_jobs": n_jobs,
        "cpus": os.cpu_count() or 1,
        "repeats": repeats,
        "unsharded_warm_seconds": round(unsharded_seconds, 3),
        "sharded_warm_seconds": round(sharded_seconds, 3),
        "shard_warm_speedup": round(unsharded_seconds / sharded_seconds,
                                    3),
        "unsharded_runs": [round(s, 3) for s in unsharded_runs],
        "sharded_runs": [round(s, 3) for s in sharded_runs],
    }


def bench_pool(figures=DEFAULT_FIGURES, scale: SimulationScale = None,
               n_jobs: int = DEFAULT_JOBS, trace_dir: Path = None,
               ) -> dict:
    """The whole payload: warm the store, time the shipping modes, time
    the gated no-replacement shard sweep and the ungated LRU one."""
    scale = scale or QUICK_SCALE
    if trace_dir is None:
        with tempfile.TemporaryDirectory(prefix="bench-pool-") as tmp:
            return bench_pool(figures, scale, n_jobs, Path(tmp))
    store = warm_trace_store(figures, scale, trace_dir)
    shipping = time_shipping(figures, scale, n_jobs, store)
    shard = time_shard_modes(scale, n_jobs, store)
    shard_lru = time_shard_modes(scale, n_jobs, store, SHARD_SPECS_LRU)
    shutdown_worker_pool()
    return {"figures": list(figures), "n_jobs": n_jobs,
            "shipping": shipping, "shard_sweep": shard,
            "shard_sweep_lru": shard_lru,
            "shard_warm_speedup": shard["shard_warm_speedup"]}


# ------------------------------------------------------------------ pytest


def test_shm_shipping_moves_the_payload_out_of_the_pipe(tmp_path):
    """Zero-copy accounting: the segments must carry at least the
    recording payload bytes the pickle pipe would otherwise carry."""
    scale = SimulationScale(warmup_refs=30_000, measure_refs=50_000)
    figures = DEFAULT_FIGURES[:1]
    store = warm_trace_store(figures, scale, tmp_path)
    shipping = time_shipping(figures, scale, DEFAULT_JOBS, store)
    assert shipping["payload_bytes"] > 0
    assert shipping["shm"]["bytes"] >= shipping["payload_bytes"]


def test_lane_sharding_engages_and_matches(tmp_path):
    """The shard sweep's invariants without timing bars: the 16-config
    single-task sweep at --jobs 4 must actually split into lane shards
    on the warm pool, and the sharded results must serialize
    byte-identically to the inline single-process run."""
    scale = SimulationScale(warmup_refs=30_000, measure_refs=50_000)
    store = TraceStore(tmp_path)
    tasks = shard_sweep_tasks(scale)
    _, baseline = _shard_run(tasks, 1, store)
    shutdown_worker_pool()
    reset_pool_stats()
    _, digest = _shard_run(tasks, DEFAULT_JOBS, store)
    assert digest == baseline
    assert pool_stats().lane_shards >= DEFAULT_JOBS
    shutdown_worker_pool()


def test_bench_payload_shape(tmp_path):
    """The JSON fields CI's asserts and the perf ledger rely on."""
    scale = SimulationScale(warmup_refs=30_000, measure_refs=50_000)
    result = bench_pool(("5",), scale, 2, tmp_path)
    for field in ("shipping", "shard_sweep", "shard_sweep_lru",
                  "shard_warm_speedup"):
        assert field in result
    assert result["shipping"]["shm"]["shipments"] >= 1
    for sweep, lanes in (("shard_sweep", "no-replacement"),
                         ("shard_sweep_lru", "lru")):
        shard = result[sweep]
        for field in ("unsharded_warm_seconds", "sharded_warm_seconds",
                      "shard_warm_speedup"):
            assert field in shard
        assert shard["n_configs"] == SHARD_CONFIGS
        assert shard["lanes"] == lanes
    assert (result["shard_warm_speedup"]
            == result["shard_sweep"]["shard_warm_speedup"])


# ------------------------------------------------------------------ script


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--refs", type=parse_scale, default=QUICK_SCALE,
                        help="'full', 'quick' (default) or "
                             "'warmup:measure' reference counts")
    parser.add_argument("--figures", nargs="+", default=list(DEFAULT_FIGURES),
                        help=f"figures to sweep (default "
                             f"{' '.join(DEFAULT_FIGURES)})")
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                        help=f"workers per run (default {DEFAULT_JOBS})")
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_pool.json"),
                        help="result file (default ./BENCH_pool.json)")
    args = parser.parse_args()

    print(f"pool overhead: figures {' '.join(args.figures)} at "
          f"{args.refs.warmup_refs}+{args.refs.measure_refs} refs, "
          f"--jobs {args.jobs}, warm trace store")
    result = bench_pool(tuple(args.figures), args.refs, args.jobs)
    shipping = result["shipping"]
    print(f"  shipping: {shipping['shm']['shipments']} shm shipments "
          f"{shipping['shm']['bytes'] / 1e6:.1f} MB "
          f"({shipping['shm']['seconds']:.2f}s sweep)")
    for sweep in ("shard_sweep", "shard_sweep_lru"):
        shard = result[sweep]
        print(f"  {sweep} ({shard['workload']} x {shard['n_configs']} "
              f"{shard['lanes']} configs, 1 task, "
              f"--jobs {shard['n_jobs']}):")
        print(f"    unsharded warm {shard['unsharded_warm_seconds']:7.2f}s")
        print(f"    sharded warm   {shard['sharded_warm_seconds']:7.2f}s "
              f"({shard['shard_warm_speedup']:.2f}x)")

    payload = {
        "benchmark": "pool_overhead",
        **result,
        "scale": {"warmup_refs": args.refs.warmup_refs,
                  "measure_refs": args.refs.measure_refs},
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"shard warm speedup {result['shard_warm_speedup']:.2f}x "
          f"-> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
