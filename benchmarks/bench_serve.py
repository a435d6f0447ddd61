"""Benchmark evaluation-as-a-service against cold CLI invocations.

Three questions, answered with wall-clock numbers in
``BENCH_serve.json``:

* **Warm daemon vs cold CLI** — the same figure sweep requested from a
  long-lived ``repro.eval serve`` daemon (caches hot after the first
  request) versus fresh ``python -m repro.eval`` subprocesses that pay
  interpreter start, :mod:`repro` imports, trace recording and pricing
  every time.  The headline field is ``serve_warm_speedup`` (cold CLI
  median over warm request median); CI asserts it stays ≥ 1.5x.
* **First-request cost** — what the daemon's *first* client pays (the
  one real execution everyone afterwards shares), reported as
  ``daemon_first_request_seconds``.
* **Concurrent fan-out** — ``--clients`` threads requesting the same
  sweep from the warm daemon at once: every reply must serialize
  byte-identically, and the payload reports the aggregate
  ``requests_per_second`` plus the daemon's own stats counters.

Run as a script to (re)produce ``BENCH_serve.json``::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py \\
        --refs 30000:50000 --figures 5 10 --reps 3 --clients 4

or under pytest (with the repo's benchmark config) for the invariant
checks and a tracked timing::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.eval.api import (
    QUICK_SCALE,
    EvalClient,
    ResultCache,
    SimulationScale,
    TraceStore,
    events_to_dict,
    merge_jobs,
    parse_scale,
    plan_jobs,
    start_server_thread,
)

DEFAULT_FIGURES = ("5", "10")
DEFAULT_JOBS = 2
DEFAULT_REPS = 3
DEFAULT_CLIENTS = 4

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


# ------------------------------------------------------------------ cold CLI


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def time_cold_cli(figures, scale: SimulationScale, n_jobs: int,
                  reps: int) -> dict:
    """Fresh ``python -m repro.eval`` subprocess per rep, fresh trace
    dir, no result cache: the full cost a scripted sweep pays without
    the daemon."""
    runs = []
    env = _cli_env()
    for _ in range(reps):
        with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "repro.eval",
                 "--figures", *figures,
                 "--scale",
                 f"{scale.warmup_refs}:{scale.measure_refs}",
                 "--jobs", str(n_jobs), "--no-cache",
                 "--trace-cache-dir", str(tmp)],
                env=env, check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            runs.append(time.perf_counter() - started)
    return {"runs": [round(s, 3) for s in runs],
            "seconds": round(statistics.median(runs), 3)}


# ------------------------------------------------------------------ daemon


def sweep_tasks(figures, scale: SimulationScale):
    figure_ids = [fig if fig.startswith("figure") else f"figure{fig}"
                  for fig in figures]
    return merge_jobs(plan_jobs(figure_ids, scale=scale))


def _digest(results) -> str:
    return json.dumps([events_to_dict(r.events) for r in results])


def time_warm_daemon(handle, tasks, reps: int) -> dict:
    """First request executes for real; the timed reps after it must be
    pure hot-LRU serving (``executed == 0``)."""
    with EvalClient(handle.address) as client:
        started = time.perf_counter()
        baseline = _digest(client.run_tasks(tasks))
        first_seconds = time.perf_counter() - started
        runs = []
        for _ in range(reps):
            started = time.perf_counter()
            results = client.run_tasks(tasks)
            runs.append(time.perf_counter() - started)
            counts = client.last_request["counts"]
            assert counts["executed"] == 0, counts
            assert _digest(results) == baseline, "warm refetch diverged"
    return {
        "first_request_seconds": round(first_seconds, 3),
        "runs": [round(s, 4) for s in runs],
        "seconds": round(statistics.median(runs), 4),
        "digest": baseline,
    }


def time_concurrent_clients(handle, tasks, n_clients: int,
                            baseline: str) -> dict:
    """``n_clients`` threads, each its own connection, all asking for
    the full warm sweep at once."""
    digests: list[str | None] = [None] * n_clients
    errors: list[Exception] = []

    def one_client(slot: int) -> None:
        try:
            with EvalClient(handle.address) as client:
                digests[slot] = _digest(client.run_tasks(tasks))
        except Exception as err:  # surfaced by the assert below
            errors.append(err)

    threads = [threading.Thread(target=one_client, args=(slot,))
               for slot in range(n_clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    assert not errors, errors
    assert all(digest == baseline for digest in digests), (
        "concurrent replies diverged"
    )
    return {
        "clients": n_clients,
        "wall_seconds": round(wall, 4),
        "requests_per_second": round(n_clients / wall, 2),
        "identical_replies": True,
    }


def bench_serve(figures=DEFAULT_FIGURES, scale: SimulationScale = None,
                n_jobs: int = DEFAULT_JOBS, reps: int = DEFAULT_REPS,
                n_clients: int = DEFAULT_CLIENTS,
                work_dir: Path = None) -> dict:
    """The whole payload: cold CLI reps, then one daemon serving the
    warm reps and the concurrent fan-out."""
    scale = scale or QUICK_SCALE
    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
            return bench_serve(figures, scale, n_jobs, reps, n_clients,
                               Path(tmp))
    tasks = sweep_tasks(figures, scale)
    cold = time_cold_cli(figures, scale, n_jobs, reps)
    with start_server_thread(
        n_jobs=n_jobs,
        cache=ResultCache(work_dir / "cache"),
        trace_store=TraceStore(work_dir / "traces"),
    ) as handle:
        warm = time_warm_daemon(handle, tasks, reps)
        concurrent = time_concurrent_clients(handle, tasks, n_clients,
                                             warm.pop("digest"))
        with EvalClient(handle.address) as client:
            server_stats = client.stats()
    server_stats.pop("worker_pids", None)
    return {
        "figures": list(figures),
        "n_jobs": n_jobs,
        "reps": reps,
        "n_tasks": len(tasks),
        "cold_cli_seconds": cold["seconds"],
        "cold_cli_runs": cold["runs"],
        "daemon_first_request_seconds": warm["first_request_seconds"],
        "serve_warm_seconds": warm["seconds"],
        "serve_warm_runs": warm["runs"],
        "serve_warm_speedup": round(
            cold["seconds"] / max(warm["seconds"], 1e-9), 3
        ),
        "concurrent": concurrent,
        "server_stats": server_stats,
    }


# ------------------------------------------------------------------ pytest


def test_warm_daemon_beats_cold_cli(tmp_path):
    """The acceptance bar: a warm daemon request (hot LRU, zero
    executions) must beat a cold CLI subprocess by ≥ 1.5x — the avoided
    cost is interpreter start, imports, recording and pricing, so the
    real margin is orders of magnitude."""
    result = bench_serve(("5",), QUICK_SCALE, 1, reps=1, n_clients=2,
                         work_dir=tmp_path)
    assert result["serve_warm_speedup"] >= 1.5
    assert result["serve_warm_seconds"] < result["cold_cli_seconds"]


def test_concurrent_replies_identical(tmp_path):
    """Every concurrent subscriber gets byte-identical events."""
    tasks = sweep_tasks(("5",), QUICK_SCALE)
    with start_server_thread(
        n_jobs=1,
        trace_store=TraceStore(tmp_path / "traces"),
    ) as handle:
        warm = time_warm_daemon(handle, tasks, reps=1)
        concurrent = time_concurrent_clients(handle, tasks, 3,
                                             warm.pop("digest"))
    assert concurrent["identical_replies"] is True
    assert concurrent["clients"] == 3


def test_bench_payload_shape(tmp_path):
    """The JSON fields CI's asserts and the perf ledger rely on."""
    result = bench_serve(("5",), QUICK_SCALE, 1, reps=1, n_clients=2,
                         work_dir=tmp_path)
    for field in ("cold_cli_seconds", "daemon_first_request_seconds",
                  "serve_warm_seconds", "serve_warm_speedup",
                  "concurrent", "server_stats"):
        assert field in result
    stats = result["server_stats"]
    assert stats["tasks_executed"] == result["n_tasks"]
    assert stats["tasks_hot"] >= result["n_tasks"]
    assert result["concurrent"]["requests_per_second"] > 0


# ------------------------------------------------------------------ script


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--refs", type=parse_scale, default=QUICK_SCALE,
                        help="'full', 'quick' (default) or "
                             "'warmup:measure' reference counts")
    parser.add_argument("--figures", nargs="+",
                        default=list(DEFAULT_FIGURES),
                        help=f"figures to sweep (default "
                             f"{' '.join(DEFAULT_FIGURES)})")
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                        help=f"daemon/CLI workers (default "
                             f"{DEFAULT_JOBS})")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help=f"timed repetitions per mode (default "
                             f"{DEFAULT_REPS})")
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS,
                        help=f"concurrent clients (default "
                             f"{DEFAULT_CLIENTS})")
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_serve.json"),
                        help="result file (default ./BENCH_serve.json)")
    args = parser.parse_args()

    print(f"serve overhead: figures {' '.join(args.figures)} at "
          f"{args.refs.warmup_refs}+{args.refs.measure_refs} refs, "
          f"--jobs {args.jobs}, {args.reps} reps, "
          f"{args.clients} clients")
    result = bench_serve(tuple(args.figures), args.refs, args.jobs,
                         args.reps, args.clients)
    print(f"  cold CLI        {result['cold_cli_seconds']:7.2f}s")
    print(f"  daemon first    "
          f"{result['daemon_first_request_seconds']:7.2f}s")
    print(f"  daemon warm     {result['serve_warm_seconds']:7.3f}s "
          f"({result['serve_warm_speedup']:.1f}x over cold CLI)")
    concurrent = result["concurrent"]
    print(f"  {concurrent['clients']} concurrent clients: "
          f"{concurrent['wall_seconds']:.3f}s wall, "
          f"{concurrent['requests_per_second']:.1f} req/s, "
          f"identical replies")

    payload = {
        "benchmark": "serve",
        **result,
        "scale": {"warmup_refs": args.refs.warmup_refs,
                  "measure_refs": args.refs.measure_refs},
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"serve warm speedup {result['serve_warm_speedup']:.1f}x "
          f"-> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
