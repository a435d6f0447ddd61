"""Command-line entry point: regenerate the paper's figures.

Examples::

    python -m repro.eval                      # all figures, full scale
    python -m repro.eval --figures 5 10       # just Figures 5 and 10
    python -m repro.eval --scale quick        # fast smoke (short traces)
    python -m repro.eval --scale quick --jobs 4   # fan out 4 processes
    python -m repro.eval --jobs auto          # one worker per CPU,
                                              # capped by total lanes
    python -m repro.eval --no-cache           # force re-simulation
    python -m repro.eval --no-trace-cache     # re-record event streams
    python -m repro.eval --scale 100000:150000 --charts
    python -m repro.eval serve --port 7203    # evaluation service daemon
    python -m repro.eval --server localhost:7203 --figures 5 10
                                              # run on the daemon's warm
                                              # pool and caches
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.eval.cache import ResultCache, default_cache_dir
from repro.eval.charts import render_averages
from repro.eval.client import EvalClient, parse_address
from repro.eval.experiments import (
    FIGURES_BY_ID,
    plan_jobs,
)
from repro.eval.jobs import merge_jobs
from repro.eval.pipeline import QUICK_SCALE, SimulationScale
from repro.eval.pool import pool_stats
from repro.eval.report import (
    format_client_stats,
    format_figure,
    format_pool_stats,
    format_run_stats,
    format_summary,
    format_trace_stats,
)
from repro.eval.scheduler import auto_jobs, run_tasks
from repro.eval.trace_store import TraceStore, default_trace_dir

_FIGURES_BY_NUMBER = {
    figure_id.removeprefix("figure"): figure
    for figure_id, figure in FIGURES_BY_ID.items()
}


def parse_scale(text: str) -> SimulationScale:
    if text == "full":
        return SimulationScale()
    if text == "quick":
        return QUICK_SCALE
    try:
        warmup, measure = (int(part) for part in text.split(":"))
        return SimulationScale(warmup_refs=warmup, measure_refs=measure)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"scale must be 'full', 'quick' or 'warmup:measure', got {text!r}"
        ) from None


def parse_jobs(text: str) -> int:
    """A ``--jobs`` value: a worker count, or ``auto`` — rejected with
    a menu rather than a bare 'invalid int'.  ``auto`` parses to the
    sentinel ``0``: the real count depends on the planned tasks (one
    worker per CPU, capped by their total lane count —
    :func:`repro.eval.scheduler.auto_jobs`), so :func:`main` resolves
    it once the task list exists."""
    if text == "auto":
        return 0
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs >= 1:
        return jobs
    raise argparse.ArgumentTypeError(
        f"invalid --jobs value {text!r} — pick a worker count >= 1, or "
        f"'auto' (one worker per CPU, up to {os.cpu_count() or 1} here, "
        "never more than the run's total pricing lanes)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description=(
            "Regenerate the evaluation figures of 'Fast Secure Processor "
            "for Inhibiting Software Piracy and Tampering' (MICRO-36 2003) "
            "and print paper-vs-measured tables."
        ),
    )
    parser.add_argument(
        "--figures", nargs="*", default=sorted(_FIGURES_BY_NUMBER),
        choices=sorted(_FIGURES_BY_NUMBER), metavar="N",
        help="which figures to regenerate (default: all)",
    )
    parser.add_argument(
        "--scale", type=parse_scale, default=SimulationScale(),
        help="'full' (default), 'quick', or 'warmup:measure' reference "
             "counts",
    )
    parser.add_argument(
        "--jobs", type=parse_jobs, default=1, metavar="N|auto",
        help="worker processes for the simulation fan-out (default 1: "
             "serial; more run on a warm persistent pool that ships "
             "recordings through shared memory, with byte-identical "
             "tables; 'auto' uses one worker per CPU, capped by the "
             "run's total pricing-lane count)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the on-disk result cache and re-simulate everything",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help=f"result cache location (default {default_cache_dir()})",
    )
    parser.add_argument(
        "--no-trace-cache", action="store_true",
        help="ignore the on-disk recorded-stream store and re-record",
    )
    parser.add_argument(
        "--trace-cache-dir", type=Path, default=None, metavar="DIR",
        help=f"recorded-stream store location "
             f"(default {default_trace_dir()})",
    )
    parser.add_argument(
        "--server", type=parse_address, default=None,
        metavar="HOST[:PORT]",
        help="run the tasks on a 'python -m repro.eval serve' daemon "
             "instead of locally (byte-identical tables; the daemon "
             "owns the caches and the worker pool, so --jobs and the "
             "cache flags are ignored)",
    )
    parser.add_argument(
        "--charts", action="store_true",
        help="render ASCII bar charts in addition to the tables",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload seed (default 1)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    figure_ids = [f"figure{number}" for number in args.figures]
    jobs = plan_jobs(figure_ids, scale=args.scale, seed=args.seed)
    tasks = merge_jobs(jobs)

    started = time.time()

    def progress(line: str) -> None:
        print(f"  {line}", file=sys.stderr)

    if args.server is not None:
        # The daemon owns the execution substrate; the runner only
        # ships tasks and renders — the tables below are byte-identical
        # to a local run because events round-trip the cache wire form.
        host, port = args.server
        print(
            f"{len(jobs)} figure jobs -> {len(tasks)} simulation tasks "
            f"({args.scale.warmup_refs} warmup + "
            f"{args.scale.measure_refs} measured refs each) "
            f"-> server {host}:{port}...",
            file=sys.stderr,
        )
        with EvalClient((host, port)) as client:
            task_results = client.run_tasks(tasks, progress=progress)
            summary = client.last_request
        print(
            f"{format_run_stats(task_results)} "
            f"(wall {time.time() - started:.1f}s)",
            file=sys.stderr,
        )
        print(format_client_stats(summary, f"{host}:{port}"),
              file=sys.stderr)
        print(file=sys.stderr)
    else:
        # ``--jobs auto`` parses to 0; resolve it now that the tasks
        # (and so the total lane count the pool can use) are known.
        n_jobs = args.jobs or auto_jobs(tasks)
        cache = None
        if not args.no_cache:
            cache = ResultCache(args.cache_dir)
        trace_store = None
        if not args.no_trace_cache:
            trace_store = TraceStore(args.trace_cache_dir)

        print(
            f"{len(jobs)} figure jobs -> {len(tasks)} simulation tasks "
            f"({args.scale.warmup_refs} warmup + "
            f"{args.scale.measure_refs} "
            f"measured refs each, {n_jobs} worker"
            f"{'s' if n_jobs != 1 else ''})...",
            file=sys.stderr,
        )
        task_results = run_tasks(
            tasks, n_jobs=n_jobs, cache=cache, progress=progress,
            trace_store=trace_store,
        )
        print(
            f"{format_run_stats(task_results)} "
            f"(wall {time.time() - started:.1f}s)",
            file=sys.stderr,
        )
        if trace_store is not None:
            print(format_trace_stats(trace_store), file=sys.stderr)
        if n_jobs > 1:
            print(format_pool_stats(pool_stats()), file=sys.stderr)
        print(file=sys.stderr)
    events = {result.task.workload: result.events
              for result in task_results}

    results = []
    for number in args.figures:
        result = _FIGURES_BY_NUMBER[number](events)
        results.append(result)
        print(format_figure(result))
        print()
        if args.charts:
            print(render_averages(result))
            print()
    print(format_summary(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
