"""Ablation: SNC handling across context switches (§4.3).

The paper names two strategies — flush-with-encryption vs XOM-ID tagging —
and leaves their cost "currently open".  This bench answers it through the
real evaluation stack: scenario jobs (strategy x scheme x SNC geometry
over a multi-task interleave) merged, scheduled, cached and priced exactly
like figure jobs, with the registered schemes' own state machines handling
the switches.  FLUSH pays spill writes at every switch and cold-start
query misses after; TAG pays nothing at switch time but shares capacity.

As a script it emits ``BENCH_scenarios.json`` (CI uploads it)::

    python benchmarks/bench_ablation_context_switch.py \\
        --scale 20000:30000 --quantum 1000 --jobs 2 --workloads art vpr \\
        --output BENCH_scenarios.json

(equake+mcf, the default list's second mix, needs at least the quick
scale to get past its initialization phase; a mix the scale is too
small for is named on stderr and the script exits 2.)

Under pytest it benchmarks one scenario pass and asserts the §4.3
invariants.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.errors import ConfigurationError
from repro.eval.api import (
    QUICK_SCALE,
    ResultCache,
    SCENARIO_SCHEMES,
    TraceStore,
    default_cache_dir,
    format_run_stats,
    format_scenario_table,
    merge_jobs,
    parse_scale,
    run_tasks,
    scenario_jobs,
    scenario_slowdowns,
    scheme_config_key,
)

#: Two mixes, one per arm of the trade-off: art+vpr fit the 64KB SNC
#: together (TAG keeps everything warm), equake+mcf overflow it (TAG
#: tasks evict each other).
MIX_FITS = ("art", "vpr")
MIX_CONTENDS = ("equake", "mcf")


def run_mix(workloads, quantum=2000, scale=None, n_jobs=1, cache=None,
            seed=1, progress=None, trace_store=None):
    """Scenario jobs -> scheduler -> ({"label/strategy": events},
    task results).

    This is the engine's best case: the FLUSH and TAG tasks of one mix
    share a single record pass (the L2 stream does not depend on the
    switch strategy), so two tasks cost one recording.
    """
    jobs = scenario_jobs(workloads, quantum=quantum,
                         scale=scale or QUICK_SCALE, seed=seed)
    results = run_tasks(merge_jobs(jobs), n_jobs=n_jobs, cache=cache,
                        progress=progress, trace_store=trace_store)
    return ({result.task.workload: result.events for result in results},
            results)


# ------------------------------------------------------------------ pytest


def test_flush_vs_tag_when_working_sets_fit(benchmark, record_figure):
    """art+vpr fit the SNC together: TAG stays warm across quanta, FLUSH
    re-pays the table on every quantum."""
    events, _ = benchmark.pedantic(
        lambda: run_mix(MIX_FITS), rounds=2, iterations=1
    )
    label = next(iter(events)).rsplit("/", 1)[0]
    flush = events[f"{label}/flush"].snc[scheme_config_key("otp")]
    tag = events[f"{label}/tag"].snc[scheme_config_key("otp")]

    record_figure(
        "ablation_context_switch",
        format_scenario_table(events),
    )

    # FLUSH pays at every switch; TAG never spills at switch time.
    assert flush.switches > 0 and flush.switch_spills > 0
    assert tag.switches > 0 and tag.switch_spills == 0
    # TAG keeps warm state across quanta: more overlapped reads, and a
    # strictly lower priced slowdown, for every registered scheme.
    assert tag.overlapped_reads > flush.overlapped_reads
    flush_slow = scenario_slowdowns(events[f"{label}/flush"])
    tag_slow = scenario_slowdowns(events[f"{label}/tag"])
    for scheme in SCENARIO_SCHEMES:
        assert tag_slow[scheme] < flush_slow[scheme]


def test_tag_capacity_pressure(benchmark):
    """equake+mcf together exceed the SNC: TAG loses its edge — tasks
    evict each other and the warm fraction collapses (the trade-off's
    other arm)."""
    events, _ = benchmark.pedantic(
        lambda: run_mix(MIX_CONTENDS), rounds=2, iterations=1
    )
    label = next(iter(events)).rsplit("/", 1)[0]
    tag = events[f"{label}/tag"].snc[scheme_config_key("otp")]
    assert tag.switch_spills == 0
    # Cross-task evictions show up as ordinary table spills under TAG.
    assert tag.table_spills > 0
    assert tag.overlapped_reads < tag.reads * 0.5


# ------------------------------------------------------------------ script


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=parse_scale, default=QUICK_SCALE,
                        help="'full', 'quick' (default) or "
                             "'warmup:measure' reference counts")
    parser.add_argument("--quantum", type=int, default=2000,
                        help="references per scheduling quantum "
                             "(default 2000)")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="one mix of benchmark names (default: both "
                             "canonical mixes)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore the on-disk result cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help=f"result cache location "
                             f"(default {default_cache_dir()})")
    parser.add_argument("--trace-cache-dir", type=Path, default=None,
                        help="recorded-stream store (default: the user "
                             "trace cache)")
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_scenarios.json"),
                        help="result file (default ./BENCH_scenarios.json)")
    args = parser.parse_args()

    mixes = [tuple(args.workloads)] if args.workloads else [
        MIX_FITS, MIX_CONTENDS,
    ]
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    trace_store = TraceStore(args.trace_cache_dir)
    all_events = {}
    all_results = []
    started = time.time()
    for mix in mixes:
        try:
            events, results = run_mix(
                mix, quantum=args.quantum, scale=args.scale,
                n_jobs=args.jobs, cache=cache, seed=args.seed,
                progress=lambda line: print(f"  {line}", file=sys.stderr),
                trace_store=trace_store,
            )
        except ConfigurationError as error:
            print(f"{'+'.join(mix)} at scale {args.scale.warmup_refs}:"
                  f"{args.scale.measure_refs}: {error}", file=sys.stderr)
            return 2
        all_events.update(events)
        all_results.extend(results)
    print(
        f"{format_run_stats(all_results)} "
        f"(wall {time.time() - started:.1f}s)",
        file=sys.stderr,
    )

    print(format_scenario_table(all_events))

    scenarios = {}
    for name, events in sorted(all_events.items(),
                               key=lambda item: item[0].rsplit("/", 1)):
        counts = events.snc[scheme_config_key("otp")]
        scenarios[name] = {
            "slowdown_pct": {
                scheme: round(value, 4)
                for scheme, value in scenario_slowdowns(events).items()
            },
            "switches": counts.switches,
            "switch_spills": counts.switch_spills,
            "overlapped_reads": counts.overlapped_reads,
            "seqnum_miss_reads": counts.seqnum_miss_reads,
            "task_read_misses": events.task_read_misses,
        }
    payload = {
        "benchmark": "context_switch_scenarios",
        "scenarios": scenarios,
        "quantum": args.quantum,
        "scale": {"warmup_refs": args.scale.warmup_refs,
                  "measure_refs": args.scale.measure_refs},
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
