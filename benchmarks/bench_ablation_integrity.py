"""Ablation: the integrity extension's verification cost (§2.2 deferred).

The paper defers integrity to Gassend et al.'s cached hash trees.  Since
integrity became a registry axis, this bench answers the deferred
question through the real evaluation stack: integrity jobs (MAC, the
uncached Merkle tree, cached trees across a node-cache sweep, all over
the paper's OTP+SNC scheme) merged, scheduled, cached and priced exactly
like figure jobs, with each provider's byte-free timing model riding the
same trace pass.

As a script it emits ``BENCH_integrity.json`` (slowdowns, hashes per
verification and node-cache hit rates; CI uploads it)::

    python benchmarks/bench_ablation_integrity.py \\
        --scale 20000:30000 --jobs 2 --output BENCH_integrity.json

Under pytest it benchmarks one integrity sweep and asserts the
invariants: the cached tree hits its node cache (the uncached tree never
does) and is strictly cheaper in priced cycles, and per-line MACs verify
a replayed (line, tag) pair — the blindness that motivates the tree.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.eval.api import (
    INTEGRITY_NODE_CACHE_SIZES,
    INTEGRITY_WORKLOADS,
    QUICK_SCALE,
    ResultCache,
    default_cache_dir,
    format_integrity_table,
    integrity_jobs,
    integrity_slowdowns,
    integrity_table_keys,
    parse_scale,
    run_jobs,
)
from repro.secure.integrity import HashTreeIntegrity, MACIntegrity

_LINE = bytes(range(128))


def run_sweep(workloads=INTEGRITY_WORKLOADS, scale=None, n_jobs=1,
              cache=None, seed=1, progress=None):
    """Integrity jobs -> scheduler -> {workload: events}."""
    return run_jobs(
        integrity_jobs(workloads, scale=scale or QUICK_SCALE, seed=seed),
        n_jobs=n_jobs, cache=cache, progress=progress,
    )


# ------------------------------------------------------------------ pytest


def test_node_cache_cuts_hash_work(benchmark, record_figure):
    """The Gassend trade, measured through the job pipeline: the cached
    tree stops verification walks at trusted ancestors, so it hits its
    node cache (the uncached tree cannot), computes fewer verify hashes,
    and is strictly cheaper in priced cycles for every workload."""
    events = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    record_figure("ablation_integrity", format_integrity_table(events))

    for name, bench_events in events.items():
        uncached = bench_events.integrity["tree"]
        cached = bench_events.integrity[
            f"tree_nc{max(INTEGRITY_NODE_CACHE_SIZES)}"
        ]
        assert uncached.node_cache_hits == 0
        assert cached.node_cache_hits > uncached.node_cache_hits, name
        assert cached.verify_hashes < uncached.verify_hashes, name
        slowdowns = integrity_slowdowns(bench_events)
        for entries in INTEGRITY_NODE_CACHE_SIZES:
            assert slowdowns[f"tree_nc{entries}"] < slowdowns["tree"], name
        # The axis orders as the threat model says it must: free "none",
        # flat-cost MAC, then trees.
        assert slowdowns["none"] < slowdowns["mac"] < slowdowns["tree"]


def test_mac_replay_blindness():
    """A stale (line, tag) pair is authentic: per-line MACs verify the
    replay that the root-anchored tree rejects — the documented reason
    ``detects`` excludes ``replay`` for the MAC spec."""
    mac = MACIntegrity(b"bench-key")
    mac.record_line(0, _LINE)
    stale_tag = mac.tag_table[0]
    fresh = bytes(reversed(_LINE))
    mac.record_line(0, fresh)
    mac.tag_table[0] = stale_tag  # adversary rolls tag and line back
    mac.verify_line(0, _LINE)  # no exception: replay undetected
    assert mac.stats.failures == 0


def test_memoized_verify_throughput(benchmark):
    tree = HashTreeIntegrity(base_addr=0, n_lines=256)
    for line in range(256):
        tree.record_line(line * 128, _LINE)
    benchmark(tree.verify_line, 0, _LINE)


# ------------------------------------------------------------------ script


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=parse_scale, default=QUICK_SCALE,
                        help="'full', 'quick' (default) or "
                             "'warmup:measure' reference counts")
    parser.add_argument("--workloads", nargs="+",
                        default=list(INTEGRITY_WORKLOADS),
                        help="benchmark names "
                             f"(default: {' '.join(INTEGRITY_WORKLOADS)})")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore the on-disk result cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help=f"result cache location "
                             f"(default {default_cache_dir()})")
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_integrity.json"),
                        help="result file (default ./BENCH_integrity.json)")
    args = parser.parse_args()

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    started = time.time()
    events = run_sweep(
        tuple(args.workloads), scale=args.scale, n_jobs=args.jobs,
        cache=cache, seed=args.seed,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    print(f"(wall {time.time() - started:.1f}s)", file=sys.stderr)

    print(format_integrity_table(events))

    configs = {}
    for name, bench_events in sorted(events.items()):
        slowdowns = integrity_slowdowns(bench_events)
        per_config = {}
        for key in integrity_table_keys():
            entry = {"slowdown_pct": round(slowdowns[key], 4)}
            counts = bench_events.integrity.get(key)
            if counts is not None and counts.verifications:
                entry["hashes_per_verify"] = round(
                    counts.verify_hashes / counts.verifications, 4
                )
                entry["node_cache_hit_rate"] = round(
                    counts.node_cache_hits / counts.verifications, 4
                )
            per_config[key] = entry
        configs[name] = per_config

    payload = {
        "benchmark": "integrity_ablation",
        "workloads": configs,
        "node_cache_sizes": list(INTEGRITY_NODE_CACHE_SIZES),
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
