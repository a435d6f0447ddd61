"""Ablation: the integrity extension's verification cost (§2.2 deferred).

The paper defers integrity to Gassend et al.'s cached hash trees.  Since
integrity became a registry axis, this bench answers the deferred
question through the real evaluation stack: integrity jobs (MAC, the
uncached Merkle tree, cached trees across a node-cache sweep, all over
the paper's OTP+SNC scheme) merged, scheduled, cached and priced exactly
like figure jobs, with each provider's byte-free timing model riding the
same trace pass.

As a script it emits ``BENCH_integrity.json`` (slowdowns, hashes per
verification, node-cache hit rates, and the measured speedup of the
leaf-path memoization in the functional hash tree; CI uploads it)::

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


def measure_path_memoization(verify_lines: int = 128,
                             verify_rounds: int = 2,
                             path_lines: int = 2048,
                             path_rounds: int = 16) -> dict[str, dict]:
    """Measure the leaf-path memoization two ways.

    ``path_arithmetic`` times the memoized piece in isolation — the
    leaf-address -> ancestor-index chain of a full-depth tree — which is
    where the memoization's real speedup lives.  ``verify`` times the
    whole functional ``verify_line`` on a small filled tree for the
    end-to-end number; there the pure-Python SHA-256 dominates (about
    1.5 ms per node), so expect that speedup to sit near 1.0x — the
    honest denominator the JSON records alongside the arithmetic win.
    """
    results: dict[str, dict] = {}

    timings: dict[str, float] = {}
    for label, memoize in (("unmemoized", False), ("memoized", True)):
        tree = HashTreeIntegrity(base_addr=0, n_lines=1 << 19,
                                 memoize_paths=memoize)
        path = tree._path
        addrs = [line * 128 for line in range(path_lines)]
        started = time.perf_counter()
        for _ in range(path_rounds):
            for addr in addrs:
                path(addr)
        timings[label] = time.perf_counter() - started
    timings["speedup"] = timings["unmemoized"] / timings["memoized"]
    results["path_arithmetic"] = timings

    trees = {}
    timings = {"unmemoized": 0.0, "memoized": 0.0}
    for label, memoize in (("unmemoized", False), ("memoized", True)):
        tree = HashTreeIntegrity(base_addr=0, n_lines=verify_lines,
                                 memoize_paths=memoize)
        for line in range(verify_lines):
            tree.record_line(line * 128, _LINE)
        trees[label] = tree
    # Interleave the rounds so clock drift and GC hit both variants
    # equally — the absolute numbers are SHA-256-bound either way.
    for _ in range(verify_rounds):
        for label, tree in trees.items():
            verify = tree.verify_line
            started = time.perf_counter()
            for line in range(verify_lines):
                verify(line * 128, _LINE)
            timings[label] += time.perf_counter() - started
    timings["speedup"] = timings["unmemoized"] / timings["memoized"]
    results["verify"] = timings
    return results


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


def test_path_memoization_is_count_transparent():
    """Memoizing the leaf->root index arithmetic must not change a
    single counter or verdict — only the wall clock."""
    trees = [
        HashTreeIntegrity(base_addr=0, n_lines=64, node_cache_entries=16,
                          memoize_paths=memoize)
        for memoize in (False, True)
    ]
    for tree in trees:
        for line in range(64):
            tree.record_line(line * 128, _LINE)
        for line in range(64):
            tree.verify_line(line * 128, _LINE)
    assert trees[0].stats == trees[1].stats
    assert trees[0].node_store == trees[1].node_store


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

    memoization = measure_path_memoization()
    arithmetic = memoization["path_arithmetic"]
    verify = memoization["verify"]
    print(
        f"leaf-path memoization: arithmetic "
        f"{arithmetic['unmemoized']:.3f}s -> "
        f"{arithmetic['memoized']:.3f}s "
        f"({arithmetic['speedup']:.1f}x); full verify "
        f"{verify['unmemoized']:.3f}s -> {verify['memoized']:.3f}s "
        f"({verify['speedup']:.2f}x, hash-dominated)",
        file=sys.stderr,
    )

    payload = {
        "benchmark": "integrity_ablation",
        "workloads": configs,
        "node_cache_sizes": list(INTEGRITY_NODE_CACHE_SIZES),
        "path_memoization": {
            block: {key: round(value, 4) for key, value in values.items()}
            for block, values in memoization.items()
        },
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
