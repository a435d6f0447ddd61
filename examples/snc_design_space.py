"""The paper's evaluation in miniature: sweep the SNC design space.

Declares one :class:`~repro.eval.jobs.Job` per representative
workload — the same job API ``python -m repro.eval`` schedules — runs them
through the experiment scheduler at a reduced scale, and prints:

* the Figure 5/6/7-style SNC geometry sweep;
* a **scheme design-space table** enumerating every protection scheme in
  the registry (:mod:`repro.secure.schemes`) at the paper's default 64KB
  SNC — including the §4.2 ``otp_split`` variant, whose spec registered
  itself from one file;
* the Figure 8 area-equivalence check;
* with ``--scenario``, the §4.3 multi-programmed design space instead: a
  two-task interleave priced under every (switch strategy x SNC
  geometry x scheme) combination, resolved through cached scenario jobs;
* with ``--integrity``, the integrity design space instead: every
  registered integrity provider (:mod:`repro.secure.integrity`) priced
  on top of the paper's scheme, sweeping the trusted node-cache size —
  the Gassend et al. piece the paper defers (§2.2).

The figure sweep runs with a trace store, so
``--jobs N`` exercises the scheduler's lane sharding: three recordings
fan across the workers and, when workers remain, a recording's
configuration lanes split further (progress lines on stderr show the
``... in S shards batch-priced`` passes; the printed tables are
byte-identical at any ``--jobs``).

Run:  python examples/snc_design_space.py [--jobs N] [--scenario]
                                          [--integrity]
"""

import argparse
import sys

from repro.area import figure8_area_check
from repro.eval.api import (
    Job,
    PAPER_LATENCIES,
    ResultCache,
    SCENARIO_SCHEMES,
    SCENARIO_STRATEGIES,
    SimulationScale,
    SNCSpec,
    SourceSpec,
    TraceStore,
    format_integrity_table,
    integrity_jobs,
    run_jobs,
    scenario_jobs,
    scenario_slowdowns,
    standard_snc_specs,
)
from repro.secure.integrity import all_integrities
from repro.secure.schemes import all_schemes, get_scheme
from repro.timing.model import slowdown_pct

SCALE = SimulationScale(warmup_refs=100_000, measure_refs=120_000)
WORKLOADS = ("equake", "mcf", "gcc")  # fits / too big / poisons-NoRepl

#: The --scenario mode's mix and geometry sweep: art+vpr fit the larger
#: SNCs together but straddle the 32KB one, so the strategy x geometry
#: grid shows both arms of the §4.3 trade-off.
SCENARIO_MIX = ("art", "vpr")
SCENARIO_SNC_KEYS = ("lru32", "lru64", "lru128")

#: Every registered scheme that runs an SNC state machine gets a 64KB
#: design-space column; the paper's own scheme keeps the standard
#: "lru64" pricing key, variants get "<scheme>64".
SNC_SCHEMES = tuple(spec.key for spec in all_schemes() if spec.uses_snc)


def scheme_snc_key(scheme_key: str) -> str:
    """The pricing key a scheme's 64KB design-space column uses."""
    return "lru64" if scheme_key == "otp" else f"{scheme_key}64"


def design_space_specs() -> tuple[SNCSpec, ...]:
    """The five standard geometries plus one 64KB spec per SNC scheme."""
    specs = dict(standard_snc_specs())
    for scheme_key in SNC_SCHEMES:
        key = scheme_snc_key(scheme_key)
        if key not in specs:
            specs[key] = SNCSpec(key=key, scheme=scheme_key)
    return tuple(specs.values())


def design_space_jobs() -> list[Job]:
    """One job per workload, sweeping every geometry and scheme."""
    schemes = tuple(
        spec.key for spec in all_schemes() if spec.protection is not None
    )
    return [
        Job(
            table="design-space", schemes=schemes,
            source=SourceSpec.benchmark(name),
            snc_configs=design_space_specs(), scale=SCALE, seed=1,
        )
        for name in WORKLOADS
    ]


def print_geometry_table(all_events) -> None:
    """Figure 5/6/7 in one table: the OTP scheme across SNC geometries."""
    lat = PAPER_LATENCIES
    base_price = get_scheme("baseline").price
    xom_price = get_scheme("xom").price
    otp_price = get_scheme("otp").price
    print(f"{'workload':<10} {'XOM':>8} {'NoRepl':>8} {'LRU-32K':>8} "
          f"{'LRU-64K':>8} {'LRU-128K':>9} {'32-way':>8}   [slowdown %]")
    print("-" * 72)
    for name in WORKLOADS:
        events = all_events[name]
        base = base_price(events.trace_events(), lat)
        row = [slowdown_pct(xom_price(events.trace_events(), lat), base)]
        for key in ("norepl64", "lru32", "lru64", "lru128", "lru64_32way"):
            row.append(
                slowdown_pct(otp_price(events.trace_events(key), lat), base)
            )
        print(f"{name:<10} " + " ".join(f"{value:8.2f}" for value in row))


def print_scheme_table(all_events) -> None:
    """Every registered scheme at the default 64KB SNC, one column each."""
    lat = PAPER_LATENCIES
    base_price = get_scheme("baseline").price
    columns = [
        spec for spec in all_schemes() if spec.protection is not None
    ]
    header = f"{'workload':<10}" + "".join(
        f" {spec.key:>10}" for spec in columns
    )
    print(header + "   [slowdown %, 64KB SNC]")
    print("-" * (len(header) + 4))
    for name in WORKLOADS:
        events = all_events[name]
        base = base_price(events.trace_events(), lat)
        row = []
        for spec in columns:
            snc_key = scheme_snc_key(spec.key) if spec.uses_snc else None
            cycles = spec.price(events.trace_events(snc_key), lat)
            row.append(slowdown_pct(cycles, base))
        print(f"{name:<10}" + "".join(f" {value:10.2f}" for value in row))


def print_scenario_tables(n_jobs: int) -> None:
    """The §4.3 strategy x geometry x scheme slowdown grid.

    Jobs resolve through the on-disk result cache, so re-runs (and any
    scenario the bench script already simulated at this scale) price
    instantly from cached events."""
    jobs = scenario_jobs(SCENARIO_MIX, quantum=2000,
                         snc_keys=SCENARIO_SNC_KEYS, scale=SCALE)
    results = run_jobs(jobs, n_jobs=n_jobs, cache=ResultCache())
    label = jobs[0].source.label
    header = f"{'strategy':<9} {'scheme':<10}" + "".join(
        f" {key:>10}" for key in SCENARIO_SNC_KEYS
    )
    print(f"context-switch design space: {label}   [slowdown %]")
    print(header)
    print("-" * len(header))
    for strategy in SCENARIO_STRATEGIES:
        events = results[f"{label}/{strategy}"]
        for scheme in SCENARIO_SCHEMES:
            row = f"{strategy:<9} {scheme:<10}"
            for key in SCENARIO_SNC_KEYS:
                value = scenario_slowdowns(events, (scheme,), key)[scheme]
                row += f" {value:>10.2f}"
            print(row)


def print_integrity_table(n_jobs: int) -> None:
    """The integrity design space: every provider's cost over OTP+SNC.

    Jobs resolve through the on-disk result cache like the scenario
    mode, so re-runs price instantly from cached events."""
    names = ", ".join(spec.key for spec in all_integrities())
    print(f"registered integrity providers: {names}\n")
    events = run_jobs(integrity_jobs(WORKLOADS, scale=SCALE),
                      n_jobs=n_jobs, cache=ResultCache())
    print(format_integrity_table(events))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep (default 1)")
    parser.add_argument("--trace-cache-dir", default=None, metavar="DIR",
                        help="recorded-stream store for the figure sweep "
                             "(default: the user-level trace cache)")
    parser.add_argument("--scenario", action="store_true",
                        help="print the §4.3 multi-programmed strategy x "
                             "SNC-config table instead of the figure "
                             "sweep")
    parser.add_argument("--integrity", action="store_true",
                        help="print the integrity design space (every "
                             "registered provider over OTP+SNC, node-"
                             "cache sweep) instead of the figure sweep")
    args = parser.parse_args()

    if args.integrity:
        print_integrity_table(args.jobs)
        return

    names = ", ".join(spec.key for spec in all_schemes())
    print(f"registered protection schemes: {names}\n")

    if args.scenario:
        print_scenario_tables(args.jobs)
        return

    all_events = run_jobs(
        design_space_jobs(), n_jobs=args.jobs,
        trace_store=TraceStore(args.trace_cache_dir),
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    print_geometry_table(all_events)
    print("\nscheme design space (every registered scheme, priced "
          "through the registry):")
    print_scheme_table(all_events)

    print("\nFigure 8 fairness check (CACTI-style area units):")
    check = figure8_area_check()
    print(f"  256KB 4-way L2 + 64KB 32-way SNC : {check.l2_plus_snc:12.0f}")
    print(f"  320KB 5-way L2                   : {check.l2_320k_5way:12.0f}")
    print(f"  384KB 6-way L2                   : {check.l2_384k_6way:12.0f}")
    print(f"  L2+SNC sits between the two      : {check.holds}")
    print("\n(the full 11-benchmark, full-scale sweep: "
          "pytest benchmarks/ --benchmark-only)")


if __name__ == "__main__":
    main()
