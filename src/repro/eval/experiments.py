"""One driver per figure of the paper's evaluation (§5).

Each figure contributes two things:

* a **job declaration** — :func:`figure_jobs` emits one
  :class:`~repro.eval.jobs.Job` per benchmark naming exactly the
  SNC configurations that figure prices (:data:`FIGURE_SNC_KEYS`), the
  registered protection schemes it prices them through
  (:data:`FIGURE_SCHEMES`), and whether it needs the Figure 8 alternate
  L2 (:data:`FIGURES_NEEDING_ALT_L2`) — so the scheduler can merge, cache
  and fan out the simulations and skip what nobody asked for;
* a ``figureN`` **pricing function** that takes the per-benchmark event
  sets and returns a :class:`FigureResult` pairing the paper's published
  series with the reproduced ones.  All pricing resolves through the
  scheme registry (:func:`repro.secure.schemes.get_scheme`); the figure
  bodies only say *which* scheme and SNC key each series uses.  The
  benchmark files in ``benchmarks/`` print these tables; EXPERIMENTS.md
  archives them.

The §4.3 multi-programmed scenarios and the integrity experiment follow
the same declare/price split: :func:`scenario_jobs` and
:func:`integrity_jobs` emit the same :class:`~repro.eval.jobs.Job` (a
scenario job carries a switch strategy), any mix of jobs runs through
:func:`repro.eval.scheduler.run_jobs`, and :func:`scenario_slowdowns` /
:func:`integrity_slowdowns` price the results against the insecure
baseline — see ``docs/scenarios.md``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.eval import paper_data
from repro.eval.jobs import (
    IntegrityModelSpec,
    Job,
    SNCSpec,
    SourceSpec,
    standard_snc_specs,
)
from repro.eval.pipeline import BenchmarkEvents, SimulationScale
from repro.secure.engine import LatencyParams
from repro.secure.schemes import get_scheme
from repro.timing.model import (
    normalized_time,
    slowdown_pct,
    snc_traffic_pct,
)
from repro.workloads.spec import BENCHMARKS

#: The paper's two crypto-latency configurations.
PAPER_LATENCIES = LatencyParams(memory=100, crypto=50, xor=1)
SLOW_CRYPTO_LATENCIES = LatencyParams(memory=100, crypto=102, xor=1)

#: Which SNC configurations each figure prices (keys into
#: :func:`repro.eval.jobs.standard_snc_specs`).
FIGURE_SNC_KEYS: dict[str, tuple[str, ...]] = {
    "figure3": (),
    "figure5": ("norepl64", "lru64"),
    "figure6": ("lru32", "lru64", "lru128"),
    "figure7": ("lru64", "lru64_32way"),
    "figure8": ("lru64_32way",),
    "figure9": ("lru64",),
    "figure10": ("norepl64", "lru64"),
}

#: Which registered protection schemes each figure prices.  (The baseline
#: is always priced too — it is every figure's denominator.)
FIGURE_SCHEMES: dict[str, tuple[str, ...]] = {
    "figure3": ("xom",),
    "figure5": ("xom", "otp"),
    "figure6": ("otp",),
    "figure7": ("otp",),
    "figure8": ("xom", "otp"),
    "figure9": ("otp",),
    "figure10": ("xom", "otp"),
}

#: Figures that price the 384KB alternate L2; everyone else's simulation
#: skips that cache entirely.
FIGURES_NEEDING_ALT_L2 = frozenset({"figure8"})


def figure_jobs(figure_id: str, scale: SimulationScale | None = None,
                seed: int = 1) -> list[Job]:
    """One job per benchmark: what ``figure_id`` needs simulated."""
    if figure_id not in FIGURE_SNC_KEYS:
        raise KeyError(f"unknown figure {figure_id!r}")
    specs = standard_snc_specs()
    snc = tuple(specs[key] for key in FIGURE_SNC_KEYS[figure_id])
    scale = scale or SimulationScale()
    return [
        Job(
            table=figure_id,
            schemes=FIGURE_SCHEMES[figure_id],
            source=SourceSpec.benchmark(bench.name),
            snc_configs=snc,
            scale=scale,
            seed=seed,
            alt_l2=figure_id in FIGURES_NEEDING_ALT_L2,
        )
        for bench in BENCHMARKS
    ]


def plan_jobs(figure_ids: Iterable[str] | None = None,
              scale: SimulationScale | None = None,
              seed: int = 1) -> list[Job]:
    """Every selected figure's jobs (default: all seven figures)."""
    if figure_ids is None:
        figure_ids = FIGURE_SNC_KEYS
    jobs: list[Job] = []
    for figure_id in figure_ids:
        jobs.extend(figure_jobs(figure_id, scale=scale, seed=seed))
    return jobs


@dataclass
class Series:
    """One line/bar group of a figure: paper values vs measured values."""

    label: str
    paper: dict[str, float]
    measured: dict[str, float]
    paper_avg: float

    @property
    def measured_avg(self) -> float:
        values = list(self.measured.values())
        return sum(values) / len(values) if values else 0.0


@dataclass
class FigureResult:
    """A reproduced figure: id, caption, and its series."""

    figure_id: str
    caption: str
    unit: str
    series: list[Series] = field(default_factory=list)

    def series_by_label(self, label: str) -> Series:
        for entry in self.series:
            if entry.label == label:
                return entry
        raise KeyError(label)


def _pricer(scheme_key: str, snc_key: str | None = None,
            alt_l2: bool = False, integrity_key: str | None = None):
    """A (events, latencies) -> cycles closure from the scheme registry."""
    spec = get_scheme(scheme_key)

    def price(events_one: BenchmarkEvents, lat: LatencyParams) -> float:
        return spec.price(
            events_one.trace_events(snc_key, alt_l2=alt_l2,
                                    integrity_key=integrity_key), lat
        )

    return price


_baseline = _pricer("baseline")


def _slowdowns(events: dict[str, BenchmarkEvents], pricer,
               lat: LatencyParams) -> dict[str, float]:
    out = {}
    for name, bench_events in events.items():
        base = _baseline(bench_events, lat)
        out[name] = slowdown_pct(pricer(bench_events, lat), base)
    return out


def figure3(events: dict[str, BenchmarkEvents]) -> FigureResult:
    """XOM slowdown per benchmark (the calibration anchor)."""
    result = FigureResult(
        "figure3",
        "Performance loss due to serial encryption/decryption (XOM)",
        "slowdown [%]",
    )
    result.series.append(Series(
        "XOM", paper_data.FIGURE3_XOM,
        _slowdowns(events, _pricer("xom"), PAPER_LATENCIES),
        paper_data.FIGURE3_XOM_AVG,
    ))
    return result


def figure5(events: dict[str, BenchmarkEvents]) -> FigureResult:
    """XOM vs SNC-NoRepl vs SNC-LRU (64KB SNC)."""
    result = FigureResult(
        "figure5",
        "Performance comparison for XOM, SNC with LRU and no replacement",
        "slowdown [%]",
    )
    result.series.append(Series(
        "XOM", paper_data.FIGURE3_XOM,
        _slowdowns(events, _pricer("xom"), PAPER_LATENCIES),
        paper_data.FIGURE3_XOM_AVG,
    ))
    result.series.append(Series(
        "SNC-NoRepl", paper_data.FIGURE5_SNC_NOREPL,
        _slowdowns(events, _pricer("otp", "norepl64"), PAPER_LATENCIES),
        paper_data.FIGURE5_SNC_NOREPL_AVG,
    ))
    result.series.append(Series(
        "SNC-LRU", paper_data.FIGURE5_SNC_LRU,
        _slowdowns(events, _pricer("otp", "lru64"), PAPER_LATENCIES),
        paper_data.FIGURE5_SNC_LRU_AVG,
    ))
    return result


def figure6(events: dict[str, BenchmarkEvents]) -> FigureResult:
    """SNC capacity sweep: 32KB / 64KB / 128KB, LRU."""
    result = FigureResult(
        "figure6", "Performance comparison for different sized SNC (LRU)",
        "slowdown [%]",
    )
    for label, key, paper, avg in (
        ("32KB", "lru32", paper_data.FIGURE6_SNC_32KB,
         paper_data.FIGURE6_SNC_32KB_AVG),
        ("64KB", "lru64", paper_data.FIGURE6_SNC_64KB,
         paper_data.FIGURE6_SNC_64KB_AVG),
        ("128KB", "lru128", paper_data.FIGURE6_SNC_128KB,
         paper_data.FIGURE6_SNC_128KB_AVG),
    ):
        result.series.append(Series(
            label, paper,
            _slowdowns(events, _pricer("otp", key), PAPER_LATENCIES), avg,
        ))
    return result


def figure7(events: dict[str, BenchmarkEvents]) -> FigureResult:
    """Fully associative vs 32-way set associative 64KB SNC."""
    result = FigureResult(
        "figure7",
        "Fully associative vs 32-way set associative SNC",
        "slowdown [%]",
    )
    result.series.append(Series(
        "fully-assoc", paper_data.FIGURE7_FULLY,
        _slowdowns(events, _pricer("otp", "lru64"), PAPER_LATENCIES),
        paper_data.FIGURE7_FULLY_AVG,
    ))
    result.series.append(Series(
        "32-way", paper_data.FIGURE7_32WAY,
        _slowdowns(events, _pricer("otp", "lru64_32way"), PAPER_LATENCIES),
        paper_data.FIGURE7_32WAY_AVG,
    ))
    return result


def figure8(events: dict[str, BenchmarkEvents]) -> FigureResult:
    """Equal-area comparison: bigger L2 for XOM vs L2 + SNC for OTP."""
    result = FigureResult(
        "figure8", "Impact of a larger L2 cache (area-equalized)",
        "normalized execution time",
    )
    lat = PAPER_LATENCIES
    price_xom = _pricer("xom")
    price_xom_big = _pricer("xom", alt_l2=True)
    price_snc = _pricer("otp", "lru64_32way")
    xom256, xom384, snc = {}, {}, {}
    for name, bench_events in events.items():
        base = _baseline(bench_events, lat)
        xom256[name] = normalized_time(price_xom(bench_events, lat), base)
        xom384[name] = normalized_time(price_xom_big(bench_events, lat),
                                       base)
        snc[name] = normalized_time(price_snc(bench_events, lat), base)
    result.series.append(Series(
        "XOM-256KL2", paper_data.FIGURE8_XOM_256K, xom256,
        paper_data.FIGURE8_XOM_256K_AVG,
    ))
    result.series.append(Series(
        "XOM-384KL2", paper_data.FIGURE8_XOM_384K, xom384,
        paper_data.FIGURE8_XOM_384K_AVG,
    ))
    result.series.append(Series(
        "SNC-32way-LRU-256KL2", paper_data.FIGURE8_SNC_32WAY_256K, snc,
        paper_data.FIGURE8_SNC_32WAY_256K_AVG,
    ))
    return result


def figure9(events: dict[str, BenchmarkEvents]) -> FigureResult:
    """SNC-induced additional memory traffic (64KB LRU SNC)."""
    result = FigureResult(
        "figure9", "SNC induced additional memory traffic",
        "% of L2<->memory traffic",
    )
    measured = {
        name: snc_traffic_pct(bench_events.trace_events("lru64"))
        for name, bench_events in events.items()
    }
    result.series.append(Series(
        "traffic", paper_data.FIGURE9_TRAFFIC, measured,
        paper_data.FIGURE9_TRAFFIC_AVG,
    ))
    return result


def figure10(events: dict[str, BenchmarkEvents]) -> FigureResult:
    """The 102-cycle crypto unit: same events, slower pipeline."""
    result = FigureResult(
        "figure10",
        "Performance with a longer encryption/decryption latency (102)",
        "slowdown [%]",
    )
    lat = SLOW_CRYPTO_LATENCIES
    result.series.append(Series(
        "XOM", paper_data.FIGURE10_XOM,
        _slowdowns(events, _pricer("xom"), lat),
        paper_data.FIGURE10_XOM_AVG,
    ))
    result.series.append(Series(
        "SNC-NoRepl", paper_data.FIGURE10_SNC_NOREPL,
        _slowdowns(events, _pricer("otp", "norepl64"), lat),
        paper_data.FIGURE10_SNC_NOREPL_AVG,
    ))
    result.series.append(Series(
        "SNC-LRU", paper_data.FIGURE10_SNC_LRU,
        _slowdowns(events, _pricer("otp", "lru64"), lat),
        paper_data.FIGURE10_SNC_LRU_AVG,
    ))
    return result


# --------------------------------------------------------------- scenarios

#: The §4.3 design-space defaults: both switch strategies, priced through
#: both SNC-bearing registered schemes.
SCENARIO_STRATEGIES = ("flush", "tag")
SCENARIO_SCHEMES = ("otp", "otp_split")


def scheme_config_key(scheme: str, snc_key: str = "lru64") -> str:
    """The SNC-config pricing key a scheme uses in scenario tables.

    The paper's own scheme keeps the standard geometry key; variants get
    a suffixed key so one task can simulate the same geometry under
    several schemes' state machines."""
    return snc_key if scheme == "otp" else f"{snc_key}+{scheme}"


def scenario_snc_specs(schemes: Iterable[str] = SCENARIO_SCHEMES,
                       snc_key: str = "lru64") -> tuple[SNCSpec, ...]:
    """One SNC spec per scheme, all sharing the ``snc_key`` geometry."""
    base = standard_snc_specs()[snc_key]
    return tuple(
        SNCSpec(
            key=scheme_config_key(scheme, snc_key),
            size_bytes=base.size_bytes,
            entry_bytes=base.entry_bytes,
            assoc=base.assoc,
            policy=base.policy,
            scheme=scheme,
        )
        for scheme in schemes
    )


def scenario_jobs(workloads: Sequence[str], quantum: int = 2000,
                  strategies: Iterable[str] | None = None,
                  schemes: tuple[str, ...] = SCENARIO_SCHEMES,
                  snc_keys: Iterable[str] = ("lru64",),
                  scale: SimulationScale | None = None,
                  seed: int = 1,
                  table: str = "context-switch") -> list[Job]:
    """The §4.3 job matrix: one job per (strategy, SNC geometry) over one
    workload mix.

    ``strategies=None`` means :data:`SCENARIO_STRATEGIES` — except for a
    single workload name, which declares a no-switch scenario (the
    degenerate case the parity tests pin): with no switches the
    strategies are indistinguishable, so the default matrix collapses to
    TAG alone rather than simulating the identical run once per
    strategy.  An explicitly passed ``strategies`` is honored as given.
    """
    strategies = None if strategies is None else tuple(strategies)
    if len(workloads) == 1:
        source = SourceSpec.benchmark(workloads[0])
        if strategies is None:
            strategies = ("tag",)
    else:
        source = SourceSpec(kind="multitask", workloads=tuple(workloads),
                            quantum=quantum)
        if strategies is None:
            strategies = SCENARIO_STRATEGIES
    scale = scale or SimulationScale()
    return [
        Job(
            table=table,
            schemes=schemes,
            source=source,
            snc_configs=scenario_snc_specs(schemes, snc_key),
            scale=scale,
            seed=seed,
            strategy=strategy,
        )
        for strategy in strategies
        for snc_key in snc_keys
    ]


def scenario_slowdowns(events: BenchmarkEvents,
                       schemes: Iterable[str] = SCENARIO_SCHEMES,
                       snc_key: str = "lru64",
                       lat: LatencyParams = PAPER_LATENCIES,
                       ) -> dict[str, float]:
    """Each scheme's slowdown over the insecure baseline for one scenario
    run (the baseline pays the same compute and misses but no SNC or
    switch costs)."""
    base = _baseline(events, lat)
    out = {}
    for scheme in schemes:
        pricer = _pricer(scheme, scheme_config_key(scheme, snc_key))
        out[scheme] = slowdown_pct(pricer(events, lat), base)
    return out


# --------------------------------------------------------------- integrity

#: The integrity experiment's defaults: the paper's SNC geometry, and a
#: node-cache sweep bracketing Gassend et al.'s useful range.
INTEGRITY_SNC_KEY = "lru64"
INTEGRITY_NODE_CACHE_SIZES = (64, 256, 1024)
#: Representative workloads: SNC-friendly / SNC-hostile / in between.
INTEGRITY_WORKLOADS = ("art", "mcf", "equake")


def integrity_model_specs(
    node_cache_sizes: Sequence[int] = INTEGRITY_NODE_CACHE_SIZES,
) -> tuple[IntegrityModelSpec, ...]:
    """One spec per integrity column: MAC, the uncached tree, and one
    cached tree per node-cache size — all simulated in a single trace
    pass per workload."""
    specs = [
        IntegrityModelSpec(key="mac", provider="mac"),
        IntegrityModelSpec(key="tree", provider="hash_tree"),
    ]
    specs.extend(
        IntegrityModelSpec(
            key=f"tree_nc{entries}", provider="hash_tree_cached",
            node_cache_entries=entries,
        )
        for entries in node_cache_sizes
    )
    return tuple(specs)


def integrity_table_keys(
    node_cache_sizes: Sequence[int] = INTEGRITY_NODE_CACHE_SIZES,
) -> tuple[str, ...]:
    """The table's column order: the paper's configuration first, then
    MAC, then trees from most to least expensive."""
    return ("none", "mac", "tree") + tuple(
        f"tree_nc{entries}" for entries in node_cache_sizes
    )


def integrity_jobs(workloads: Sequence[str] = INTEGRITY_WORKLOADS,
                   node_cache_sizes: Sequence[int]
                   = INTEGRITY_NODE_CACHE_SIZES,
                   scale: SimulationScale | None = None,
                   seed: int = 1,
                   scheme: str = "otp",
                   snc_key: str = INTEGRITY_SNC_KEY) -> list[Job]:
    """The slowdown-vs-node-cache-size experiment: one job per workload,
    declaring every integrity column over one SNC geometry.  Scheduled,
    merged and cached exactly like figure jobs."""
    specs = standard_snc_specs()
    scale = scale or SimulationScale()
    return [
        Job(
            table="integrity",
            schemes=(scheme,),
            source=SourceSpec.benchmark(name),
            snc_configs=(specs[snc_key],),
            scale=scale,
            seed=seed,
            integrity=integrity_model_specs(node_cache_sizes),
        )
        for name in workloads
    ]


def integrity_slowdowns(events: BenchmarkEvents,
                        keys: Iterable[str] | None = None,
                        scheme: str = "otp",
                        snc_key: str = INTEGRITY_SNC_KEY,
                        lat: LatencyParams = PAPER_LATENCIES,
                        ) -> dict[str, float]:
    """Slowdown over the insecure baseline for each integrity column of
    one workload's events (``"none"`` = the scheme with no verification,
    i.e. the paper's own number)."""
    base = _baseline(events, lat)
    if keys is None:
        keys = ("none", *sorted(events.integrity))
    out = {}
    for key in keys:
        pricer = _pricer(scheme, snc_key,
                         integrity_key=None if key == "none" else key)
        out[key] = slowdown_pct(pricer(events, lat), base)
    return out


ALL_FIGURES = (figure3, figure5, figure6, figure7, figure8, figure9,
               figure10)

FIGURES_BY_ID = {figure.__name__: figure for figure in ALL_FIGURES}
