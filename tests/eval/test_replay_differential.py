"""Differential suite: the production engine vs the per-reference oracle.

Production records each source block by block, ships the recording
through the wire form (:mod:`repro.eval.trace_store`) and batch-prices
it event-major (:meth:`~repro.eval.record.Recording.replay_batch`);
:func:`oracle.oracle` drives the L2 and every state machine one
reference at a time.  The two must be *count-exact*.  These tests pin
that with randomized configurations: benchmarks, trace scales, L2
geometries, SNC geometries, registered schemes, integrity specs,
multi-task mixes and both §4.3 switch strategies, asserting every
:class:`~repro.timing.model.SNCEventCounts` and
:class:`~repro.secure.integrity.IntegrityEventCounts` field (and every
aggregate on :class:`~repro.eval.pipeline.BenchmarkEvents`) matches.
"""

from __future__ import annotations

import random
from dataclasses import fields
from itertools import cycle

import pytest

from oracle import oracle

import repro.timing.batch as batch
from repro.errors import ConfigurationError
from repro.eval.pipeline import SimulationScale, standard_snc_configs
from repro.eval.record import ReplayRequest, record_source
from repro.eval.trace_store import recording_from_bytes, recording_to_bytes
from repro.secure.integrity import IntegrityConfig
from repro.secure.snc import SNCConfig, SNCPolicy
from repro.secure.snc_policy import SwitchStrategy
from repro.workloads.sources import (
    TASK_LINE_STRIDE,
    MultiTaskInterleaver,
    SingleBenchmark,
    Switch,
)
from repro.workloads.spec import BY_NAME

#: Valid baseline-L2 geometries (set count must be a power of two).
L2_GEOMETRIES = ((2048, 4), (1024, 8), (512, 4), (1024, 2))

SCALES = (
    SimulationScale(warmup_refs=4_000, measure_refs=8_000),
    SimulationScale(warmup_refs=0, measure_refs=10_000),  # no boundary
    SimulationScale(warmup_refs=7_000, measure_refs=5_000),
)

#: SNC configuration pool: every policy/geometry/scheme axis the
#: evaluation exercises, small enough that capacity effects trigger.
SNC_POOL = (
    ("lru_small", SNCConfig(size_bytes=8 * 1024), "otp"),
    ("norepl", SNCConfig(size_bytes=8 * 1024,
                         policy=SNCPolicy.NO_REPLACEMENT), "otp"),
    ("lru_assoc", SNCConfig(size_bytes=16 * 1024, assoc=32), "otp"),
    ("split", SNCConfig(size_bytes=8 * 1024), "otp_split"),
    ("split_assoc", SNCConfig(size_bytes=16 * 1024, assoc=16),
     "otp_split"),
    # LRU geometries the stack-distance tier groups: two lanes sharing
    # a set count (1024), more fully associative capacities, a 64-way
    # lane and a capacity beyond any recording's distinct lines here.
    ("lru_16k_8way", SNCConfig(size_bytes=16 * 1024, assoc=8), "otp"),
    ("lru_64k_32way", SNCConfig(size_bytes=64 * 1024, assoc=32), "otp"),
    ("lru_4k", SNCConfig(size_bytes=4 * 1024), "otp"),
    ("lru_32k", SNCConfig(size_bytes=32 * 1024), "otp"),
    ("lru_64way", SNCConfig(size_bytes=16 * 1024, assoc=64), "otp"),
    ("lru_256k", SNCConfig(size_bytes=256 * 1024), "otp"),
)

#: The pool's plain LRU lanes: everything the stack-distance tier takes.
TIER_KEYS = ("lru_small", "lru_assoc", "lru_16k_8way", "lru_64k_32way",
             "lru_4k", "lru_32k", "lru_64way", "lru_256k")

INTEGRITY_POOL = (
    ("mac", "mac", 0),
    ("tree", "hash_tree", 0),
    ("tree_nc", "hash_tree_cached", 128),
)


def _draw_snc(rng: random.Random):
    picks = rng.sample(SNC_POOL, rng.randint(1, 3))
    configs = {key: config for key, config, _scheme in picks}
    schemes = {key: scheme for key, _config, scheme in picks}
    return configs, schemes


def _draw_integrity(rng: random.Random):
    if rng.random() < 0.5:
        return None, None
    picks = rng.sample(INTEGRITY_POOL, rng.randint(1, 2))
    configs = {
        key: IntegrityConfig(base_addr=0, n_lines=1 << 19,
                             node_cache_entries=entries)
        for key, _provider, entries in picks
    }
    providers = {key: provider for key, provider, _entries in picks}
    return configs, providers


def assert_events_identical(expected, priced):
    """Field-for-field equality, reported per counter on failure."""
    assert priced.name == expected.name
    for attr in ("read_misses", "allocate_misses", "writebacks",
                 "read_misses_big_l2", "allocate_misses_big_l2",
                 "compute_cycles", "xom_slowdown_target",
                 "task_read_misses"):
        assert getattr(priced, attr) == getattr(expected, attr), attr
    assert priced.snc.keys() == expected.snc.keys()
    for key, expected_counts in expected.snc.items():
        priced_counts = priced.snc[key]
        for field in fields(expected_counts):
            assert (
                getattr(priced_counts, field.name)
                == getattr(expected_counts, field.name)
            ), f"snc[{key}].{field.name}"
    assert priced.integrity.keys() == expected.integrity.keys()
    for key, expected_counts in expected.integrity.items():
        priced_counts = priced.integrity[key]
        for field in fields(expected_counts):
            assert (
                getattr(priced_counts, field.name)
                == getattr(expected_counts, field.name)
            ), f"integrity[{key}].{field.name}"
    assert priced == expected  # and the dataclass as a whole


@pytest.fixture
def walked(monkeypatch):
    """Every lane geometry the batch pricer hands each walk."""
    lanes = {"stack": [], "ranks": []}

    def spy(name):
        walk = getattr(batch, f"price_{name}")

        def spied(geometries, *args):
            lanes[name].extend(geometries)
            return walk(geometries, *args)
        monkeypatch.setattr(batch, f"price_{name}", spied)

    spy("stack")
    spy("ranks")
    return lanes


def _round_trip(recording):
    """Price what a worker or a warm store would see, not the in-memory
    object the recorder returned."""
    return recording_from_bytes(recording_to_bytes(recording))


@pytest.mark.parametrize("case", range(6))
def test_benchmark_differential(case, walked):
    """Randomized figure-path configurations: oracle == production."""
    rng = random.Random(0xD1F + case)
    recording = None
    # Some (benchmark, scale, L2 geometry) draws see zero measured load
    # misses — both paths reject those identically — so redraw until the
    # cheap record pass accepts the combination.
    for _attempt in range(20):
        bench = BY_NAME[rng.choice(sorted(BY_NAME))]
        scale = rng.choice(SCALES)
        l2_lines, l2_assoc = rng.choice(L2_GEOMETRIES)
        snc_configs, snc_schemes = _draw_snc(rng)
        integrity_configs, integrity_providers = _draw_integrity(rng)
        alt_l2 = rng.random() < 0.5
        seed = rng.randint(1, 99)
        try:
            recording = _round_trip(record_source(
                SingleBenchmark(bench), scale=scale, seed=seed,
                include_alt_l2=alt_l2, l2_lines=l2_lines,
                l2_assoc=l2_assoc,
            ))
            break
        except ConfigurationError:
            continue
    assert recording is not None, "no valid draw in 20 attempts"

    expected = oracle(
        SingleBenchmark(bench), scale=scale, seed=seed,
        snc_configs=snc_configs, snc_schemes=snc_schemes, alt_l2=alt_l2,
        integrity_configs=integrity_configs,
        integrity_providers=integrity_providers,
        l2_lines=l2_lines, l2_assoc=l2_assoc,
    ).events
    batched = recording.replay_batch([ReplayRequest(
        snc_configs=snc_configs, snc_schemes=snc_schemes,
        alt_l2=alt_l2, integrity_configs=integrity_configs,
        integrity_providers=integrity_providers,
    )])[0]
    assert_events_identical(expected, batched)
    assert len(walked["ranks"]) == sum(
        config.policy is SNCPolicy.NO_REPLACEMENT
        for config in snc_configs.values())


@pytest.mark.parametrize("case", range(4))
def test_scenario_differential(case):
    """Randomized §4.3 configurations — multi-task mixes under FLUSH and
    TAG — against one shared recording per mix."""
    rng = random.Random(0x5CE + case)
    recording = None
    for _attempt in range(20):
        n_tasks = rng.randint(2, 3)
        names = rng.sample(sorted(BY_NAME), n_tasks)
        quantum = rng.choice((500, 1_500, 3_000))
        scale = rng.choice(SCALES)
        l2_lines, l2_assoc = rng.choice(L2_GEOMETRIES)
        # FLUSH spills through the in-memory table, which only LRU keeps.
        snc_configs, snc_schemes = _draw_snc(rng)
        while any(config.policy is SNCPolicy.NO_REPLACEMENT
                  for config in snc_configs.values()):
            snc_configs, snc_schemes = _draw_snc(rng)
        integrity_configs, integrity_providers = _draw_integrity(rng)
        seed = rng.randint(1, 99)
        try:
            recording = _round_trip(record_source(
                MultiTaskInterleaver(names, quantum), scale=scale,
                seed=seed, include_alt_l2=False, l2_lines=l2_lines,
                l2_assoc=l2_assoc,
            ))
            break
        except ConfigurationError:
            continue
    assert recording is not None, "no valid draw in 20 attempts"
    strategies = (SwitchStrategy.FLUSH, SwitchStrategy.TAG)
    # Both strategies priced in ONE batch pass: the hardest sharing case
    # (same recording, different switch semantics per request).
    batched = recording.replay_batch([
        ReplayRequest(
            snc_configs=snc_configs, snc_schemes=snc_schemes,
            strategy=strategy, integrity_configs=integrity_configs,
            integrity_providers=integrity_providers,
        )
        for strategy in strategies
    ])
    for strategy, batch_events in zip(strategies, batched):
        expected = oracle(
            MultiTaskInterleaver(names, quantum), scale=scale, seed=seed,
            snc_configs=snc_configs, snc_schemes=snc_schemes,
            strategy=strategy,
            integrity_configs=integrity_configs,
            integrity_providers=integrity_providers,
            l2_lines=l2_lines, l2_assoc=l2_assoc,
        ).events
        assert_events_identical(expected, batch_events)


@pytest.mark.parametrize("scale", SCALES)
def test_every_tier_geometry_in_one_request(scale):
    """All of the tier's LRU geometries priced in one request — four
    fully associative capacities share one stack, 16KB/8-way and
    64KB/32-way share a set count — with and without a warmup
    boundary."""
    pool = {key: config for key, config, _scheme in SNC_POOL}
    configs = {key: pool[key] for key in TIER_KEYS}
    expected = oracle(SingleBenchmark(BY_NAME["gzip"]), scale=scale,
                      snc_configs=configs).events
    recording = _round_trip(record_source(
        SingleBenchmark(BY_NAME["gzip"]), scale=scale, include_alt_l2=False,
    ))
    assert len(set(recording.lines)) < pool["lru_256k"].n_entries
    batched = recording.replay_batch([ReplayRequest(
        snc_configs=configs,
    )])[0]
    assert_events_identical(expected, batched)
    assert batched.snc["lru_4k"].table_spills > 0
    assert batched.snc["lru_256k"].table_spills == 0


def test_single_task_scenario_matches_benchmark_recording():
    """A single-benchmark scenario prices the *same* recording the
    figure path records, so one recording per benchmark serves both
    task kinds."""
    scale = SimulationScale(warmup_refs=5_000, measure_refs=10_000)
    configs = {"lru64": standard_snc_configs()["lru64"]}
    recording = _round_trip(record_source(
        SingleBenchmark(BY_NAME["art"]), scale=scale,
    ))
    expected = oracle(SingleBenchmark(BY_NAME["art"]), scale=scale,
                      snc_configs=configs,
                      strategy=SwitchStrategy.TAG).events
    batched = recording.replay_batch([ReplayRequest(
        snc_configs=configs, strategy=SwitchStrategy.TAG,
    )])[0]
    assert_events_identical(expected, batched)


def test_standard_configs_full_axis():
    """The five standard SNC configurations — the exact figure-table
    axis — price identically, alternate L2 included."""
    scale = SimulationScale(warmup_refs=25_000, measure_refs=25_000)
    expected = oracle(SingleBenchmark(BY_NAME["mcf"]), scale=scale,
                      alt_l2=True).events
    recording = _round_trip(record_source(
        SingleBenchmark(BY_NAME["mcf"]), scale=scale,
    ))
    batched = recording.replay_batch([ReplayRequest(
        snc_configs=standard_snc_configs(), alt_l2=True,
    )])[0]
    assert_events_identical(expected, batched)


class Rotation:
    """A multi-task source that schedules its tasks in a fixed rotation,
    repeats included, so a task can be switched back in right after its
    own quantum (the interleaver always moves on to the next task)."""

    def __init__(self, names, quantum: int, rotation):
        mix = MultiTaskInterleaver(names, quantum)
        self.benchmarks, self.tasks = mix.benchmarks, mix.tasks
        self.quantum, self.rotation = quantum, rotation
        self.name = f"{mix.name}/{'-'.join(map(str, rotation))}"

    def stream(self, seed: int = 1):
        generators = [bench.generator(seed=seed + index)
                      for index, bench in enumerate(self.benchmarks)]
        current = self.rotation[0]
        for following in cycle(self.rotation[1:] + self.rotation[:1]):
            offset = current * TASK_LINE_STRIDE
            for _ in range(self.quantum):
                line, is_write = next(generators[current])
                yield line + offset, is_write
            yield Switch(current, following)
            current = following


_SWITCH_SCALE = SimulationScale(warmup_refs=4_000, measure_refs=8_000)

#: §4.3 streams for the tier: each source with a scale its mix clears
#: the initialization phase at.
SWITCH_STREAMS = {
    "reset inside a quantum": (MultiTaskInterleaver(["art", "vpr"], 1_500),
                               _SWITCH_SCALE),
    "one-reference quanta": (MultiTaskInterleaver(["art", "vpr"], 1),
                             _SWITCH_SCALE),
    "three tasks": (MultiTaskInterleaver(["equake", "mesa", "vpr"], 700),
                    _SWITCH_SCALE),
    "switch back to the same task": (Rotation(["art", "vpr"], 700,
                                              (0, 1, 1)), _SWITCH_SCALE),
}

#: LRU lanes under both schemes, fully and set associative (two lanes
#: share a set count); the 2KB lanes fill inside a quantum.  Few sets
#: each: every FLUSH switch visits each occupied set on the per-event
#: paths.
SWITCH_SNCS = {
    "lru2k": (SNCConfig(size_bytes=2 * 1024), "otp"),
    "split2k": (SNCConfig(size_bytes=2 * 1024), "otp_split"),
    "lru8k": (SNCConfig(size_bytes=8 * 1024), "otp"),
    "split4k_32way": (SNCConfig(size_bytes=4 * 1024, assoc=32),
                      "otp_split"),
    "lru8k_64way": (SNCConfig(size_bytes=8 * 1024, assoc=64), "otp"),
}

#: No-replacement lanes, which only TAG can switch: two fully
#: associative capacities and a split-counter lane share one walk.
TAG_SNCS = {
    "norepl2k": (SNCConfig(size_bytes=2 * 1024,
                           policy=SNCPolicy.NO_REPLACEMENT), "otp"),
    "norepl8k": (SNCConfig(size_bytes=8 * 1024,
                           policy=SNCPolicy.NO_REPLACEMENT), "otp"),
    "split_norepl4k_32way": (SNCConfig(size_bytes=4 * 1024, assoc=32,
                                       policy=SNCPolicy.NO_REPLACEMENT),
                             "otp_split"),
}


@pytest.mark.parametrize("name", sorted(SWITCH_STREAMS))
def test_switch_stream_tier_differential(name, walked, monkeypatch):
    """FLUSH over LRU lanes and TAG over LRU and no-replacement lanes,
    otp and otp_split: the oracle, the walks and the per-event loop all
    count alike, and the walks take every lane."""
    source, scale = SWITCH_STREAMS[name]
    lanes = {
        SwitchStrategy.FLUSH: SWITCH_SNCS,
        SwitchStrategy.TAG: {**SWITCH_SNCS, **TAG_SNCS},
    }
    recording = _round_trip(record_source(source, scale=scale,
                                          include_alt_l2=False))
    requests = [
        ReplayRequest(
            snc_configs={key: config for key, (config, _) in snccs.items()},
            snc_schemes={key: scheme for key, (_, scheme) in snccs.items()},
            strategy=strategy)
        for strategy, snccs in lanes.items()
    ]
    walks = recording.replay_batch(requests)
    assert len(walked["stack"]) == len(lanes) * len(SWITCH_SNCS)
    assert len(walked["ranks"]) == len(TAG_SNCS)
    monkeypatch.setattr(batch, "_lane_walks",
                        lambda sims, *_args: [None] * len(sims))
    per_event = recording.replay_batch(requests)
    for request, walk_events, per_event_events in zip(requests, walks,
                                                      per_event):
        expected = oracle(source, scale=scale,
                          snc_configs=request.snc_configs,
                          snc_schemes=request.snc_schemes,
                          strategy=request.strategy).events
        assert_events_identical(expected, walk_events)
        assert_events_identical(expected, per_event_events)
        flush = request.strategy is SwitchStrategy.FLUSH
        for counts in expected.snc.values():
            assert counts.switches > 0
            assert (counts.switch_spills > 0) == flush
        if not flush:
            assert expected.snc["norepl2k"].rejected_updates > 0
