"""Differential suite: the production engine vs the per-reference oracle.

Production records each source block by block, ships the recording
through the wire form (:mod:`repro.eval.trace_store`) and batch-prices
it event-major (:func:`~repro.eval.jobs.price_batch`, one
:class:`~repro.eval.jobs.Task` per configuration set);
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

from oracle import oracle, pricing_task

import repro.timing.batch as batch
from repro.errors import ConfigurationError
from repro.eval.jobs import (
    IntegrityModelSpec,
    SNCSpec,
    price_batch,
    standard_snc_specs,
)
from repro.eval.pipeline import SimulationScale
from repro.eval.record import record_source
from repro.eval.trace_store import recording_from_bytes, recording_to_bytes
from repro.secure.snc import SNCPolicy
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

NOREPL = SNCPolicy.NO_REPLACEMENT.value

#: SNC configuration pool: every policy/geometry/scheme axis the
#: evaluation exercises, small enough that capacity effects trigger.
SNC_POOL = (
    SNCSpec("lru_small", size_bytes=8 * 1024),
    SNCSpec("norepl", size_bytes=8 * 1024, policy=NOREPL),
    SNCSpec("lru_assoc", size_bytes=16 * 1024, assoc=32),
    SNCSpec("split", size_bytes=8 * 1024, scheme="otp_split"),
    SNCSpec("split_assoc", size_bytes=16 * 1024, assoc=16,
            scheme="otp_split"),
    # LRU geometries the stack-distance tier groups: two lanes sharing
    # a set count (1024), more fully associative capacities, a 64-way
    # lane and a capacity beyond any recording's distinct lines here.
    SNCSpec("lru_16k_8way", size_bytes=16 * 1024, assoc=8),
    SNCSpec("lru_64k_32way", size_bytes=64 * 1024, assoc=32),
    SNCSpec("lru_4k", size_bytes=4 * 1024),
    SNCSpec("lru_32k", size_bytes=32 * 1024),
    SNCSpec("lru_64way", size_bytes=16 * 1024, assoc=64),
    SNCSpec("lru_256k", size_bytes=256 * 1024),
)
POOL_BY_KEY = {spec.key: spec for spec in SNC_POOL}

#: The pool's plain LRU lanes: everything the stack-distance tier takes.
TIER_KEYS = ("lru_small", "lru_assoc", "lru_16k_8way", "lru_64k_32way",
             "lru_4k", "lru_32k", "lru_64way", "lru_256k")

INTEGRITY_POOL = (
    IntegrityModelSpec("mac", "mac"),
    IntegrityModelSpec("tree", "hash_tree"),
    IntegrityModelSpec("tree_nc", "hash_tree_cached",
                       node_cache_entries=128),
)


def _draw_snc(rng: random.Random) -> tuple[SNCSpec, ...]:
    return tuple(rng.sample(SNC_POOL, rng.randint(1, 3)))


def _draw_integrity(rng: random.Random) -> tuple[IntegrityModelSpec, ...]:
    if rng.random() < 0.5:
        return ()
    return tuple(rng.sample(INTEGRITY_POOL, rng.randint(1, 2)))


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
        snc = _draw_snc(rng)
        integrity = _draw_integrity(rng)
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
        SingleBenchmark(bench), scale=scale, seed=seed, snc=snc,
        alt_l2=alt_l2, integrity=integrity,
        l2_lines=l2_lines, l2_assoc=l2_assoc,
    ).events
    [batched] = price_batch(
        [pricing_task(snc, alt_l2=alt_l2, integrity=integrity)], recording)
    assert_events_identical(expected, batched)
    assert len(walked["ranks"]) == sum(spec.policy == NOREPL
                                       for spec in snc)


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
        snc = _draw_snc(rng)
        while any(spec.policy == NOREPL for spec in snc):
            snc = _draw_snc(rng)
        integrity = _draw_integrity(rng)
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
    strategies = ("flush", "tag")
    # Both strategies priced in ONE batch pass: the hardest sharing case
    # (same recording, different switch semantics per task).
    batched = price_batch([
        pricing_task(snc, strategy, integrity=integrity)
        for strategy in strategies
    ], recording)
    for strategy, batch_events in zip(strategies, batched):
        expected = oracle(
            MultiTaskInterleaver(names, quantum), scale=scale, seed=seed,
            snc=snc, strategy=strategy, integrity=integrity,
            l2_lines=l2_lines, l2_assoc=l2_assoc,
        ).events
        assert_events_identical(expected, batch_events)


@pytest.mark.parametrize("scale", SCALES)
def test_every_tier_geometry_in_one_request(scale):
    """All of the tier's LRU geometries priced in one task — four
    fully associative capacities share one stack, 16KB/8-way and
    64KB/32-way share a set count — with and without a warmup
    boundary."""
    snc = tuple(POOL_BY_KEY[key] for key in TIER_KEYS)
    expected = oracle(SingleBenchmark(BY_NAME["gzip"]), scale=scale,
                      snc=snc).events
    recording = _round_trip(record_source(
        SingleBenchmark(BY_NAME["gzip"]), scale=scale, include_alt_l2=False,
    ))
    assert (len(set(recording.lines))
            < POOL_BY_KEY["lru_256k"].to_config().n_entries)
    [batched] = price_batch([pricing_task(snc)], recording)
    assert_events_identical(expected, batched)
    assert batched.snc["lru_4k"].table_spills > 0
    assert batched.snc["lru_256k"].table_spills == 0


def test_single_task_scenario_matches_benchmark_recording():
    """A single-benchmark scenario prices the *same* recording the
    figure path records, so one recording per benchmark serves both
    task kinds."""
    scale = SimulationScale(warmup_refs=5_000, measure_refs=10_000)
    snc = (standard_snc_specs()["lru64"],)
    recording = _round_trip(record_source(
        SingleBenchmark(BY_NAME["art"]), scale=scale,
    ))
    expected = oracle(SingleBenchmark(BY_NAME["art"]), scale=scale,
                      snc=snc, strategy="tag").events
    [batched] = price_batch([pricing_task(snc, "tag")], recording)
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
    [batched] = price_batch([pricing_task(alt_l2=True)], recording)
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
SWITCH_SNCS = (
    SNCSpec("lru2k", size_bytes=2 * 1024),
    SNCSpec("split2k", size_bytes=2 * 1024, scheme="otp_split"),
    SNCSpec("lru8k", size_bytes=8 * 1024),
    SNCSpec("split4k_32way", size_bytes=4 * 1024, assoc=32,
            scheme="otp_split"),
    SNCSpec("lru8k_64way", size_bytes=8 * 1024, assoc=64),
)

#: No-replacement lanes, which only TAG can switch: two fully
#: associative capacities and a split-counter lane share one walk.
TAG_SNCS = (
    SNCSpec("norepl2k", size_bytes=2 * 1024, policy=NOREPL),
    SNCSpec("norepl8k", size_bytes=8 * 1024, policy=NOREPL),
    SNCSpec("split_norepl4k_32way", size_bytes=4 * 1024, assoc=32,
            policy=NOREPL, scheme="otp_split"),
)


@pytest.mark.parametrize("name", sorted(SWITCH_STREAMS))
def test_switch_stream_tier_differential(name, walked, monkeypatch):
    """FLUSH over LRU lanes and TAG over LRU and no-replacement lanes,
    otp and otp_split: the oracle, the walks and the per-event loop all
    count alike, and the walks take every lane."""
    source, scale = SWITCH_STREAMS[name]
    tasks = [pricing_task(SWITCH_SNCS, "flush"),
             pricing_task(SWITCH_SNCS + TAG_SNCS, "tag")]
    recording = _round_trip(record_source(source, scale=scale,
                                          include_alt_l2=False))
    walks = price_batch(tasks, recording)
    assert len(walked["stack"]) == len(tasks) * len(SWITCH_SNCS)
    assert len(walked["ranks"]) == len(TAG_SNCS)
    monkeypatch.setattr(batch, "_lane_walks",
                        lambda sims, *_args: [None] * len(sims))
    per_event = price_batch(tasks, recording)
    for task, walk_events, per_event_events in zip(tasks, walks,
                                                   per_event):
        expected = oracle(source, scale=scale, snc=task.snc_configs,
                          strategy=task.strategy).events
        assert_events_identical(expected, walk_events)
        assert_events_identical(expected, per_event_events)
        flush = task.strategy == "flush"
        for counts in expected.snc.values():
            assert counts.switches > 0
            assert (counts.switch_spills > 0) == flush
        if not flush:
            assert expected.snc["norepl2k"].rejected_updates > 0
