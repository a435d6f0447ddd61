"""The stack-distance tier (:mod:`repro.timing.stack`) and its routing.

The tier prices every no-switch LRU SNC lane of a batch from stack
distances instead of simulating each lane.  Its unit tests compare it
with one ``OrderedDict`` LRU per lane on synthetic columns; the routing
tests pin which lanes :func:`~repro.timing.batch.replay_events_batch`
hands it and that a request mixing tier and batch lanes comes back
whole and in order.
"""

from __future__ import annotations

import random
from array import array
from collections import OrderedDict
from dataclasses import asdict

import pytest

import repro.timing.batch as batch
from repro.eval.jobs import (
    IntegrityModelSpec,
    SimulationTask,
    SNCSpec,
    price_batch,
    task_lanes,
)
from repro.eval.pipeline import SimulationScale, _build_sims
from repro.eval.record import ReplayRequest, record_source
from repro.secure.snc import SNCConfig, SNCPolicy
from repro.secure.snc_policy import SwitchStrategy
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_RESET,
    EVENT_WRITEBACK,
)
from repro.timing.stack import price_stack
from repro.workloads.sources import MultiTaskInterleaver, SingleBenchmark
from repro.workloads.spec import BY_NAME

#: ``(n_sets, ways)`` lanes: three fully associative capacities, two
#: set counts shared by lanes of different associativity, and a 64-way
#: lane deeper than the synthetic streams' distinct-line count.
GEOMETRIES = ((1, 4), (1, 16), (1, 128), (4, 2), (4, 8), (2, 32), (8, 4),
              (2, 64))

_SCALE = SimulationScale(warmup_refs=20_000, measure_refs=20_000)


def lru_counters(n_sets: int, ways: int, kinds, lines) -> tuple:
    """One lane as one ``OrderedDict`` LRU per set, counted in the batch
    pricer's ``_COUNTERS`` order."""
    sets = [OrderedDict() for _ in range(n_sets)]
    window = [0] * 9  # o sm dr al uh um rj tf tp, zeroed at a RESET
    life = [0] * 7  # qh qm sh su ins ev rjs, lifetime
    for kind, line in zip(kinds, lines):
        if kind == EVENT_RESET:
            window = [0] * 9
            continue
        entries = sets[line % n_sets]
        hit = line in entries
        if hit:
            entries.move_to_end(line)
        else:
            window[7] += 1
            life[4] += 1
            if len(entries) >= ways:
                entries.popitem(last=False)
                window[8] += 1
                life[5] += 1
            entries[line] = None
        if kind == EVENT_READ:
            window[0 if hit else 1] += 1
            life[0 if hit else 1] += 1
        elif kind == EVENT_ALLOC:
            window[3] += 1
            life[0 if hit else 1] += 1
        else:
            window[4 if hit else 5] += 1
            life[2 if hit else 3] += 1
    return tuple(window + life)


def _columns(events):
    kinds = array("B", (kind for kind, _line in events))
    lines = array("Q", (line for _kind, line in events))
    return kinds, lines


def _random_events(seed: int, n: int = 3_000, span: int = 96):
    rng = random.Random(seed)
    kinds = (EVENT_READ, EVENT_READ, EVENT_ALLOC, EVENT_WRITEBACK)
    return [(rng.choice(kinds), int(rng.triangular(0, span, 0)))
            for _ in range(n)]


def _with_resets(events, *positions):
    events = list(events)
    for position in sorted(positions, reverse=True):
        events.insert(position, (EVENT_RESET, 0))
    return events


STREAMS = {
    "warmup boundary": _with_resets(_random_events(1), 1_200),
    "no reset": _random_events(2),
    "reset first": _with_resets(_random_events(3), 0),
    "reset last": _with_resets(_random_events(4), 3_000),
    "two resets": _with_resets(_random_events(5), 700, 2_100),
    "one repeated line": _with_resets(
        [(EVENT_WRITEBACK if i % 3 else EVENT_READ, 5) for i in range(50)],
        20),
    "line 0 only": [(EVENT_ALLOC, 0), (EVENT_READ, 0), (EVENT_RESET, 0),
                    (EVENT_WRITEBACK, 0)],
    "empty": [],
    "reset only": [(EVENT_RESET, 0)],
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_tier_matches_one_lru_per_lane(name):
    kinds, lines = _columns(STREAMS[name])
    expected = [lru_counters(n_sets, ways, kinds, lines)
                for n_sets, ways in GEOMETRIES]
    assert price_stack(GEOMETRIES, kinds, lines) == expected


def test_line_zero_is_a_line():
    # Line 0 shares set 0 with the RESET marker's line field; only the
    # accesses may count.
    events = [(EVENT_READ, 0), (EVENT_READ, 4), (EVENT_RESET, 0),
              (EVENT_READ, 8), (EVENT_READ, 0)]
    kinds, lines = _columns(events)
    [counters] = price_stack([(4, 2)], kinds, lines)
    assert counters == lru_counters(4, 2, kinds, lines)
    # Window: 8 misses and evicts 0, then 0 misses and evicts 4.
    assert counters[:9] == (0, 2, 0, 0, 0, 0, 0, 2, 2)


def test_lane_order_and_duplicates_are_kept():
    kinds, lines = _columns(STREAMS["warmup boundary"])
    geometries = [(8, 4), (1, 16), (8, 4), (1, 4)]
    assert price_stack(geometries, kinds, lines) == [
        lru_counters(n_sets, ways, kinds, lines)
        for n_sets, ways in geometries
    ]


# ------------------------------------------------------------- routing


@pytest.fixture(scope="module")
def recording():
    return record_source(SingleBenchmark(BY_NAME["equake"]), scale=_SCALE,
                         include_alt_l2=False)


@pytest.fixture
def tier_calls(monkeypatch):
    """Every ``geometries`` list the batch pricer hands the tier."""
    calls = []

    def spy(geometries, kinds, lines):
        calls.append(list(geometries))
        return price_stack(geometries, kinds, lines)

    monkeypatch.setattr(batch, "price_stack", spy)
    return calls


def _batch_only(monkeypatch):
    monkeypatch.setattr(batch, "_stack_lanes",
                        lambda sims, *_args: [False] * len(sims))


MIXED = (
    SNCSpec(key="a_lru16k_8way", size_bytes=16 * 1024, assoc=8),
    SNCSpec(key="b_norepl", size_bytes=8 * 1024,
            policy=SNCPolicy.NO_REPLACEMENT.value),
    SNCSpec(key="c_lru8k", size_bytes=8 * 1024),
    SNCSpec(key="d_split", size_bytes=8 * 1024, scheme="otp_split"),
    SNCSpec(key="e_lru64k_32way", size_bytes=64 * 1024, assoc=32),
    SNCSpec(key="f_lru32k", size_bytes=32 * 1024),
)


def _mixed_task(integrity=()):
    return SimulationTask(workload="equake", snc_configs=MIXED, scale=_SCALE,
                          integrity=integrity)


def test_only_plain_lru_lanes_take_the_tier(recording, tier_calls):
    integrity = (IntegrityModelSpec(key="mac", provider="mac"),)
    price_batch([_mixed_task(integrity)], recording)
    assert tier_calls == [[(1024, 8), (1, 4096), (1024, 32), (1, 16384)]]


def test_mixed_request_returns_canonical_lane_order(recording,
                                                    monkeypatch):
    integrity = (IntegrityModelSpec(key="mac", provider="mac"),)
    task = _mixed_task(integrity)
    [events] = price_batch([task], recording)
    assert tuple([("snc", key) for key in events.snc] + [
        ("integrity", key) for key in events.integrity]) == task_lanes(task)
    _batch_only(monkeypatch)
    [expected] = price_batch([task], recording)
    assert events == expected


def test_switch_streams_stay_on_batch(tier_calls):
    scenario = record_source(MultiTaskInterleaver(["art", "vpr"], 1_000),
                             scale=_SCALE, include_alt_l2=False)
    configs = {"lru8k": SNCConfig(size_bytes=8 * 1024)}
    strategies = (SwitchStrategy.FLUSH, SwitchStrategy.TAG)
    scenario.replay_batch([
        ReplayRequest(snc_configs=configs, strategy=strategy)
        for strategy in strategies
    ])
    # Even with every writeback owned by the first task, a switch
    # stream is not one task's LRU stack: FLUSH empties the SNC.
    first = scenario.tasks[0].xom_id
    aux = array("Q", (first if kind == EVENT_WRITEBACK else owner
                      for kind, owner in zip(scenario.kinds, scenario.aux)))
    for strategy in strategies:
        sims = _build_sims(configs, None, strategy)
        for sim in sims.values():
            sim.begin_task(first)
        batch.replay_events_batch(list(sims.values()), [], scenario.kinds,
                                  scenario.lines, aux)
    assert tier_calls == []


def test_warm_snc_stays_on_batch(recording, tier_calls, monkeypatch):
    # The tier assumes an empty SNC; a sim warmed by per-event calls
    # keeps its state on the batch pass.
    configs = {"lru8k": SNCConfig(size_bytes=8 * 1024)}

    def price():
        [sim] = _build_sims(configs, None).values()
        for line in range(64):
            sim.read_miss(line)
        batch.replay_events_batch([sim], [], recording.kinds,
                                  recording.lines, recording.aux)
        return asdict(sim.counts), asdict(sim.snc.stats)

    warm = price()
    assert tier_calls == []
    _batch_only(monkeypatch)
    assert price() == warm


def test_foreign_writeback_owner_stays_on_batch(recording, tier_calls):
    # A writeback owned by another task takes the descheduled path.
    aux = array("Q", recording.aux)
    aux[recording.kinds.index(EVENT_WRITEBACK)] = 7
    sims = _build_sims({"lru8k": SNCConfig(size_bytes=8 * 1024)}, None)
    batch.replay_events_batch(list(sims.values()), [], recording.kinds,
                              recording.lines, aux)
    assert tier_calls == []


def test_tier_stats_equal_the_batch_pricer(recording, monkeypatch):
    configs = {spec.key: spec.to_config() for spec in MIXED
               if spec.scheme == "otp"}

    def price():
        sims = _build_sims(configs, None)
        batch.replay_events_batch(list(sims.values()), [],
                                  recording.kinds, recording.lines,
                                  recording.aux)
        return {key: (asdict(sim.counts), asdict(sim.snc.stats))
                for key, sim in sims.items()}

    tier = price()
    assert tier["c_lru8k"][1]["evictions"] > 0  # capacity bites
    _batch_only(monkeypatch)
    assert tier == price()
