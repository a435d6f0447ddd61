"""The walks of :mod:`repro.timing.stack` and the batch pricer's routing.

:func:`~repro.timing.stack.price_stack` prices every LRU SNC lane of a
batch whose core decides as plain Algorithm 1 from stack distances, and
:func:`~repro.timing.stack.price_ranks` every such no-replacement lane
from first-writeback ranks, §4.3 switch streams included.  The unit
tests compare the stack walk with one ``OrderedDict`` LRU per lane on
synthetic single-task columns, and both walks with the per-event
:class:`~repro.timing.model.SNCTimingSim` on synthetic columns and
FLUSH and TAG switch streams; the routing tests pin which lanes
:func:`~repro.timing.batch.replay_events_batch` walks (split-counter
lanes only while no counter overflows) and which take the per-event
loop, and that a task mixing them comes back whole and in order.
"""

from __future__ import annotations

import random
from array import array
from collections import OrderedDict
from dataclasses import asdict

import pytest

import repro.secure.schemes.otp_split as otp_split
import repro.timing.batch as batch
from repro.eval.jobs import (
    IntegrityModelSpec,
    SimulationTask,
    SNCSpec,
    price_batch,
    task_lanes,
)
from repro.eval.pipeline import SimulationScale
from repro.eval.record import record_source
from repro.secure.integrity.__main__ import replay_per_event
from repro.secure.schemes.otp_split import SplitSequenceCore
from repro.secure.snc import SNCConfig, SNCPolicy
from repro.secure.snc_policy import (
    ReadClass,
    ReadDecision,
    SNCPolicyCore,
    SwitchStrategy,
)
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_RESET,
    EVENT_SWITCH,
    EVENT_WRITEBACK,
    SNCTimingSim,
)
from repro.timing.stack import price_ranks, price_stack
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
    return (*window, *life, 0, 0)  # no switches, no switch spills


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


# ------------------------------------------------------ switch streams


def sim_counters(sim: SNCTimingSim) -> tuple:
    """A sim's counts and SNC stats in the batch pricer's ``_COUNTERS``
    order."""
    counts, stats = sim.counts, sim.snc.stats
    return (counts.overlapped_reads, counts.seqnum_miss_reads,
            counts.direct_reads, counts.allocate_queries,
            counts.update_hits, counts.update_misses,
            counts.rejected_updates, counts.table_fetches,
            counts.table_spills, stats.query_hits, stats.query_misses,
            stats.update_hits, stats.update_misses, stats.insertions,
            stats.evictions, stats.rejected, counts.switches,
            counts.switch_spills)


def per_event(sim: SNCTimingSim, kinds, lines, aux) -> SNCTimingSim:
    """Drive ``sim`` one call per event, as the oracle does."""
    for kind, line, owner in zip(kinds, lines, aux):
        if kind == EVENT_READ:
            sim.read_miss(line)
        elif kind == EVENT_ALLOC:
            sim.read_miss(line, critical=False)
        elif kind == EVENT_WRITEBACK:
            sim.writeback(line, owner)
        elif kind == EVENT_SWITCH:
            sim.switch_task(owner)
        else:
            sim.reset_counts()
    return sim


def _config(n_sets: int, ways: int,
            policy: SNCPolicy = SNCPolicy.LRU) -> SNCConfig:
    return SNCConfig(size_bytes=2 * n_sets * ways,
                     assoc=ways if n_sets > 1 else None, policy=policy)


def _switch_events(seed: int, n: int = 3_000, switch_every: float = 90,
                   tasks: int = 3):
    """Three tasks over one shared line range (so one line has several
    owners), a switch about every ``switch_every`` events to a random
    task (itself included), and about a third of the writebacks owned
    by a random task."""
    rng = random.Random(seed)
    events = []
    run = 0
    for _ in range(n):
        if rng.random() < 1 / switch_every:
            run = rng.randrange(tasks)
            events.append((EVENT_SWITCH, 0, run))
            continue
        kind = rng.choice((EVENT_READ, EVENT_READ, EVENT_ALLOC,
                           EVENT_WRITEBACK))
        owner = 0
        if kind == EVENT_WRITEBACK:
            owner = rng.randrange(tasks) if rng.random() < 0.3 else run
        events.append((kind, int(rng.triangular(0, 96, 0)), owner))
    return events


def _with(events, *inserts):
    """``events`` with ``(position, event)`` pairs spliced in."""
    events = list(events)
    for position, event in sorted(inserts, reverse=True):
        events.insert(position, event)
    return events


_RESET = (EVENT_RESET, 0, 0)
SWITCH_STREAMS = {
    "reset inside a window": _with(_switch_events(1), (1_400, _RESET)),
    "no reset": _switch_events(2),
    "two resets": _with(_switch_events(3), (500, _RESET),
                        (2_200, _RESET)),
    "two resets in one window": _with(_switch_events(4, switch_every=10**9),
                                      (900, _RESET), (1_700, _RESET)),
    "a switch every event": _with(_switch_events(5, switch_every=1.5),
                                  (1_000, _RESET)),
    "reset then switch": _with(_switch_events(6, switch_every=10**9),
                               (800, _RESET), (801, (EVENT_SWITCH, 0, 1))),
    "switch then reset": _with(_switch_events(7, switch_every=10**9),
                               (800, (EVENT_SWITCH, 0, 2)), (801, _RESET)),
    "foreign owners, no switch": _switch_events(8, switch_every=10**9),
    "switches at both ends": _with(_switch_events(9), (0, (EVENT_SWITCH,
                                                           0, 1)),
                                   (3_000, (EVENT_SWITCH, 0, 2))),
    "switches only": [(EVENT_SWITCH, 0, task) for task in (1, 0, 0, 2)],
    "empty": [],
}


@pytest.mark.parametrize("strategy", list(SwitchStrategy))
@pytest.mark.parametrize("name", sorted(SWITCH_STREAMS))
def test_tier_matches_the_per_event_sim_on_switch_streams(name, strategy):
    events = SWITCH_STREAMS[name]
    kinds = array("B", (kind for kind, _line, _aux in events))
    lines = array("Q", (line for _kind, line, _aux in events))
    aux = array("Q", (owner for _kind, _line, owner in events))
    expected = []
    for n_sets, ways in GEOMETRIES:
        sim = SNCTimingSim(_config(n_sets, ways), switch_strategy=strategy)
        expected.append(sim_counters(per_event(sim, kinds, lines, aux)))
    assert price_stack(GEOMETRIES, kinds, lines, aux, 0,
                       strategy is SwitchStrategy.FLUSH) == expected


# ------------------------------------------------- no-replacement ranks

#: Rank-walk lanes: the stack's geometries plus a duplicate fully
#: associative capacity.
RANK_GEOMETRIES = GEOMETRIES + ((1, 16),)

#: Set 0 of a 4-set, 2-way lane admits lines 0 and 4 and rejects 8 and
#: 12: reads and allocates before any writeback, of admitted lines and
#: of rejected ones, and rejected lines written again.
ADMISSION = [(EVENT_READ, 8), (EVENT_ALLOC, 4), (EVENT_WRITEBACK, 0),
             (EVENT_WRITEBACK, 4), (EVENT_READ, 0), (EVENT_WRITEBACK, 8),
             (EVENT_READ, 8), (EVENT_ALLOC, 8), (EVENT_WRITEBACK, 8),
             (EVENT_RESET, 0), (EVENT_WRITEBACK, 12), (EVENT_ALLOC, 4),
             (EVENT_READ, 12), (EVENT_WRITEBACK, 0), (EVENT_WRITEBACK, 12),
             (EVENT_READ, 4), (EVENT_READ, 16)]


def _norepl_counters(geometries, kinds, lines, aux) -> list[tuple]:
    """Each no-replacement lane driven one per-event call at a time."""
    return [
        sim_counters(per_event(SNCTimingSim(_config(
            n_sets, ways, SNCPolicy.NO_REPLACEMENT)), kinds, lines, aux))
        for n_sets, ways in geometries
    ]


@pytest.mark.parametrize("name", sorted(STREAMS) + ["admission"])
def test_ranks_match_the_per_event_sim(name):
    kinds, lines = _columns(ADMISSION if name == "admission"
                            else STREAMS[name])
    aux = array("Q", bytes(8 * len(kinds)))
    expected = _norepl_counters(RANK_GEOMETRIES, kinds, lines, aux)
    assert price_ranks(RANK_GEOMETRIES, kinds, lines) == expected
    assert price_ranks(RANK_GEOMETRIES, kinds, lines, aux) == expected


def test_admission_stream_counts():
    kinds, lines = _columns(ADMISSION)
    [counters] = price_ranks([(4, 2)], kinds, lines)
    # Window: reads of 12 (rejected, direct), 4 (admitted) and 16 (never
    # written, version 0); 0 hits, 12 is rejected twice.
    assert counters[:9] == (2, 0, 1, 1, 1, 2, 2, 0, 0)
    # Lifetime: three query hits, two admissions, four rejections, no
    # eviction.
    assert counters[9:] == (3, 6, 1, 6, 2, 0, 4, 0, 0)


@pytest.mark.parametrize("name", sorted(SWITCH_STREAMS))
def test_ranks_match_the_per_event_sim_on_tag_streams(name):
    events = SWITCH_STREAMS[name]
    kinds = array("B", (kind for kind, _line, _aux in events))
    lines = array("Q", (line for _kind, line, _aux in events))
    aux = array("Q", (owner for _kind, _line, owner in events))
    assert price_ranks(RANK_GEOMETRIES, kinds, lines, aux, 0) == \
        _norepl_counters(RANK_GEOMETRIES, kinds, lines, aux)


def test_ranks_refuse_flush():
    kinds, lines = _columns(STREAMS["no reset"])
    with pytest.raises(ValueError):
        price_ranks([(1, 4)], kinds, lines, flush=True)


# ------------------------------------------------------------- routing


@pytest.fixture(scope="module")
def recording():
    return record_source(SingleBenchmark(BY_NAME["equake"]), scale=_SCALE,
                         include_alt_l2=False)


@pytest.fixture
def walk_calls(monkeypatch):
    """Every ``geometries`` list the batch pricer hands each walk, and
    every sim it drives through the per-event loop."""
    calls = {"stack": [], "ranks": [], "per-event": []}

    def spy(name, walk):
        def spied(geometries, *args):
            calls[name].append(list(geometries))
            return walk(geometries, *args)
        return spied

    per_event_loop = batch._replay_per_event

    def per_event_spy(sim, *args):
        calls["per-event"].append(sim)
        per_event_loop(sim, *args)

    monkeypatch.setattr(batch, "price_stack", spy("stack", price_stack))
    monkeypatch.setattr(batch, "price_ranks", spy("ranks", price_ranks))
    monkeypatch.setattr(batch, "_replay_per_event", per_event_spy)
    return calls


def _per_event_only(monkeypatch):
    monkeypatch.setattr(batch, "_lane_walks",
                        lambda sims, *_args: [None] * len(sims))


MIXED = (
    SNCSpec(key="a_lru16k_8way", size_bytes=16 * 1024, assoc=8),
    SNCSpec(key="b_norepl", size_bytes=8 * 1024,
            policy=SNCPolicy.NO_REPLACEMENT.value),
    SNCSpec(key="c_lru8k", size_bytes=8 * 1024),
    SNCSpec(key="d_split", size_bytes=8 * 1024, scheme="otp_split"),
    SNCSpec(key="e_lru64k_32way", size_bytes=64 * 1024, assoc=32),
    SNCSpec(key="f_lru32k", size_bytes=32 * 1024),
    SNCSpec(key="g_norepl16k_8way", size_bytes=16 * 1024, assoc=8,
            policy=SNCPolicy.NO_REPLACEMENT.value),
    SNCSpec(key="h_split_norepl", size_bytes=8 * 1024, scheme="otp_split",
            policy=SNCPolicy.NO_REPLACEMENT.value),
)


def _mixed_task(integrity=()):
    return SimulationTask(workload="equake", snc_configs=MIXED, scale=_SCALE,
                          integrity=integrity)


def test_every_plain_lane_takes_a_walk(recording, walk_calls):
    integrity = (IntegrityModelSpec(key="mac", provider="mac"),)
    [events] = price_batch([_mixed_task(integrity)], recording)
    # The split lanes' counters never overflow on this stream.
    assert walk_calls["stack"] == [[(1024, 8), (1, 4096), (1, 4096),
                                    (1024, 32), (1, 16384)]]
    assert walk_calls["ranks"] == [[(1, 4096), (1024, 8), (1, 4096)]]
    assert walk_calls["per-event"] == []
    assert events.snc["b_norepl"].rejected_updates > 0  # capacity bites


def test_mixed_request_returns_canonical_lane_order(recording,
                                                    monkeypatch):
    integrity = (IntegrityModelSpec(key="mac", provider="mac"),)
    task = _mixed_task(integrity)
    [events] = price_batch([task], recording)
    assert tuple([("snc", key) for key in events.snc] + [
        ("integrity", key) for key in events.integrity]) == task_lanes(task)
    _per_event_only(monkeypatch)
    [expected] = price_batch([task], recording)
    assert events == expected


@pytest.fixture(scope="module")
def scenario():
    return record_source(MultiTaskInterleaver(["art", "vpr"], 1_000),
                         scale=_SCALE, include_alt_l2=False)


def _sims(specs, strategy=None) -> dict:
    """Fresh timing sims for ``specs``, by key."""
    return {spec.key: spec.build_sim(strategy) for spec in specs}


def _price(sims, recording, aux=None) -> dict:
    """Batch-price ``sims`` over the recording's columns (``aux``
    replaced when given); their counts and SNC stats by key."""
    batch.replay_events_batch(list(sims.values()), [], recording.kinds,
                              recording.lines,
                              recording.aux if aux is None else aux)
    return {key: (asdict(sim.counts), asdict(sim.snc.stats))
            for key, sim in sims.items()}


_NOREPL = SNCPolicy.NO_REPLACEMENT.value
_SWITCH_SPECS = (SNCSpec("lru8k", size_bytes=8 * 1024),
                 SNCSpec("split8k_16way", size_bytes=8 * 1024, assoc=16,
                         scheme="otp_split"))
#: No-replacement lanes, which only TAG can switch.
_TAG_SPECS = (
    SNCSpec("norepl2k", size_bytes=2 * 1024, policy=_NOREPL),
    SNCSpec("norepl4k_32way", size_bytes=4 * 1024, assoc=32,
            policy=_NOREPL),
)


@pytest.mark.parametrize("strategy", list(SwitchStrategy))
def test_switch_stream_lanes_take_a_walk(scenario, walk_calls,
                                         monkeypatch, strategy):
    tag = strategy is SwitchStrategy.TAG
    specs = _SWITCH_SPECS + (_TAG_SPECS if tag else ())

    def price():
        sims = _sims(specs, strategy.value)
        for sim in sims.values():
            sim.begin_task(scenario.tasks[0].xom_id)
        return _price(sims, scenario)

    walked = price()
    assert walk_calls["stack"] == [[(1, 4096), (256, 16)]]
    assert walk_calls["ranks"] == ([[(1, 1024), (64, 32)]] if tag else [])
    if tag:
        assert walked["norepl2k"][0]["rejected_updates"] > 0
    _per_event_only(monkeypatch)
    assert price() == walked


@pytest.mark.parametrize("policy", list(SNCPolicy))
def test_warm_snc_takes_the_per_event_loop(recording, walk_calls,
                                           monkeypatch, policy):
    # The walks assume an empty SNC; a sim warmed by per-event calls
    # keeps its state through the per-event loop.
    spec = SNCSpec("snc8k", size_bytes=8 * 1024, policy=policy.value)

    def price():
        sim = spec.build_sim()
        for line in range(64):
            sim.writeback(line)
        batch.replay_events_batch([sim], [], recording.kinds,
                                  recording.lines, recording.aux)
        return asdict(sim.counts), asdict(sim.snc.stats)

    warm = price()
    assert walk_calls["stack"] == walk_calls["ranks"] == []
    assert len(walk_calls["per-event"]) == 1
    _per_event_only(monkeypatch)
    assert price() == warm


class _ReadOverride(SNCPolicyCore):
    """A core overriding ``read`` itself: every read miss is direct."""

    def read(self, line_index):
        return ReadDecision(ReadClass.DIRECT, None)


@pytest.mark.parametrize("policy", list(SNCPolicy))
def test_core_overriding_read_takes_the_per_event_loop(recording,
                                                       walk_calls,
                                                       policy):
    config = SNCConfig(size_bytes=8 * 1024, policy=policy)
    priced = SNCTimingSim(config, core_factory=_ReadOverride)
    batch.replay_events_batch([priced], [], recording.kinds,
                              recording.lines, recording.aux)
    assert walk_calls["stack"] == walk_calls["ranks"] == []
    expected = per_event(SNCTimingSim(config, core_factory=_ReadOverride),
                         recording.kinds, recording.lines, recording.aux)
    assert sim_counters(priced) == sim_counters(expected)
    assert priced.counts.direct_reads == priced.counts.reads > 0


def test_foreign_writeback_owner_takes_a_walk(recording, walk_calls,
                                              monkeypatch):
    # A writeback owned by another task takes the descheduled path: an
    # ordinary write under its owner's tag (TAG, the figure path's
    # default), which the walks key apart.
    aux = array("Q", recording.aux)
    aux[recording.kinds.index(EVENT_WRITEBACK)] = 7
    specs = (SNCSpec("lru8k", size_bytes=8 * 1024),
             SNCSpec("norepl8k", size_bytes=8 * 1024, policy=_NOREPL))
    walked = _price(_sims(specs), recording, aux)
    assert walk_calls["stack"] == walk_calls["ranks"] == [[(1, 4096)]]
    _per_event_only(monkeypatch)
    assert _price(_sims(specs), recording, aux) == walked


def _narrow_split(config, strategy):
    """A split-counter sim with 1-bit counters: a line's second
    writeback overflows it to direct encryption."""
    return SNCTimingSim(
        config, switch_strategy=strategy,
        core_factory=lambda snc, **kwargs: SplitSequenceCore(
            snc, counter_bits=1, **kwargs),
    )


@pytest.mark.parametrize("stream, strategy", [
    ("single task", SwitchStrategy.TAG),
    ("switches", SwitchStrategy.FLUSH),
    ("switches", SwitchStrategy.TAG),
])
def test_overflowing_split_lanes_take_the_per_event_loop(
        scenario, walk_calls, stream, strategy):
    # gzip re-reads lines it wrote, so retired lines read direct.
    source = scenario if stream == "switches" else record_source(
        SingleBenchmark(BY_NAME["gzip"]), scale=_SCALE,
        include_alt_l2=False)
    configs = [SNCConfig(size_bytes=8 * 1024),
               SNCConfig(size_bytes=8 * 1024, assoc=16)]
    if strategy is SwitchStrategy.TAG:
        configs.append(SNCConfig(size_bytes=8 * 1024,
                                 policy=SNCPolicy.NO_REPLACEMENT))
    priced = {}
    for index, config in enumerate(configs):
        sim = _narrow_split(config, strategy)
        sim.begin_task(source.tasks[0].xom_id)
        priced[index] = sim
    _price(priced, source)
    assert walk_calls["stack"] == walk_calls["ranks"] == []
    for index, config in enumerate(configs):
        sim = _narrow_split(config, strategy)
        sim.begin_task(source.tasks[0].xom_id)
        per_event(sim, source.kinds, source.lines, source.aux)
        assert sim_counters(priced[index]) == sim_counters(sim)
        assert sim.counts.rejected_updates > 0
        assert sim.counts.direct_reads > 0


def test_walked_stats_equal_the_per_event_loop(recording, monkeypatch):
    specs = [spec for spec in MIXED if spec.scheme == "otp"]

    def price():
        sims = _sims(specs)
        batch.replay_events_batch(list(sims.values()), [],
                                  recording.kinds, recording.lines,
                                  recording.aux)
        return {key: (asdict(sim.counts), asdict(sim.snc.stats))
                for key, sim in sims.items()}

    walked = price()
    assert walked["c_lru8k"][1]["evictions"] > 0  # capacity bites
    assert walked["b_norepl"][1]["rejected"] > 0
    _per_event_only(monkeypatch)
    assert walked == price()


# ---------------------------------------------------- integrity routing

_INTEGRITY = (IntegrityModelSpec(key="mac", provider="mac"),
              IntegrityModelSpec(key="tree_nc256",
                                 provider="hash_tree_cached",
                                 node_cache_entries=256))


def test_integrity_only_request_drives_no_sim_per_event(recording,
                                                        walk_calls):
    task = SimulationTask(
        workload="equake", scale=_SCALE, integrity=_INTEGRITY,
        snc_configs=(SNCSpec(key="lru64k", size_bytes=64 * 1024),))
    [events] = price_batch([task], recording)
    assert walk_calls["stack"] == [[(1, 32768)]]
    assert walk_calls["per-event"] == []
    assert events.integrity["tree_nc256"].node_cache_hits > 0


def test_compiled_batch_info_reads_zero():
    # The batch pricer compiles nothing; the counters stay for readers
    # of the old compile-cache fields.
    assert batch.compiled_batch_info() == (0, 0, 0)


def test_integrity_beside_per_event_lanes_equals_per_event(recording,
                                                           walk_calls,
                                                           monkeypatch):
    # 1-bit split counters: a line's second writeback overflows.
    monkeypatch.setattr(otp_split, "COUNTER_BITS", 1)
    task = SimulationTask(workload="equake", scale=_SCALE,
                          integrity=_INTEGRITY,
                          snc_configs=MIXED[:4])
    [events] = price_batch([task], recording)
    assert walk_calls["stack"] == [[(1024, 8), (1, 4096)]]
    assert walk_calls["ranks"] == [[(1, 4096)]]
    assert len(walk_calls["per-event"]) == 1
    sims = _sims(task.snc_configs)
    models = {spec.key: spec.build_model() for spec in task.integrity}
    kinds, lines = recording.kinds, recording.lines
    for sim in sims.values():
        per_event(sim, kinds, lines, recording.aux)
    for model in models.values():
        replay_per_event(model, kinds, lines)
    assert events.snc == {key: sim.counts for key, sim in sims.items()}
    assert events.integrity == {key: model.counts
                                for key, model in models.items()}
    assert events.snc["d_split"].rejected_updates > 0
