"""Cross-check: every registered integrity spec's byte-free timing model
must count exactly what its functional provider does on the same stream.

The slowdown-vs-node-cache-size experiment is produced by the timing
models; the tamper-detection guarantees by the functional providers.
These tests pin the two layers together the same way
``test_functional_consistency.py`` pins the SNC layers: one randomized
honest reference stream drives both, and every
:class:`~repro.secure.integrity.IntegrityStats` field must agree —
including the trusted node cache's hit count, whose FIFO behaviour the
model mirrors digest-free.  The same file pins each model's columnar
``replay_columns`` (what production prices with) to its own per-event
methods.
"""

import random
from array import array
from dataclasses import asdict, fields

import pytest

from repro.secure.integrity import (
    IntegrityConfig,
    IntegrityStats,
    all_integrities,
    get_integrity,
)
from repro.secure.integrity.__main__ import replay_per_event
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_RESET,
    EVENT_SWITCH,
    EVENT_WRITEBACK,
)

# Small geometry: the pure-Python SHA-256 costs ~1.5ms per node, so the
# functional side of each cross-check pair is the budget.  Depth 5 still
# exercises every walk shape (cache hits at every level, full walks).
_LINE_BYTES = 128
_N_LINES = 32
_DEPTH = _N_LINES.bit_length() - 1


def _verifying_specs():
    return [spec for spec in all_integrities() if spec.verifies]


def _build_pair(spec, node_cache_entries=0):
    config = IntegrityConfig(
        base_addr=0, n_lines=_N_LINES, line_bytes=_LINE_BYTES,
        node_cache_entries=node_cache_entries,
    )
    provider = spec.build_provider(b"cross-check-key", config)
    model = spec.build_timing_model(config)
    return provider, model


def _install_all(provider, model):
    """The honest baseline: every covered line recorded, as the loader
    does at image install (counters then zeroed, like the pipeline's
    warmup reset)."""
    payload = bytes(_LINE_BYTES)
    for line in range(_N_LINES):
        provider.record_line(line * _LINE_BYTES, payload)
        model.update(line)
    provider.stats.__init__()
    model.reset_counts()


def _drive_pair(provider, model, operations):
    payload = bytes(_LINE_BYTES)
    for line, is_write in operations:
        if is_write:
            provider.record_line(line * _LINE_BYTES, payload)
            model.update(line)
        else:
            provider.verify_line(line * _LINE_BYTES, payload)
            model.verify(line)


def _stats_dict(stats) -> dict:
    return {
        field.name: getattr(stats, field.name)
        for field in fields(IntegrityStats)
    }


def _watch_self_evictions(provider) -> list:
    """Record every store the functional provider makes into a full
    node cache whose oldest entry is the node being stored: the pop
    evicts it and the store re-inserts it."""
    self_evicted = []
    store = provider._cache_store

    def watched(level, index, digest):
        cache = provider._node_cache
        if (len(cache) >= provider._node_cache_entries
                and next(iter(cache)) == (level, index)):
            self_evicted.append((level, index))
        store(level, index, digest)

    provider._cache_store = watched
    return self_evicted


def random_operations(seed, n_ops=300, n_lines=_N_LINES):
    rng = random.Random(seed)
    return [
        (rng.randrange(n_lines), rng.random() < 0.35)
        for _ in range(n_ops)
    ]


class TestRegistryConsistency:
    """Every verifying spec, functional provider vs timing model."""

    @pytest.mark.parametrize("spec_key",
                             [spec.key for spec in _verifying_specs()])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_streams_agree(self, spec_key, seed):
        provider, model = _build_pair(get_integrity(spec_key))
        _install_all(provider, model)
        _drive_pair(provider, model, random_operations(seed))
        assert _stats_dict(provider.stats) == _stats_dict(model.counts), (
            spec_key
        )
        assert model.counts.verifications > 0
        assert model.counts.hashes_computed > 0

    @pytest.mark.parametrize("entries", [1, 2, 3, 4, _DEPTH + 1, 16])
    def test_node_cache_occupancy_mirrors(self, entries):
        """The cached tree's FIFO trusted cache — including the evict-
        then-reinsert subtleties — must count identically across the
        layers at every cache size."""
        spec = get_integrity("hash_tree_cached")
        provider, model = _build_pair(spec, node_cache_entries=entries)
        self_evicted = _watch_self_evictions(provider)
        _install_all(provider, model)
        _drive_pair(provider, model, random_operations(99, n_ops=600))
        assert _stats_dict(provider.stats) == _stats_dict(model.counts)
        # One entry only ever holds the root, which no walk checks.
        assert (model.counts.node_cache_hits > 0) == (entries > 1)
        # Below a path's length the oldest entry is always a lower node
        # of the path being stored; from there on the quirk fires.
        assert bool(self_evicted) == (entries >= _DEPTH + 1)

    def test_uncached_tree_never_hits(self):
        provider, model = _build_pair(get_integrity("hash_tree"))
        _install_all(provider, model)
        _drive_pair(provider, model, random_operations(7))
        assert provider.stats.node_cache_hits == 0
        assert model.counts.node_cache_hits == 0
        # Every verification walks the full path: leaf + depth levels.
        depth = provider.depth
        assert model.counts.verify_hashes == (
            model.counts.verifications * (depth + 1)
        )

    def test_mac_prices_one_hash_per_verification(self):
        """Honest post-install execution (the precondition `_install_all`
        establishes, exactly as the loader does): every covered line
        carries a tag, so each verification is exactly one HMAC in both
        layers.  The functional provider's untagged shortcut only exists
        for degenerate never-recorded reads, which a priced trace never
        contains — the trees *fail* verification on such reads."""
        provider, model = _build_pair(get_integrity("mac"))
        _install_all(provider, model)
        _drive_pair(provider, model, random_operations(21))
        assert _stats_dict(provider.stats) == _stats_dict(model.counts)
        assert model.counts.verify_hashes == model.counts.verifications

    def test_critical_split_is_pricing_only(self):
        """``critical_hashes`` tracks the load-miss subset without
        disturbing the cross-checked totals."""
        provider, model = _build_pair(get_integrity("hash_tree"))
        _install_all(provider, model)
        payload = bytes(_LINE_BYTES)
        for line in range(_N_LINES):
            provider.verify_line(line * _LINE_BYTES, payload)
            model.verify(line, critical=(line % 2 == 0))
        assert _stats_dict(provider.stats) == _stats_dict(model.counts)
        assert model.counts.critical_hashes * 2 == (
            model.counts.verify_hashes
        )

    def test_models_ignore_uncovered_lines(self):
        """References outside the protected region don't count — the
        covers() mirror of the functional layer."""
        _, model = _build_pair(get_integrity("hash_tree"))
        model.verify(_N_LINES + 5)
        model.update(_N_LINES + 5)
        assert model.counts.verifications == 0
        assert model.counts.updates == 0


# ------------------------------------------------------- replay_columns

#: A replayed region starting here has columns reaching below it too.
_BASE_LINE = 8


def random_columns(seed, resets, n_events=2_000):
    """Recording-shaped columns: reads, allocates, writebacks and
    switches over the covered lines plus lines below and above them,
    with ``resets`` RESETs at random positions."""
    rng = random.Random(seed)
    kinds = array("B", (rng.choice((EVENT_READ, EVENT_READ, EVENT_ALLOC,
                                    EVENT_WRITEBACK, EVENT_WRITEBACK,
                                    EVENT_SWITCH))
                        for _ in range(n_events)))
    lines = array("Q", (0 if kind == EVENT_SWITCH
                        else rng.randrange(_N_LINES + 2 * _BASE_LINE)
                        for kind in kinds))
    for _ in range(resets):
        position = rng.randrange(len(kinds) + 1)
        kinds.insert(position, EVENT_RESET)
        lines.insert(position, 0)
    return kinds, lines


#: Every verifying spec at its default cache (the uncached tree has
#: none), then the cached tree over a range of node-cache sizes.
_COLUMN_CASES = [(spec.key, 0) for spec in _verifying_specs()] + [
    ("hash_tree_cached", entries) for entries in (1, 2, 3, _DEPTH + 1, 16)
]


@pytest.mark.parametrize("base_line", [0, _BASE_LINE])
@pytest.mark.parametrize("resets", [0, 1, 2])
@pytest.mark.parametrize("spec_key, entries", _COLUMN_CASES)
def test_replay_columns_match_per_event(spec_key, entries, resets,
                                        base_line):
    config = IntegrityConfig(base_addr=base_line * _LINE_BYTES,
                             n_lines=_N_LINES, line_bytes=_LINE_BYTES,
                             node_cache_entries=entries)
    spec = get_integrity(spec_key)
    kinds, lines = random_columns(resets * 10 + entries, resets)
    assert kinds.count(EVENT_RESET) == resets
    expected = spec.build_timing_model(config)
    replay_per_event(expected, kinds, lines)
    whole = spec.build_timing_model(config)
    whole.replay_columns(kinds, lines)
    assert asdict(whole.counts) == asdict(expected.counts)
    # Warm state carries across calls: two halves equal the whole.
    halves = spec.build_timing_model(config)
    middle = len(kinds) // 2
    halves.replay_columns(kinds[:middle], lines[:middle])
    halves.replay_columns(kinds[middle:], lines[middle:])
    assert asdict(halves.counts) == asdict(expected.counts)
    assert expected.counts.verifications > 0
    assert expected.counts.updates > 0
