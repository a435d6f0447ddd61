"""Tests for the Sequence Number Cache data structure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.secure.snc import (
    Evicted,
    SequenceNumberCache,
    SNCConfig,
    SNCPolicy,
)


def tiny_snc(entries=4, assoc=None, policy=SNCPolicy.LRU):
    config = SNCConfig(
        size_bytes=entries * 2, entry_bytes=2, assoc=assoc, policy=policy
    )
    return SequenceNumberCache(config)


class TestConfig:
    def test_paper_default_geometry(self):
        config = SNCConfig()
        assert config.n_entries == 32 * 1024  # 64KB / 2B: covers 4MB
        assert config.coverage_bytes == 4 * 1024 * 1024
        assert config.n_sets == 1  # fully associative

    def test_32way_geometry(self):
        config = SNCConfig(assoc=32)
        assert config.n_sets == 1024
        assert config.ways == 32

    def test_figure6_sizes(self):
        for size_kb, coverage_mb in ((32, 2), (64, 4), (128, 8)):
            config = SNCConfig(size_bytes=size_kb * 1024)
            assert config.coverage_bytes == coverage_mb * 1024 * 1024

    def test_rejects_bad_associativity(self):
        with pytest.raises(ConfigurationError):
            SNCConfig(size_bytes=64, entry_bytes=2, assoc=7)

    def test_rejects_non_power_of_two_entries(self):
        with pytest.raises(ConfigurationError):
            SNCConfig(size_bytes=24, entry_bytes=2)


class TestQueryUpdate:
    def test_query_miss_on_empty(self):
        snc = tiny_snc()
        assert snc.query(5) is None
        assert snc.stats.query_misses == 1

    def test_insert_then_query_hit(self):
        snc = tiny_snc()
        snc.insert(5, 7)
        assert snc.query(5) == 7
        assert snc.stats.query_hits == 1

    def test_update_bumps_sequence_number(self):
        snc = tiny_snc()
        snc.insert(5, 7)
        assert snc.update(5) == 8
        assert snc.peek(5) == 8

    def test_update_miss_returns_none(self):
        snc = tiny_snc()
        assert snc.update(9) is None
        assert snc.stats.update_misses == 1

    def test_repeated_updates_count(self):
        snc = tiny_snc()
        snc.insert(1, 0)
        for expected in range(1, 6):
            assert snc.update(1) == expected


class TestLRUReplacement:
    def test_eviction_returns_victim(self):
        snc = tiny_snc(entries=2)
        snc.insert(1, 10)
        snc.insert(2, 20)
        victim = snc.insert(3, 30)
        assert victim is not None
        assert (victim.line_index, victim.seq) == (1, 10)

    def test_query_refreshes_lru(self):
        snc = tiny_snc(entries=2)
        snc.insert(1, 10)
        snc.insert(2, 20)
        snc.query(1)
        victim = snc.insert(3, 30)
        assert victim.line_index == 2

    def test_update_refreshes_lru(self):
        snc = tiny_snc(entries=2)
        snc.insert(1, 10)
        snc.insert(2, 20)
        snc.update(1)
        victim = snc.insert(3, 30)
        assert victim.line_index == 2

    def test_reinsert_refreshes_value_without_eviction(self):
        snc = tiny_snc(entries=2)
        snc.insert(1, 10)
        snc.insert(2, 20)
        assert snc.insert(1, 99) is None
        assert snc.peek(1) == 99
        assert len(snc) == 2


class TestNoReplacement:
    def test_rejects_insert_when_full(self):
        snc = tiny_snc(entries=2, policy=SNCPolicy.NO_REPLACEMENT)
        snc.insert(1, 1)
        snc.insert(2, 1)
        assert not snc.can_insert(3)
        with pytest.raises(ConfigurationError):
            snc.insert(3, 1)

    def test_can_insert_while_room(self):
        snc = tiny_snc(entries=2, policy=SNCPolicy.NO_REPLACEMENT)
        assert snc.can_insert(1)
        snc.insert(1, 1)
        assert snc.can_insert(2)

    def test_rejection_counter(self):
        snc = tiny_snc(entries=1, policy=SNCPolicy.NO_REPLACEMENT)
        snc.note_rejection()
        assert snc.stats.rejected == 1

    def test_resident_entries_still_hit(self):
        snc = tiny_snc(entries=2, policy=SNCPolicy.NO_REPLACEMENT)
        snc.insert(1, 5)
        snc.insert(2, 6)
        assert snc.query(1) == 5
        assert snc.update(2) == 7


class TestSetAssociativity:
    def test_conflict_in_one_set(self):
        # 8 entries, 2-way: 4 sets.  Lines 0, 4, 8 all map to set 0.
        snc = tiny_snc(entries=8, assoc=2)
        snc.insert(0, 1)
        snc.insert(4, 2)
        victim = snc.insert(8, 3)
        assert victim.line_index == 0  # conflict eviction despite room

    def test_different_sets_do_not_conflict(self):
        snc = tiny_snc(entries=8, assoc=2)
        snc.insert(0, 1)
        snc.insert(1, 2)
        snc.insert(2, 3)
        assert len(snc) == 3

    def test_fully_associative_uses_whole_capacity(self):
        snc = tiny_snc(entries=8)
        for line in range(8):
            assert snc.insert(line * 4, line) is None
        assert snc.is_full


class TestXomIdTagging:
    def test_ids_are_isolated(self):
        snc = tiny_snc()
        snc.insert(5, 7, xom_id=1)
        assert snc.query(5, xom_id=2) is None
        assert snc.query(5, xom_id=1) == 7

    def test_drop_task_spills_only_that_task(self):
        snc = tiny_snc()
        snc.insert(1, 10, xom_id=1)
        snc.insert(2, 20, xom_id=2)
        spilled = snc.drop_task(1)
        assert [(e.line_index, e.seq) for e in spilled] == [(1, 10)]
        assert snc.peek(2, xom_id=2) == 20

    @pytest.mark.parametrize("assoc", [None, 2, 4])
    def test_drop_task_order_over_sparse_sets(self, assoc):
        """Set by set, LRU first, only the dropped task's entries — the
        order a full scan of every set gives, with most sets empty."""
        snc = tiny_snc(entries=256, assoc=assoc)
        rng = random.Random(assoc)
        for _ in range(40):
            line, owner = rng.randrange(0, 400, 7), rng.randrange(3)
            if snc.query(line, owner) is None:
                snc.insert(line, rng.randrange(100), owner)
        before = {index: list(entries.items())
                  for index, entries in enumerate(snc._sets)}
        expected = [
            Evicted(line, seq, owner)
            for index in range(snc._n_sets)
            for (line, owner), seq in before[index] if owner == 1
        ]
        assert expected and len(expected) < len(snc)
        if assoc is not None:
            assert not all(snc._sets)  # some sets are empty
        assert snc.drop_task(1) == expected
        assert {index: list(entries.items())
                for index, entries in enumerate(snc._sets)} == {
            index: [item for item in items if item[0][1] != 1]
            for index, items in before.items()
        }

    def test_flush_spills_everything(self):
        snc = tiny_snc()
        snc.insert(1, 10, xom_id=1)
        snc.insert(2, 20, xom_id=2)
        spilled = snc.flush()
        assert len(spilled) == 2
        assert len(snc) == 0


class TestStatsAndInvariants:
    def test_hit_rate(self):
        snc = tiny_snc()
        snc.insert(1, 0)
        snc.query(1)
        snc.query(2)
        assert snc.stats.query_hit_rate == 0.5

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.booleans()),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_capacity_never_exceeded(self, operations):
        snc = tiny_snc(entries=4)
        shadow: dict[int, int] = {}
        for line, is_write in operations:
            if is_write:
                seq = snc.update(line)
                if seq is None:
                    seq = shadow.get(line, 0) + 1
                    snc.insert(line, seq)
                shadow[line] = seq
            else:
                seq = snc.query(line)
                if seq is not None:
                    # A hit must agree with the shadow model.
                    assert seq == shadow.get(line, seq)
            assert len(snc) <= 4

    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=100)
    )
    @settings(max_examples=30, deadline=None)
    def test_sequence_numbers_monotone_per_line(self, lines):
        """Sequence numbers must never decrease — pad-uniqueness depends
        on it (until the documented epoch wrap)."""
        snc = tiny_snc(entries=16)
        last: dict[int, int] = {}
        for line in lines:
            seq = snc.update(line)
            if seq is None:
                seq = last.get(line, 0) + 1
                snc.insert(line, seq)
            assert seq > last.get(line, 0) - 1
            if line in last:
                assert seq == last[line] + 1
            last[line] = seq
