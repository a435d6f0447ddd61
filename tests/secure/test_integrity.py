"""Tests for the integrity extension: MAC vs hash tree against the three
XOM attacks (spoofing, splicing, replay)."""

import pytest

from repro.errors import ConfigurationError, ReplayDetected, TamperDetected
from repro.secure.integrity import HashTreeIntegrity, MACIntegrity

_LINE_A = bytes(range(128))
_LINE_B = bytes(reversed(range(128)))


class TestMACIntegrity:
    def make(self):
        return MACIntegrity(key=b"integrity-key")

    def test_honest_round_trip(self):
        mac = self.make()
        mac.record_line(0, _LINE_A)
        mac.verify_line(0, _LINE_A)  # no exception

    def test_detects_spoofing(self):
        mac = self.make()
        mac.record_line(0, _LINE_A)
        with pytest.raises(TamperDetected):
            mac.verify_line(0, _LINE_B)

    def test_detects_splicing(self):
        """Moving a valid line to another address changes the MAC input."""
        mac = self.make()
        mac.record_line(0, _LINE_A)
        mac.record_line(128, _LINE_B)
        # Adversary splices line A's data AND its tag to address 128.
        mac.tag_table[128] = mac.tag_table[0]
        with pytest.raises(TamperDetected):
            mac.verify_line(128, _LINE_A)

    def test_replay_is_NOT_detected(self):
        """The documented limitation: a stale (line, tag) pair verifies.
        This is exactly why the hash tree exists."""
        mac = self.make()
        mac.record_line(0, _LINE_A)
        stale_tag = mac.tag_table[0]
        mac.record_line(0, _LINE_B)  # program overwrites the line
        # Adversary restores the old data and the old tag together.
        mac.tag_table[0] = stale_tag
        mac.verify_line(0, _LINE_A)  # passes: replay succeeds

    def test_unrecorded_lines_pass(self):
        self.make().verify_line(0x5000, _LINE_A)

    def test_covers_everything(self):
        assert self.make().covers(0)
        assert self.make().covers(1 << 40)

    def test_rejects_bad_tag_length(self):
        with pytest.raises(ConfigurationError):
            MACIntegrity(b"k", tag_bytes=2)


class TestHashTreeIntegrity:
    def make(self, cache_entries=0):
        return HashTreeIntegrity(
            base_addr=0, n_lines=16, line_bytes=128,
            node_cache_entries=cache_entries,
        )

    def test_honest_round_trip(self):
        tree = self.make()
        tree.record_line(0, _LINE_A)
        tree.record_line(128, _LINE_B)
        tree.verify_line(0, _LINE_A)
        tree.verify_line(128, _LINE_B)

    def test_detects_spoofing(self):
        tree = self.make()
        tree.record_line(0, _LINE_A)
        with pytest.raises((TamperDetected, ReplayDetected)):
            tree.verify_line(0, _LINE_B)

    def test_detects_splicing(self):
        tree = self.make()
        tree.record_line(0, _LINE_A)
        tree.record_line(128, _LINE_B)
        with pytest.raises((TamperDetected, ReplayDetected)):
            tree.verify_line(128, _LINE_A)

    def test_detects_replay(self):
        """The improvement over per-line MACs: the on-chip root pins the
        freshest state, so restoring stale nodes cannot help."""
        tree = self.make()
        tree.record_line(0, _LINE_A)
        stale_nodes = dict(tree.node_store)
        tree.record_line(0, _LINE_B)
        tree.node_store.clear()
        tree.node_store.update(stale_nodes)  # full metadata rollback
        with pytest.raises(ReplayDetected):
            tree.verify_line(0, _LINE_A)

    def test_covers_only_protected_range(self):
        tree = self.make()
        assert tree.covers(0)
        assert tree.covers(15 * 128)
        assert not tree.covers(16 * 128)
        assert not tree.covers(1 << 30)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().verify_line(16 * 128, _LINE_A)

    def test_leaf_path_halves_to_the_root(self):
        """A leaf's ancestor chain, leaf first, computed once per leaf."""
        tree = HashTreeIntegrity(base_addr=1024, n_lines=16)
        path = tree._path(1024 + 5 * 128)
        assert path == (5, 2, 1, 0, 0)
        assert tree._path(1024 + 5 * 128) is path
        with pytest.raises(ConfigurationError):
            tree._path(0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            HashTreeIntegrity(base_addr=0, n_lines=12)

    def test_node_cache_reduces_hash_work(self):
        """The Gassend-style optimisation: verification stops at a trusted
        cached ancestor."""
        cold = self.make(cache_entries=0)
        warm = self.make(cache_entries=64)
        for tree in (cold, warm):
            for line in range(16):
                tree.record_line(line * 128, _LINE_A)
        cold.stats.hashes_computed = 0
        warm.stats.hashes_computed = 0
        for line in range(16):
            cold.verify_line(line * 128, _LINE_A)
            warm.verify_line(line * 128, _LINE_A)
        assert warm.stats.hashes_computed < cold.stats.hashes_computed
        assert warm.stats.node_cache_hits > 0

    def test_tampered_node_detected_with_cache(self):
        tree = self.make(cache_entries=64)
        for line in range(4):
            tree.record_line(line * 128, _LINE_A)
        with pytest.raises((TamperDetected, ReplayDetected)):
            tree.verify_line(0, _LINE_B)

    def test_stats_track_failures(self):
        tree = self.make()
        tree.record_line(0, _LINE_A)
        with pytest.raises((TamperDetected, ReplayDetected)):
            tree.verify_line(0, _LINE_B)
        assert tree.stats.failures == 1
