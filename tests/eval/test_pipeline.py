"""Tests for the trace-driven evaluation pipeline."""

import pytest

from oracle import produce

from repro.eval.pipeline import (
    QUICK_SCALE,
    SimulationScale,
    standard_snc_configs,
)
from repro.secure.snc import SNCPolicy
from repro.timing.model import baseline_cycles, slowdown_pct, xom_cycles
from repro.secure.engine import LatencyParams
from repro.workloads.sources import SingleBenchmark

_LAT = LatencyParams()


@pytest.fixture(scope="module")
def vpr_events():
    return produce(SingleBenchmark("vpr"), scale=QUICK_SCALE, alt_l2=True)


class TestStandardConfigs:
    def test_five_configurations(self):
        configs = standard_snc_configs()
        assert set(configs) == {
            "lru64", "norepl64", "lru32", "lru128", "lru64_32way"
        }

    def test_paper_geometries(self):
        configs = standard_snc_configs()
        assert configs["lru64"].n_entries == 32 * 1024
        assert configs["lru32"].n_entries == 16 * 1024
        assert configs["lru128"].n_entries == 64 * 1024
        assert configs["lru64_32way"].assoc == 32
        assert configs["norepl64"].policy is SNCPolicy.NO_REPLACEMENT


class TestSimulateBenchmark:
    def test_produces_counts_for_all_configs(self, vpr_events):
        assert set(vpr_events.snc) == set(standard_snc_configs())
        assert vpr_events.read_misses > 0
        assert vpr_events.writebacks > 0

    def test_calibration_anchors_xom_slowdown(self, vpr_events):
        """At any scale, the derived compute cycles make the priced XOM
        slowdown equal the Figure 3 target."""
        events = vpr_events.trace_events()
        measured = slowdown_pct(
            xom_cycles(events, _LAT), baseline_cycles(events, _LAT)
        )
        assert measured == pytest.approx(21.16, abs=0.05)

    def test_deterministic(self):
        scale = SimulationScale(warmup_refs=5_000, measure_refs=10_000)
        a = produce(SingleBenchmark("art"), scale=scale)
        b = produce(SingleBenchmark("art"), scale=scale)
        assert a.read_misses == b.read_misses
        assert a.snc["lru64"].overlapped_reads == (
            b.snc["lru64"].overlapped_reads
        )

    @pytest.mark.slow
    def test_seed_changes_counts(self):
        # Long enough to get past mcf's deterministic initialization pass.
        scale = SimulationScale(warmup_refs=50_000, measure_refs=30_000)
        a = produce(SingleBenchmark("mcf"), scale=scale, seed=1)
        b = produce(SingleBenchmark("mcf"), scale=scale, seed=2)
        assert a.read_misses != b.read_misses

    def test_bigger_l2_misses_less(self, vpr_events):
        assert vpr_events.read_misses_big_l2 < vpr_events.read_misses

    def test_snc_read_events_cover_read_misses(self, vpr_events):
        """Conservation: every critical read miss lands in exactly one SNC
        read category."""
        for key, counts in vpr_events.snc.items():
            assert counts.reads == vpr_events.read_misses, key

    def test_art_fits_its_snc(self):
        """art's footprint is under 16K lines: after warmup every read
        should be an SNC hit."""
        events = produce(SingleBenchmark("art"), scale=QUICK_SCALE)
        lru = events.snc["lru64"]
        assert lru.seqnum_miss_reads < 0.01 * max(lru.reads, 1)

    def test_trace_events_requires_known_key(self, vpr_events):
        assert vpr_events.trace_events("lru64").snc is not None
        assert vpr_events.trace_events().snc is None

    def test_alt_l2_substitutes_big_l2_misses(self, vpr_events):
        alt = vpr_events.trace_events(alt_l2=True)
        assert alt.read_misses == vpr_events.read_misses_big_l2
        assert alt.allocate_misses == vpr_events.allocate_misses_big_l2

    def test_alt_l2_rejects_snc_events(self, vpr_events):
        """SNC counts come from the baseline L2's miss stream; pairing
        them with the 384KB L2's misses would be physically inconsistent
        and must be refused, not silently priced."""
        with pytest.raises(Exception, match="baseline L2"):
            vpr_events.trace_events("lru64", alt_l2=True)
