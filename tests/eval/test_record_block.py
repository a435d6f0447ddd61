"""Differential suite: the block-columnar recorder vs the oracle.

:func:`~repro.eval.record.record_source` (block-columnar phase 1) must be
**byte-identical** to the recording the per-reference oracle
(:func:`oracle.oracle`) emits: same event columns, same measured
aggregates, same serialized wire payload (CRC included).  These tests
pin that across a randomized matrix — benchmarks, scales (warmup edge
values included), L2 geometries, block sizes (1 and non-divisors
included), interleaved scenarios and trace files.
"""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from oracle import oracle

from repro.errors import ConfigurationError
from repro.eval.pipeline import SimulationScale
from repro.eval.record import Recording, record_source
from repro.eval.trace_store import recording_to_bytes
from repro.workloads.sources import (
    MultiTaskInterleaver,
    SingleBenchmark,
    TraceFile,
)
from repro.workloads.tracegen import save_trace

#: Valid baseline-L2 geometries (set count must be a power of two).
L2_GEOMETRIES = ((2048, 4), (512, 2))

#: Long enough that every benchmark's initialization phase ends inside
#: the run (the recorder requires load misses in the measurement
#: window); warmup edge values 0 and 1 exercise the EVENT_RESET
#: boundary's degenerate placements.
SCALES = (
    SimulationScale(warmup_refs=30_000, measure_refs=50_000),
    SimulationScale(warmup_refs=0, measure_refs=60_000),  # no boundary
    SimulationScale(warmup_refs=1, measure_refs=59_999),  # boundary at 1
    SimulationScale(warmup_refs=48_000, measure_refs=12_000),
)

#: Block sizes that stress the recorder's boundary splitting: 1 (every
#: block is a single ref), a prime that divides neither scale totals nor
#: quanta, and the production default's neighborhood.
BLOCK_SIZES = (1, 911, 4096)


def record_reference(source, scale, seed=1, include_alt_l2=True,
                     **l2) -> Recording:
    """The oracle's recording, with no state machines to drive."""
    return oracle(source, scale, seed, snc=(),
                  alt_l2=include_alt_l2, **l2).recording


def assert_identical(block: Recording, reference: Recording) -> None:
    """Field-for-field equality, then the stronger wire-format check:
    identical serialized bytes (header, CRC, and gzip stream)."""
    for item in fields(Recording):
        assert getattr(block, item.name) == \
            getattr(reference, item.name), item.name
    assert recording_to_bytes(block) == recording_to_bytes(reference)


class TestRecordDifferential:
    @pytest.mark.parametrize("name", ["equake", "mcf", "ammp", "gzip"])
    def test_benchmarks_across_scales(self, name):
        source = SingleBenchmark(name)
        for scale in SCALES:
            reference = record_reference(source, scale=scale)
            block = record_source(source, scale=scale)
            assert_identical(block, reference)

    @pytest.mark.parametrize("l2_lines,l2_assoc", L2_GEOMETRIES)
    def test_l2_geometries(self, l2_lines, l2_assoc):
        source = SingleBenchmark("vortex")
        scale = SimulationScale(warmup_refs=35_000, measure_refs=25_000)
        reference = record_reference(
            source, scale=scale, l2_lines=l2_lines, l2_assoc=l2_assoc
        )
        block = record_source(
            source, scale=scale, l2_lines=l2_lines, l2_assoc=l2_assoc
        )
        assert_identical(block, reference)

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_block_sizes(self, block_size):
        source = SingleBenchmark("gcc")
        scale = SimulationScale(warmup_refs=40_000, measure_refs=15_000)
        reference = record_reference(source, scale=scale)
        block = record_source(source, scale=scale,
                              block_size=block_size)
        assert_identical(block, reference)

    @pytest.mark.parametrize("seed", [1, 2, 9])
    def test_interleaved_scenarios(self, seed):
        """Multi-task streams: switches, per-task owner resolution of
        writebacks, and per-task read-miss attribution — with a quantum
        chosen to land switches inside, at, and across block edges."""
        source = MultiTaskInterleaver(["art", "vpr", "gzip"],
                                      quantum=777)
        scale = SimulationScale(warmup_refs=10_000, measure_refs=15_000)
        reference = record_reference(source, scale=scale, seed=seed,
                                     include_alt_l2=False)
        block = record_source(source, scale=scale, seed=seed,
                              include_alt_l2=False)
        assert_identical(block, reference)

    def test_switch_at_warmup_and_block_boundaries(self):
        """Quantum divides both the warmup and the block size, so a
        switch coincides with the warmup boundary and with block edges —
        the EVENT_RESET placement's worst case."""
        source = MultiTaskInterleaver(["art", "mesa"], quantum=1_000)
        scale = SimulationScale(warmup_refs=4_000, measure_refs=12_000)
        reference = record_reference(source, scale=scale,
                                     include_alt_l2=False)
        block = record_source(source, scale=scale,
                              include_alt_l2=False, block_size=1_000)
        assert_identical(block, reference)

    def test_trace_file_source(self, tmp_path):
        rng = random.Random(11)
        refs = [(rng.randrange(6_000), rng.random() < 0.3)
                for _ in range(2_500)]
        path = tmp_path / "diff.trace"
        save_trace(refs, path)
        source = TraceFile(path, name="diff")
        scale = SimulationScale(warmup_refs=2_000, measure_refs=6_000)
        reference = record_reference(source, scale=scale,
                                     include_alt_l2=False)
        block = record_source(source, scale=scale,
                              include_alt_l2=False)
        assert_identical(block, reference)

    def test_no_load_miss_error_matches(self):
        source = SingleBenchmark("gzip")
        tiny = SimulationScale(warmup_refs=0, measure_refs=10)
        with pytest.raises(ConfigurationError):
            record_reference(source, scale=tiny)
        with pytest.raises(ConfigurationError):
            record_source(source, scale=tiny)
