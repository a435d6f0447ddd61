"""Shared vocabulary of the trace-driven simulation behind every figure.

Each workload source drives one pass through:

* the baseline 256KB 4-way L2 (2048 lines) — its miss/writeback stream is
  what the paper's mechanisms act on;
* the Figure 8 alternate 384KB 6-way L2 (3072 lines), fed the same
  references — only its aggregate miss counts are kept;
* one SNC timing state machine per requested configuration, fed the
  baseline L2's miss stream.  Each state machine is built by its
  protection scheme's registry spec (:mod:`repro.secure.schemes`, via
  :meth:`repro.eval.jobs.SNCSpec.build_sim`), so scheme variants like
  ``otp_split`` ride the same pipeline — plus one byte-free integrity
  model per requested integrity configuration.

The pass runs in two phases: :func:`repro.eval.record.record_source`
runs the workload and the L2s once per (source, scale, seed) and keeps
the compacted event stream, and :func:`repro.eval.jobs.price_batch`
prices it through every configuration at once.  This module holds what
both phases and their callers share: the trace scale, the cache
geometries and the :class:`BenchmarkEvents` result.  The slow
per-reference loop both phases are checked against lives in the test
suite (``tests/eval/oracle.py``).

Counters reset at the warmup boundary while all cache/SNC *state* stays
warm, mirroring the paper's fast-forward methodology (10B instructions of
warmup before measurement).  Every event is then priced by
:mod:`repro.timing.model` under any latency configuration — Figure 10 needs
no re-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.secure.integrity import IntegrityEventCounts
from repro.secure.snc import SNCConfig, SNCPolicy
from repro.timing.model import SNCEventCounts, TraceEvents

#: The paper's cache geometries, in 128-byte lines.
L2_BASE_LINES, L2_BASE_ASSOC = 2048, 4  # 256KB 4-way
L2_BIG_LINES, L2_BIG_ASSOC = 3072, 6  # 384KB 6-way (Figure 8)


def standard_snc_configs() -> dict[str, SNCConfig]:
    """The five SNC configurations the evaluation sweeps."""
    return {
        "lru64": SNCConfig(size_bytes=64 * 1024),
        "norepl64": SNCConfig(
            size_bytes=64 * 1024, policy=SNCPolicy.NO_REPLACEMENT
        ),
        "lru32": SNCConfig(size_bytes=32 * 1024),
        "lru128": SNCConfig(size_bytes=128 * 1024),
        "lru64_32way": SNCConfig(size_bytes=64 * 1024, assoc=32),
    }


@dataclass(frozen=True)
class SimulationScale:
    """Trace length (references at L2-input granularity)."""

    warmup_refs: int = 200_000
    measure_refs: int = 250_000

    @property
    def total_refs(self) -> int:
        return self.warmup_refs + self.measure_refs


#: A smaller scale for unit tests and quick smoke runs.
QUICK_SCALE = SimulationScale(warmup_refs=30_000, measure_refs=50_000)


@dataclass
class BenchmarkEvents:
    """Everything measured for one workload source, post-warmup.

    The alternate-L2 counters are ``None`` when the simulation skipped
    the Figure 8 cache (no requesting job priced it).  Multi-task
    scenarios also record each task's measured load misses
    (``task_read_misses``, keyed ``"<xom_id>:<label>"``) — the per-task
    split behind the summed compute calibration."""

    name: str
    xom_slowdown_target: float
    read_misses: int = 0
    allocate_misses: int = 0
    writebacks: int = 0
    read_misses_big_l2: int | None = 0
    allocate_misses_big_l2: int | None = 0
    compute_cycles: int = 0
    snc: dict[str, SNCEventCounts] = field(default_factory=dict)
    integrity: dict[str, IntegrityEventCounts] = field(default_factory=dict)
    task_read_misses: dict[str, int] | None = None

    def trace_events(self, snc_key: str | None = None, *,
                     integrity_key: str | None = None,
                     alt_l2: bool = False) -> TraceEvents:
        """Assemble the pricing view for one SNC configuration.

        ``integrity_key`` selects one simulated integrity configuration's
        counts; the scheme pricers then add its cost on top
        (:func:`repro.timing.model.integrity_cycles`).  ``alt_l2=True``
        substitutes the Figure 8 384KB-L2 miss counts for the baseline
        L2's, so an SNC-free scheme's pricer can price the alternate
        hierarchy without a dedicated code path.  It cannot be combined
        with ``snc_key`` or ``integrity_key``: those event counts were
        generated by the *baseline* L2's miss stream and would not
        describe the alternate hierarchy."""
        read_misses = self.read_misses
        allocate_misses = self.allocate_misses
        if alt_l2:
            if snc_key or integrity_key:
                raise ConfigurationError(
                    f"{self.name}: SNC/integrity events come from the "
                    "baseline L2's miss stream and cannot price the "
                    "alternate L2"
                )
            if self.read_misses_big_l2 is None:
                raise ConfigurationError(
                    f"{self.name}: the alternate-L2 cache was not "
                    "simulated for this event set (declare alt_l2=True "
                    "on the requesting job)"
                )
            read_misses = self.read_misses_big_l2
            allocate_misses = self.allocate_misses_big_l2
        if integrity_key and integrity_key not in self.integrity:
            raise ConfigurationError(
                f"{self.name}: no integrity configuration "
                f"{integrity_key!r} was simulated for this event set "
                "(declare it on the requesting job)"
            )
        return TraceEvents(
            name=self.name,
            read_misses=read_misses,
            allocate_misses=allocate_misses,
            writebacks=self.writebacks,
            compute_cycles=self.compute_cycles,
            snc=self.snc.get(snc_key) if snc_key else None,
            integrity=(
                self.integrity[integrity_key] if integrity_key else None
            ),
        )

