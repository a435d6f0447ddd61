"""Scheme spec: the §4.2 split-sequence-number variant — one file, end to
end.

The paper's §4.2 observes that most lines are rewritten few times, so the
SNC need not store full-width sequence numbers: keep only a **small
per-line counter**, and when a line's counter overflows, retire the line
from one-time-pad treatment and fall back to XOM-style **direct
encryption** (the engine already has that path for the no-replacement
policy).  The trade: narrower entries mean more lines covered per SNC
byte, at the cost of a serial read path for the few hot-written lines that
exhaust their counter.

This module is the registry's extensibility proof: the complete scheme —
policy state machine, functional engine factory, timing state machine,
pricing, packaging binding — lives here and **nowhere else**.  It works in
``SecureProcessor.run`` (``engine_kind="otp_split"``), in the trace
pipeline (an :class:`~repro.eval.jobs.SNCSpec` with
``scheme="otp_split"``), and in the design-space tables, with no edits
outside this file.  ``docs/schemes.md`` walks through it line by line.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.secure.otp_engine import OTPEngine
from repro.secure.schemes import EngineContext, SchemeSpec, register
from repro.secure.snc import Evicted, SequenceNumberCache, SNCConfig
from repro.secure.snc_policy import (
    ReadClass,
    ReadDecision,
    SNCPolicyCore,
    SwitchStrategy,
    WriteClass,
    WriteDecision,
)
from repro.secure.software import ProtectionScheme
from repro.timing.model import SNCTimingSim, otp_cycles

#: Width of the per-line counter kept in the SNC.  Eight bits is the
#: paper's suggested split point: 256 rewrites before a line falls back
#: to direct encryption.
COUNTER_BITS = 8


class SplitSequenceCore(SNCPolicyCore):
    """Algorithm 1 with small per-line counters that overflow to direct
    encryption.

    Extends the shared core at its three policy hooks.  A line whose
    counter overflows is removed from the SNC (a stale entry would hand
    out a pad version for a line that is no longer pad-encrypted) and
    recorded in ``direct_lines``; from then on it reads and writes on the
    XOM serial path.
    """

    def __init__(self, snc: SequenceNumberCache, *,
                 counter_bits: int = COUNTER_BITS, **kwargs):
        super().__init__(snc, **kwargs)
        if counter_bits <= 0:
            raise ConfigurationError("counter_bits must be positive")
        self.counter_max = (1 << counter_bits) - 1

    def _read_query_miss(self, line_index: int) -> ReadDecision:
        if line_index in self.direct_lines:
            return ReadDecision(ReadClass.DIRECT, None)
        return super()._read_query_miss(line_index)

    def _write_update_hit(self, line_index: int, seq: int) -> WriteDecision:
        if seq > self.counter_max:
            return self._overflow(line_index)
        return super()._write_update_hit(line_index, seq)

    def _write_update_miss(self, line_index: int) -> WriteDecision:
        if line_index in self.direct_lines:
            # Once retired, always direct: the line's pad history is gone.
            self.snc.note_rejection()
            return WriteDecision(WriteClass.REJECTED, None)
        decision = super()._write_update_miss(line_index)
        if decision.seq is not None and decision.seq > self.counter_max:
            return self._overflow(line_index)
        return decision

    def _write_detached(self, line_index: int) -> WriteDecision:
        # The FLUSH no-residency write path keeps the split semantics: a
        # retired line stays direct, and an increment past the counter
        # width retires it instead of spilling an overflowed value.
        if line_index in self.direct_lines:
            self.snc.note_rejection()
            return WriteDecision(WriteClass.REJECTED, None)
        seq = self._fetch_entry(line_index) + 1
        if seq > self.counter_max:
            self.snc.note_rejection()
            self.direct_lines.add(line_index)
            return WriteDecision(WriteClass.REJECTED, None)
        self._spill_entry(Evicted(line_index, seq, self.xom_id))
        return WriteDecision(WriteClass.UPDATE_MISS, seq)

    def plain_writebacks(self) -> int:
        # A line's number is its writeback count (reads never advance
        # it), so below the counter width every hook decides as the
        # base core's.
        return self.counter_max

    def _overflow(self, line_index: int) -> WriteDecision:
        """Retire a line from pad treatment: drop its SNC entry, mark it
        direct, and report the write as rejected (direct encryption)."""
        self.snc.remove(line_index, self.xom_id)
        self.snc.note_rejection()
        self.direct_lines.add(line_index)
        return WriteDecision(WriteClass.REJECTED, None)


def _core_factory(snc: SequenceNumberCache, **kwargs) -> SplitSequenceCore:
    return SplitSequenceCore(snc, counter_bits=COUNTER_BITS, **kwargs)


def _build_engine(ctx: EngineContext) -> OTPEngine:
    return OTPEngine(
        ctx.dram, ctx.cipher,
        snc=SequenceNumberCache(ctx.snc_config),
        bus=ctx.bus, latencies=ctx.latencies, regions=ctx.regions,
        integrity=ctx.integrity,
        core_factory=_core_factory,
    )


def _build_timing_sim(
    config: SNCConfig,
    switch_strategy: SwitchStrategy = SwitchStrategy.TAG,
) -> SNCTimingSim:
    return SNCTimingSim(config, core_factory=_core_factory,
                        switch_strategy=switch_strategy)


SPEC = register(SchemeSpec(
    key="otp_split",
    title="OTP + split sequence numbers",
    summary=(
        "small per-line SNC counters; overflow retires the line to "
        "direct encryption (paper §4.2)"
    ),
    # Images are packaged exactly like plain OTP (version-0 pads); the
    # split behaviour only appears at runtime, after writebacks.
    protection=ProtectionScheme.OTP,
    build_engine=_build_engine,
    price=otp_cycles,  # direct reads price on the serial path already
    build_timing_sim=_build_timing_sim,
))
