"""Event-count timing: how the evaluation prices memory-system events.

The paper's own results justify this structure — Figure 10's XOM slowdowns
are Figure 3's multiplied by 102/50 almost exactly, i.e. *slowdown composes
linearly from per-event latencies*.  So one cache/SNC simulation yields
event counts, and pricing them under any :class:`LatencyParams` regenerates
any latency configuration (which is how Figure 10 is produced without
re-simulating).

The SNC timing simulator here drives the *same*
:class:`~repro.secure.snc_policy.SNCPolicyCore` state machine as the
functional :class:`~repro.secure.otp_engine.OTPEngine` — one decision
procedure, two consumers — so the functional and timing layers cannot
drift apart by construction (the cross-check tests in ``tests/timing``
still assert it).  Scheme variants plug in their own core via
``core_factory``; the scheme registry
(:mod:`repro.secure.schemes`) binds each registered scheme to its core,
its engine, and its pricing function below.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.secure.context import TaskContexts
from repro.secure.engine import LatencyParams
from repro.secure.integrity import IntegrityEventCounts, get_integrity
from repro.secure.snc import Evicted, SequenceNumberCache, SNCConfig
from repro.secure.snc_policy import ReadClass, SwitchStrategy, WriteClass

#: The compacted trace-event vocabulary the record/replay engine speaks
#: (:mod:`repro.eval.record`).  Each event is a ``(kind, line, aux)``
#: triple; ``aux`` is the writeback owner's XOM id for
#: :data:`EVENT_WRITEBACK`, the incoming task's XOM id for
#: :data:`EVENT_SWITCH`, and 0 otherwise.  Defined here because the
#: timing layer's batch pricer (:mod:`repro.timing.batch`) is the hot
#: consumer.
EVENT_READ = 0  # critical (load) L2 miss: the CPU stalls on the line
EVENT_ALLOC = 1  # write-allocate L2 miss: hidden by the store path
EVENT_WRITEBACK = 2  # dirty L2 eviction reaching memory (aux = owner)
EVENT_SWITCH = 3  # §4.3 context switch (aux = incoming XOM id)
EVENT_RESET = 4  # warmup boundary: zero all counters, keep warm state


@dataclass
class SNCEventCounts:
    """What happened at the SNC while servicing one L2 miss stream."""

    overlapped_reads: int = 0  # SNC query hit (or version-0 first touch)
    seqnum_miss_reads: int = 0  # LRU query miss: table fetch on critical path
    direct_reads: int = 0  # no-replacement fallback: XOM serial path
    allocate_queries: int = 0  # write-allocate fetches (off critical path)
    update_hits: int = 0
    update_misses: int = 0
    rejected_updates: int = 0  # no-replacement, full: direct encryption
    table_fetches: int = 0  # SEQNUM_READ transfers (traffic)
    table_spills: int = 0  # SEQNUM_WRITE transfers (traffic)
    switches: int = 0  # §4.3 context switches seen by this SNC
    switch_spills: int = 0  # entries spilled at switch time (FLUSH only)

    @property
    def reads(self) -> int:
        return self.overlapped_reads + self.seqnum_miss_reads + self.direct_reads

    @property
    def extra_transfers(self) -> int:
        """SNC-induced bus transfers, in transactions (each moves one
        sequence-number entry; see :func:`snc_traffic_pct` for the
        byte-relative Figure 9 metric)."""
        return self.table_fetches + self.table_spills

    def reset(self) -> None:
        for field in fields(self):
            setattr(self, field.name, 0)


class SNCTimingSim:
    """Byte-free twin of the OTP engine: the shared policy core over a
    value-faithful (but unencrypted) sequence-number spill table.

    The table is a plain dict standing in for the encrypted in-memory
    table the functional engine maintains — fetches and spills move the
    same values, so even value-dependent scheme variants (split counters
    overflowing to direct encryption) stay count-identical across the two
    layers.

    Multi-programmed scenarios (§4.3) drive the same simulator: a
    :class:`~repro.secure.context.TaskContexts` keeps one policy core per
    task over the shared SNC, the spill table is keyed per owner, and
    :meth:`switch_task` routes context switches through the cores'
    strategy hooks (``switch_strategy`` selects FLUSH or TAG).  A
    single-task trace never switches, so the figure pipeline's counts are
    unchanged.
    """

    def __init__(self, config: SNCConfig, core_factory=None,
                 switch_strategy: SwitchStrategy = SwitchStrategy.TAG):
        self.snc = SequenceNumberCache(config)
        self.counts = SNCEventCounts()
        self._table: dict[tuple[int, int], int] = {}
        # The spill-table callbacks close over the counts and the table,
        # never over ``self``: bound methods here would tie the sim, its
        # task contexts, and every core into reference cycles, so a
        # finished sim (plus its whole warm SNC) could only be reclaimed
        # by the cyclic collector — a long-lived process pricing many
        # configurations then stalls in gen-2 GC passes.
        counts = self.counts
        table = self._table

        def fetch_entry(xom_id: int, line_index: int,
                        _get=table.get) -> int:
            counts.table_fetches += 1
            return _get((xom_id, line_index), 0)

        def spill_entry(victim: Evicted) -> None:
            counts.table_spills += 1
            table[(victim.xom_id, victim.line_index)] = victim.seq

        self._fetch_entry = fetch_entry
        self._spill_entry = spill_entry
        self.tasks = TaskContexts(
            self.snc,
            core_factory=core_factory,
            strategy=switch_strategy,
            fetch_entry=fetch_entry,
            spill_entry=spill_entry,
        )
        self.core = self.tasks.current

    def begin_task(self, xom_id: int) -> None:
        """Select the first scheduled task (no switch is counted)."""
        self.core = self.tasks.begin(xom_id)

    def switch_task(self, xom_id: int) -> None:
        """One §4.3 context switch: the outgoing core's strategy hook
        runs (FLUSH spills count as table spills — they are real
        transfers — and as ``switch_spills`` for switch-time pricing),
        then the incoming task's core takes over."""
        spilled = self.tasks.switch_to(xom_id)
        self.counts.switches += 1
        self.counts.switch_spills += spilled
        self.core = self.tasks.current

    def read_miss(self, line_index: int, critical: bool = True) -> None:
        """An L2 miss fetches a data line through the engine.

        ``critical=True`` for load misses (the CPU is stalled on the
        result); ``critical=False`` for write-allocate fetches, which the
        store buffer hides (paper §3.4: writes are off the critical path)
        but which still need the sequence number to decrypt the line.
        """
        decision = self.core.read(line_index)
        if not critical:
            self.counts.allocate_queries += 1
        elif decision.kind is ReadClass.OVERLAPPED:
            self.counts.overlapped_reads += 1
        elif decision.kind is ReadClass.SEQNUM_MISS:
            self.counts.seqnum_miss_reads += 1
        else:
            self.counts.direct_reads += 1

    def writeback(self, line_index: int, xom_id: int | None = None) -> None:
        """A dirty L2 line is evicted through the engine.

        ``xom_id`` names the line's *owner* when it differs from the
        scheduled task: a shared L2 can evict a descheduled task's dirty
        line during another's quantum, and the sequence-number update
        must run under the owner's tag (in hardware the owner tag
        travels with the line).  ``None`` means the current task's line.
        A descheduled owner's write goes through its core's
        ``write_descheduled`` path, which under FLUSH leaves no
        residency (the SNC holds only the running task's entries).
        """
        core = self.core
        if xom_id is not None and xom_id != core.xom_id:
            decision = self.tasks.core_for(xom_id).write_descheduled(
                line_index
            )
        else:
            decision = core.write(line_index)
        if decision.kind is WriteClass.UPDATE_HIT:
            self.counts.update_hits += 1
            return
        self.counts.update_misses += 1
        if decision.kind is WriteClass.REJECTED:
            self.counts.rejected_updates += 1

    def reset_counts(self) -> None:
        """Zero the counters while keeping warm state (end of warmup)."""
        self.counts.reset()


@dataclass(frozen=True)
class TraceEvents:
    """Everything a priced configuration needs, from one simulation."""

    name: str
    read_misses: int  # critical (load) L2 misses — the CPU stalls on these
    allocate_misses: int  # write-allocate fetches — hidden by the store path
    writebacks: int  # dirty L2 evictions reaching memory
    compute_cycles: int  # non-memory cycles (calibrated, see workloads.spec)
    snc: SNCEventCounts | None = None  # present for OTP configurations
    #: Present when an integrity configuration was simulated for this
    #: trace; ``counts.provider`` names the registered
    #: :class:`~repro.secure.integrity.IntegritySpec` whose pricer
    #: interprets it (:func:`integrity_cycles` dispatches).
    integrity: IntegrityEventCounts | None = None
    line_bytes: int = 128
    seq_bytes: int = 2

    @property
    def program_transactions(self) -> int:
        """L2<->memory line transfers (loads, allocations, writebacks)."""
        return self.read_misses + self.allocate_misses + self.writebacks


def baseline_cycles(events: TraceEvents, lat: LatencyParams) -> float:
    """The insecure processor: every read miss pays one memory latency.

    No integrity term by construction — the baseline is every figure's
    denominator and verifies nothing.  Handing it integrity events is a
    caller error (the cost would silently vanish from the table), so it
    raises rather than prices them."""
    if events.integrity is not None:
        raise ValueError(
            f"{events.name}: the insecure baseline verifies nothing — "
            "price integrity events through a protected scheme"
        )
    return events.compute_cycles + events.read_misses * lat.memory


def integrity_cycles(events: TraceEvents, lat: LatencyParams) -> float:
    """Extra cycles of the trace's integrity configuration, or 0.

    Dispatches through the integrity registry on ``counts.provider``, so
    every scheme pricer adds the same term and a new provider file prices
    itself.  Returns an exact int 0 when the trace carries no integrity
    events, keeping integrity-free pricing bit-identical to the
    pre-integrity code paths."""
    counts = events.integrity
    if counts is None:
        return 0
    return get_integrity(counts.provider).price(counts, lat)


def xom_cycles(events: TraceEvents, lat: LatencyParams) -> float:
    """XOM: every read miss pays memory plus serial crypto.

    Pricing the Figure 8 alternate hierarchy needs no special case here:
    :meth:`~repro.eval.pipeline.BenchmarkEvents.trace_events` with
    ``alt_l2=True`` substitutes the 384KB-L2 miss counts."""
    return (
        events.compute_cycles
        + events.read_misses * lat.serial_read
        + integrity_cycles(events, lat)
    )


def otp_cycles(events: TraceEvents, lat: LatencyParams) -> float:
    """The paper's scheme, priced from the SNC event mix.

    Multi-programmed scenarios add the §4.3 switch-time term: a FLUSH
    switch drains ``switch_spills`` encrypt-and-store operations before
    the next task can fill the SNC (:attr:`LatencyParams.seqnum_spill`
    per entry; the post-switch re-warm misses are already in
    ``seqnum_miss_reads``).  Single-task traces carry zero switches, so
    the figure pipeline's totals are untouched."""
    if events.snc is None:
        raise ValueError("trace carries no SNC events")
    snc = events.snc
    return (
        events.compute_cycles
        + snc.overlapped_reads * lat.overlapped_read
        + snc.seqnum_miss_reads * lat.seqnum_miss_read
        + snc.direct_reads * lat.serial_read
        + snc.switch_spills * lat.seqnum_spill
        + integrity_cycles(events, lat)
    )


def slowdown_pct(secure_cycles: float, base_cycles: float) -> float:
    """Percent slowdown over the insecure baseline (Figures 3, 5, 6, 7, 10)."""
    if base_cycles <= 0:
        raise ValueError("baseline cycles must be positive")
    return (secure_cycles / base_cycles - 1.0) * 100.0


def normalized_time(secure_cycles: float, base_cycles: float) -> float:
    """Execution time normalized to the baseline (Figure 8)."""
    return secure_cycles / base_cycles


def snc_traffic_pct(events: TraceEvents) -> float:
    """SNC-induced extra memory traffic, percent of L2<->memory traffic
    (Figure 9), measured in *bytes*: each spill/fill moves one
    ``seq_bytes`` entry versus ``line_bytes`` per program line transfer.

    The byte basis is the only reading consistent with the paper's
    magnitudes — benchmarks with measurable SNC miss rates (mcf at 6.44%
    slowdown) still report well under 1% traffic, which a per-transaction
    count could not produce; see EXPERIMENTS.md."""
    if events.snc is None:
        raise ValueError("trace carries no SNC events")
    if events.program_transactions == 0:
        return 0.0
    extra_bytes = events.snc.extra_transfers * events.seq_bytes
    program_bytes = events.program_transactions * events.line_bytes
    return 100.0 * extra_bytes / program_bytes


def calibrate_compute_cycles(read_misses: int, xom_slowdown_pct: float,
                             lat: LatencyParams | None = None) -> int:
    """Solve for compute cycles from a published Figure 3 XOM slowdown.

    From ``s = R*crypto / (C + R*memory)`` (XOM adds ``crypto`` serially to
    each of the ``R`` read misses over a baseline of ``C + R*memory``)::

        C = R * (crypto / s - memory)

    This is the documented calibration step: Figure 3 *characterises* each
    benchmark's memory-boundedness; all downstream figures then emerge from
    simulation.
    """
    lat = lat or LatencyParams()
    s = xom_slowdown_pct / 100.0
    if s <= 0:
        raise ValueError("XOM slowdown must be positive")
    compute = read_misses * (lat.crypto / s - lat.memory)
    if compute < 0:
        raise ValueError(
            f"slowdown {xom_slowdown_pct}% exceeds the all-memory bound "
            f"(crypto/memory = {lat.crypto / lat.memory:.2f})"
        )
    return int(round(compute))
