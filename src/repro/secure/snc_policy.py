"""The SNC decision logic (Algorithm 1, §4.2) as one shared state machine.

Historically this logic existed twice — once in the byte-moving
:class:`~repro.secure.otp_engine.OTPEngine` and once in the byte-free
:class:`~repro.timing.model.SNCTimingSim` — held consistent only by a
cross-check test.  :class:`SNCPolicyCore` is the single implementation both
layers now drive, so the functional and timing paths *cannot* drift: the
engine supplies real table fetch/spill callbacks (moving encrypted
sequence-number blocks over the bus), the timing simulator supplies
counting callbacks backed by a plain dict, and both get back the same
:class:`ReadDecision`/:class:`WriteDecision` stream for the same trace.

Scheme variants subclass the core and override the ``_read_query_miss`` /
``_write_update_hit`` / ``_write_update_miss`` hooks — see the
``otp_split`` spec in :mod:`repro.secure.schemes.otp_split` for the
paper's §4.2 split-sequence-number variant done this way.  The §4.3
context-switch strategies are core behavior too: ``on_switch_out`` /
``on_switch_in`` implement FLUSH (encrypt-and-spill on the way out) and
TAG (owner-tagged entries stay resident), selected by
:class:`SwitchStrategy`; :class:`~repro.secure.context.TaskContexts`
coordinates one core per task over a shared SNC.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.secure.snc import Evicted, SequenceNumberCache, SNCPolicy

#: Fetch one spilled sequence number for a line index (the engine decrypts
#: a table entry; the timing simulator reads a dict).
FetchEntry = Callable[[int], int]

#: Persist one evicted entry (the engine encrypts-and-stores; the timing
#: simulator records the value and counts the transfer).
SpillEntry = Callable[[Evicted], None]


class SwitchStrategy(enum.Enum):
    """SNC handling across OS context switches (§4.3).

    The paper names both and leaves their cost "currently open":

    * :attr:`FLUSH` — encrypt-and-spill every resident entry to the
      in-memory table on the way out; the incoming task starts with a
      cold SNC.  Cost is paid at switch time (spill writes) and after
      (query misses to re-warm).
    * :attr:`TAG` — entries stay resident, tagged with their owner's XOM
      ID; no switch-time cost, but tasks share capacity and one task's
      entries can be evicted by another's traffic.
    """

    FLUSH = "flush"
    TAG = "tag"


class ReadClass(enum.Enum):
    """How an L2 read miss is serviced — what the timing model prices."""

    OVERLAPPED = "overlapped"  # seed on chip: MAX(memory, crypto) + 1
    SEQNUM_MISS = "seqnum-miss"  # table fetch on the critical path
    DIRECT = "direct"  # direct-encryption fallback: the XOM serial path


class WriteClass(enum.Enum):
    """How an L2 writeback is serviced (always off the critical path)."""

    UPDATE_HIT = "update-hit"
    UPDATE_MISS = "update-miss"  # resolved with a sequence number anyway
    REJECTED = "rejected"  # direct-encryption fallback


class ReadDecision(NamedTuple):
    """Outcome of one read miss: the path taken and the pad version.

    ``seq`` is ``None`` exactly when ``kind`` is :attr:`ReadClass.DIRECT`
    (a directly-encrypted line has no pad version).  Both decision types
    are named tuples rather than frozen dataclasses: one is allocated per
    classified event in the evaluation hot loops, and tuple construction
    is several hundred nanoseconds cheaper per call at the same field
    API."""

    kind: ReadClass
    seq: int | None


class WriteDecision(NamedTuple):
    """Outcome of one writeback: ``seq`` is the new pad version, or
    ``None`` when ``kind`` is :attr:`WriteClass.REJECTED`."""

    kind: WriteClass
    seq: int | None


class SNCPolicyCore:
    """The paper's query/update decision procedure over one SNC.

    Owns the per-line fallback state the decisions depend on — which lines
    fell back to direct encryption (``direct_lines``) and the highest
    sequence number ever issued under no-replacement (``fallback_seq``) —
    and delegates actual sequence-number movement to the two callbacks.
    """

    def __init__(self, snc: SequenceNumberCache, *, xom_id: int = 0,
                 fetch_entry: FetchEntry | None = None,
                 spill_entry: SpillEntry | None = None,
                 switch_strategy: SwitchStrategy = SwitchStrategy.TAG):
        if (switch_strategy is SwitchStrategy.FLUSH
                and snc.config.policy is not SNCPolicy.LRU):
            raise ConfigurationError(
                "the FLUSH switch strategy spills to the in-memory table, "
                "which only the LRU policy maintains"
            )
        self.snc = snc
        self.xom_id = xom_id
        self.switch_strategy = switch_strategy
        self._fetch_entry = fetch_entry or (lambda line_index: 0)
        self._spill_entry = spill_entry or (lambda victim: None)
        # Lines that fell back to direct encryption.  Conceptually a
        # metadata bit travelling with the line; kept here because
        # untrusted memory cannot be trusted to keep it.
        self.direct_lines: set[int] = set()
        # Highest sequence number ever issued per line under
        # no-replacement, so a line re-admitted after a flush can never
        # reuse a pad.  (LRU recovers this from the spill table;
        # no-replacement has no table.)
        self.fallback_seq: dict[int, int] = {}

    # ------------------------------------------------------------------ reads

    def read(self, line_index: int) -> ReadDecision:
        """Classify one L2 read miss and apply its SNC state effects."""
        seq = self.snc.query(line_index, self.xom_id)
        if seq is not None:
            return ReadDecision(ReadClass.OVERLAPPED, seq)
        return self._read_query_miss(line_index)

    def _read_query_miss(self, line_index: int) -> ReadDecision:
        if self.snc.config.policy is SNCPolicy.NO_REPLACEMENT:
            if line_index in self.direct_lines:
                return ReadDecision(ReadClass.DIRECT, None)
            # Untouched vendor-image line: version-0 pad, overlapped.
            return ReadDecision(ReadClass.OVERLAPPED, 0)
        return self._read_table_fetch(line_index)

    def _read_table_fetch(self, line_index: int) -> ReadDecision:
        """Algorithm 1, query-miss arm: fetch the spilled number, install
        it (spilling a victim), decrypt with it."""
        seq = self._fetch_entry(line_index)
        self._install(line_index, seq)
        return ReadDecision(ReadClass.SEQNUM_MISS, seq)

    # ----------------------------------------------------------------- writes

    def write(self, line_index: int) -> WriteDecision:
        """Classify one L2 writeback and apply its SNC state effects."""
        seq = self.snc.update(line_index, self.xom_id)
        if seq is not None:
            return self._write_update_hit(line_index, seq)
        return self._write_update_miss(line_index)

    def _write_update_hit(self, line_index: int, seq: int) -> WriteDecision:
        return WriteDecision(WriteClass.UPDATE_HIT, seq)

    def _write_update_miss(self, line_index: int) -> WriteDecision:
        if self.snc.config.policy is SNCPolicy.LRU:
            # Algorithm 1, update-miss arm: fetch, increment, install.
            seq = self._fetch_entry(line_index) + 1
            self._install(line_index, seq)
            return WriteDecision(WriteClass.UPDATE_MISS, seq)
        if not self.snc.can_insert(line_index):
            self.snc.note_rejection()
            self.direct_lines.add(line_index)
            return WriteDecision(WriteClass.REJECTED, None)
        seq = self.fallback_seq.get(line_index, 0) + 1
        self.fallback_seq[line_index] = seq
        self.snc.insert(line_index, seq, self.xom_id)
        self.direct_lines.discard(line_index)
        return WriteDecision(WriteClass.UPDATE_MISS, seq)

    # ------------------------------------------------ context switches (§4.3)

    def on_switch_out(self) -> int:
        """This task is being descheduled; returns the entries spilled.

        Under :attr:`SwitchStrategy.FLUSH` every entry this task owns is
        spilled to the in-memory table (through the same ``spill_entry``
        callback evictions use — the engine encrypts-and-stores, the
        timing simulator counts the transfers) and dropped from the SNC.
        Under :attr:`SwitchStrategy.TAG` entries stay resident under the
        owner tag and the switch costs nothing.
        """
        if self.switch_strategy is not SwitchStrategy.FLUSH:
            return 0
        spilled = self.snc.drop_task(self.xom_id)
        for victim in spilled:
            self._spill_entry(victim)
        return len(spilled)

    def on_switch_in(self) -> None:
        """This task is being scheduled; nothing to do under either
        strategy (FLUSH re-warms through query misses, TAG entries never
        left).  Variant schemes may override — e.g. to prefetch."""

    def write_descheduled(self, line_index: int) -> WriteDecision:
        """A dirty eviction of this task's line arriving while the task
        is *descheduled* (a shared L2 can evict it during another task's
        quantum).

        Under TAG this is an ordinary write — entries are legitimately
        resident under the owner tag.  Under FLUSH the SNC holds only
        the running task's entries, so the update must leave no
        residency: a table read-modify-write through the fetch/spill
        callbacks (:meth:`_write_detached`, the per-scheme hook).
        """
        if self.switch_strategy is not SwitchStrategy.FLUSH:
            return self.write(line_index)
        return self._write_detached(line_index)

    def _write_detached(self, line_index: int) -> WriteDecision:
        seq = self._fetch_entry(line_index) + 1
        self._spill_entry(Evicted(line_index, seq, self.xom_id))
        return WriteDecision(WriteClass.UPDATE_MISS, seq)

    def plain_writebacks(self) -> float | None:
        """How many writebacks one ``(owner, line)`` may take while this
        core decides as plain Algorithm 1 (the condition for pricing it
        by a walk of :mod:`repro.timing.stack`), or ``None``; an
        override of any decision method returns ``None`` unless it
        overrides this too."""
        cls = type(self)
        if all(getattr(cls, name) is value
               for name, value in vars(SNCPolicyCore).items()
               if callable(value) and not name.startswith("__")):
            return math.inf
        return None

    # -------------------------------------------------------------- internals

    def _install(self, line_index: int, seq: int) -> None:
        victim = self.snc.insert(line_index, seq, self.xom_id)
        if victim is not None:
            self._spill_entry(victim)
