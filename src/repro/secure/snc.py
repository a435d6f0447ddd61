"""The Sequence Number Cache (SNC) — the paper's key hardware structure (§4).

An on-chip cache, inside the security boundary, that maps a line's
**virtual** address to its current sequence number.  It sits below L2 and
watches the L2<->memory traffic:

* **query** (L2 read miss): is the target line's sequence number on chip?
  A hit means pad generation can start immediately, fully overlapped with
  the DRAM access.  A miss is policy-dependent (see below).
* **update** (L2 writeback): bump the line's sequence number and use the
  new value to encrypt the outgoing line.

Two operating policies (§4.1):

* :attr:`SNCPolicy.LRU` — every line conceptually has a sequence number;
  those that don't fit on chip spill to an encrypted table in untrusted
  memory.  A query miss must fetch + decrypt the spilled number before pad
  generation can start — the most expensive operation in the design.
* :attr:`SNCPolicy.NO_REPLACEMENT` — once full, additional lines simply
  don't get one-time-pad treatment and fall back to XOM-style direct
  encryption.  Simple, but Figure 5/10 show LRU clearly wins.

Entries can optionally be tagged with a XOM (compartment) ID so that
multiple protected tasks can share the SNC across context switches — one of
the two §4.3 strategies, measured by the context-switch ablation bench.

This class is a pure data structure: *it performs no memory accesses*.
The engines orchestrate spills/fills and charge latencies; the evaluation
harness drives the same structure with line indices only.  One structure,
two layers — keeps the functional and timing paths provably consistent.

Each set is an ``OrderedDict`` keyed by (line, xom_id) in recency order,
so every operation is O(1) even for the paper's fully associative 32K-entry
configuration (the evaluation pushes millions of operations through this).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.utils.intmath import is_power_of_two


class SNCPolicy(enum.Enum):
    """What to do when the SNC is full (paper §4.1)."""

    LRU = "lru"
    NO_REPLACEMENT = "no-replacement"


@dataclass
class SNCStats:
    """Event counters; the timing model prices these."""

    query_hits: int = 0
    query_misses: int = 0
    update_hits: int = 0
    update_misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected: int = 0  # no-replacement policy, cache full

    @property
    def queries(self) -> int:
        return self.query_hits + self.query_misses

    @property
    def updates(self) -> int:
        return self.update_hits + self.update_misses

    @property
    def query_hit_rate(self) -> float:
        return self.query_hits / self.queries if self.queries else 0.0


@dataclass(frozen=True)
class SNCConfig:
    """Geometry: the paper's default is 64KB of 2-byte entries, fully
    associative (Figure 5), with 32-way set-associative as the practical
    variant (Figure 7)."""

    size_bytes: int = 64 * 1024
    entry_bytes: int = 2
    assoc: int | None = None  # None = fully associative
    policy: SNCPolicy = SNCPolicy.LRU

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.entry_bytes <= 0:
            raise ConfigurationError("SNC sizes must be positive")
        if self.size_bytes % self.entry_bytes:
            raise ConfigurationError("SNC size must be whole entries")
        entries = self.n_entries
        if not is_power_of_two(entries):
            raise ConfigurationError(
                f"SNC entry count {entries} must be a power of two"
            )
        if self.assoc is not None:
            if self.assoc <= 0 or entries % self.assoc:
                raise ConfigurationError(
                    f"associativity {self.assoc} must divide {entries}"
                )

    @property
    def n_entries(self) -> int:
        return self.size_bytes // self.entry_bytes

    @property
    def n_sets(self) -> int:
        return 1 if self.assoc is None else self.n_entries // self.assoc

    @property
    def ways(self) -> int:
        return self.n_entries if self.assoc is None else self.assoc

    @property
    def coverage_bytes(self) -> int:
        """Memory covered with one-time-pad treatment, given 128B lines."""
        return self.n_entries * 128


class Evicted(NamedTuple):
    """A spilled entry the engine must write to the in-memory table.

    A named tuple, not a dataclass: one is allocated per SNC eviction in
    the evaluation hot loops, and tuple construction is measurably
    cheaper there while keeping the same field API."""

    line_index: int
    seq: int
    xom_id: int = 0


class SequenceNumberCache:
    """Set-associative (or fully associative) LRU store of sequence numbers."""

    def __init__(self, config: SNCConfig | None = None):
        self.config = config or SNCConfig()
        self.stats = SNCStats()
        # (line_index, xom_id) -> seq, in LRU->MRU order per set.
        self._sets: list[OrderedDict[tuple[int, int], int]] = [
            OrderedDict() for _ in range(self.config.n_sets)
        ]
        self._n_sets = self.config.n_sets
        self._ways = self.config.ways

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets)

    @property
    def is_full(self) -> bool:
        return len(self) >= self.config.n_entries

    def _set_for(self, line_index: int) -> OrderedDict:
        if self._n_sets == 1:
            return self._sets[0]
        return self._sets[line_index % self._n_sets]

    # -- the two operations the paper defines (§4.2) -------------------------

    def query(self, line_index: int, xom_id: int = 0) -> int | None:
        """L2 read miss: return the line's sequence number, or None.

        A ``None`` means a *query miss*: under LRU the engine must fetch the
        spilled number from memory (then :meth:`insert` it); under
        no-replacement it means the line was directly encrypted.
        """
        entries = self._set_for(line_index)
        key = (line_index, xom_id)
        seq = entries.get(key)
        if seq is None:
            self.stats.query_misses += 1
            return None
        self.stats.query_hits += 1
        entries.move_to_end(key)
        return seq

    def update(self, line_index: int, xom_id: int = 0) -> int | None:
        """L2 writeback: bump and return the line's new sequence number.

        Returns ``None`` on an *update miss* — the number is not resident.
        The engine then either fetches-and-:meth:`insert`s it (LRU) or gives
        up and encrypts directly (no-replacement, full).
        """
        entries = self._set_for(line_index)
        key = (line_index, xom_id)
        seq = entries.get(key)
        if seq is None:
            self.stats.update_misses += 1
            return None
        self.stats.update_hits += 1
        seq += 1
        entries[key] = seq
        entries.move_to_end(key)
        return seq

    def insert(self, line_index: int, seq: int, xom_id: int = 0
               ) -> Evicted | None:
        """Install a sequence number fetched from memory (or a fresh one).

        Returns the evicted victim that must be spilled, or None.  Under
        :attr:`SNCPolicy.NO_REPLACEMENT` a full set rejects the insert by
        raising ``ConfigurationError`` — callers must check
        :meth:`can_insert` first (mirrors hardware where the fill simply
        doesn't happen).
        """
        entries = self._set_for(line_index)
        key = (line_index, xom_id)
        if key in entries:
            # Refresh in place (e.g. re-fetch raced with an earlier insert).
            entries[key] = seq
            entries.move_to_end(key)
            return None
        victim = None
        if len(entries) >= self._ways:
            if self.config.policy is SNCPolicy.NO_REPLACEMENT:
                raise ConfigurationError(
                    "insert into a full no-replacement SNC; "
                    "call can_insert() first"
                )
            (old_line, old_xom), old_seq = entries.popitem(last=False)
            self.stats.evictions += 1
            victim = Evicted(old_line, old_seq, old_xom)
        entries[key] = seq
        self.stats.insertions += 1
        return victim

    def can_insert(self, line_index: int) -> bool:
        """Whether an insert would succeed without violating the policy."""
        if self.config.policy is SNCPolicy.LRU:
            return True
        return len(self._set_for(line_index)) < self._ways

    def note_rejection(self) -> None:
        """Record that a line had to fall back to direct encryption."""
        self.stats.rejected += 1

    def set_seq(self, line_index: int, seq: int, xom_id: int = 0) -> None:
        """Overwrite a resident entry's value (epoch wrap handling)."""
        entries = self._set_for(line_index)
        key = (line_index, xom_id)
        if key in entries:
            entries[key] = seq

    def remove(self, line_index: int, xom_id: int = 0) -> int | None:
        """Drop one entry without spilling it; returns its sequence number.

        Used by schemes that retire a line from one-time-pad treatment
        (e.g. a split-counter overflow falling back to direct encryption):
        the entry must not linger, or a later query would hit a stale pad
        version for a line that is no longer pad-encrypted.
        """
        return self._set_for(line_index).pop((line_index, xom_id), None)

    # -- context-switch support (§4.3) ---------------------------------------

    def flush(self) -> list[Evicted]:
        """Strategy 1: spill everything and clear (flush-with-encryption)."""
        spilled = [
            Evicted(line, seq, xom)
            for entries in self._sets
            for (line, xom), seq in entries.items()
        ]
        for entries in self._sets:
            entries.clear()
        return spilled

    def drop_task(self, xom_id: int) -> list[Evicted]:
        """Spill only one task's entries (targeted flush), set by set in
        LRU order.  Empty sets are skipped in C, so a FLUSH switch costs
        what the occupied sets hold, not the set count."""
        spilled = []
        for entries in filter(None, self._sets):
            doomed = [key for key in entries if key[1] == xom_id]
            for key in doomed:
                spilled.append(Evicted(key[0], entries.pop(key), key[1]))
        return spilled

    def peek(self, line_index: int, xom_id: int = 0) -> int | None:
        """Read a sequence number without LRU/stats effects (tests, tools)."""
        return self._set_for(line_index).get((line_index, xom_id))
