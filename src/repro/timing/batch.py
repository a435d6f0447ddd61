"""Batch replay: many timing sims priced from one recorded column set.

The per-event semantics live on :class:`~repro.timing.model.SNCTimingSim`
(:meth:`~repro.timing.model.SNCTimingSim.read_miss` / ``writeback`` /
``switch_task`` / ``reset_counts``), one call per event per
configuration.  A sweep prices the *same* recorded stream through many
configurations, and most of them need no per-lane simulation at all:
:func:`replay_events_batch` sends each lane (see :func:`_lane_walks`)
to one of three places.

* **stack walk** — an LRU lane whose core decides as plain Algorithm 1:
  :func:`repro.timing.stack.price_stack` prices every such lane, §4.3
  switch streams included, from one LRU stack pass per geometry group
  (stack distances, by the inclusion property).
* **rank walk** — a no-replacement lane under the same condition:
  :func:`repro.timing.stack.price_ranks` prices every such lane from
  one pass per set count (first-writeback ranks, by the same
  inclusion).
* **per-event loop** — everything else: a warm SNC, a core overriding
  ``read``/``write``, or a bounded core (``otp_split``) that sees more
  writebacks per line than its bound.  The loop calls the sim's own
  methods, one call per event, exactly as the oracle does.

Walked lanes sharing a walk, a switch strategy and a first task share
one call.  Integrity models each price the recording in one
``replay_columns`` call.  ``tests/timing/test_stack.py`` pins each walk
against the per-event sim and the routing, and
``tests/eval/test_replay_differential.py`` pins the whole pricer
against the per-reference oracle in ``tests/eval/oracle.py``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from itertools import compress

from repro.secure.snc import SNCPolicy
from repro.secure.snc_policy import SwitchStrategy
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_SWITCH,
    EVENT_WRITEBACK,
    SNCTimingSim,
)
from repro.timing.stack import price_ranks, price_stack

#: Per-lane counters a walk returns, in order (see :func:`_flush`).  The
#: first block is the :class:`~repro.timing.model.SNCEventCounts`
#: classification counts plus the traffic counts the sim's callbacks
#: bump; the second is the SNC stat increments; the last is the
#: switches and switch spills.
_COUNTERS = ("o", "sm", "dr", "al", "uh", "um", "rj", "tf", "tp",
             "qh", "qm", "sh", "su", "ins", "ev", "rjs", "sw", "ss")


def compiled_batch_info() -> tuple[int, int, int]:
    """``(cached functions, cache hits, compiles)``: always zero, as the
    batch pricer compiles nothing; kept for perfbench's traced run."""
    return 0, 0, 0


def _flush(sim: SNCTimingSim, c: tuple) -> None:
    """Fold one walked lane's counters into its sim."""
    counts = sim.counts
    counts.overlapped_reads += c[0]
    counts.seqnum_miss_reads += c[1]
    counts.direct_reads += c[2]
    counts.allocate_queries += c[3]
    counts.update_hits += c[4]
    counts.update_misses += c[5]
    counts.rejected_updates += c[6]
    counts.table_fetches += c[7]
    counts.table_spills += c[8]
    stats = sim.snc.stats
    stats.query_hits += c[9]
    stats.query_misses += c[10]
    stats.update_hits += c[11]
    stats.update_misses += c[12]
    stats.insertions += c[13]
    stats.evictions += c[14]
    stats.rejected += c[15]
    counts.switches += c[16]
    counts.switch_spills += c[17]


def _lane_walks(sims: Sequence[SNCTimingSim], kinds, lines) -> list:
    """The walk that prices each lane — :func:`price_stack` for an LRU
    SNC, :func:`price_ranks` for a no-replacement one — or ``None`` for
    the per-event loop.  A lane is walked when its SNC is fresh, over
    the sim's own fetch/spill callbacks, and its core decides as plain
    Algorithm 1 (``plain_writebacks``) for the most writebacks a line
    takes, over all owners (a bound on any ``(owner, line)``)."""
    walks = {SNCPolicy.LRU: price_stack,
             SNCPolicy.NO_REPLACEMENT: price_ranks}
    limits = [
        sim.core.plain_writebacks()
        if (sim.snc.stats.insertions == 0
            and sim.tasks._fetch_entry == getattr(sim, "_fetch_entry", None)
            and sim.core._spill_entry == getattr(sim, "_spill_entry", None))
        else None
        for sim in sims
    ]
    most = 0
    if any(limit is not None and limit < math.inf for limit in limits):
        most = max(Counter(compress(lines, map(EVENT_WRITEBACK.__eq__,
                                               kinds))).values(), default=0)
    return [walks[sim.snc.config.policy]
            if limit is not None and most <= limit else None
            for sim, limit in zip(sims, limits)]


def _replay_per_event(sim: SNCTimingSim, kinds, lines, aux) -> None:
    """Drive ``sim`` one method call per event."""
    read, write = sim.read_miss, sim.writeback
    for kind, line, owner in zip(kinds, lines, aux):
        if kind == EVENT_READ:
            read(line)
        elif kind == EVENT_ALLOC:
            read(line, False)
        elif kind == EVENT_WRITEBACK:
            write(line, owner)
        elif kind == EVENT_SWITCH:
            sim.switch_task(owner)
        else:  # EVENT_RESET: the warmup boundary
            sim.reset_counts()


def replay_events_batch(sims: Sequence[SNCTimingSim],
                        integrity_models: Sequence,
                        kinds, lines, aux) -> None:
    """Apply one recorded column set to every sim and integrity model
    (each model through its ``replay_columns``).

    ``kinds`` / ``lines`` / ``aux`` are the parallel typed columns of a
    :class:`~repro.eval.record.Recording`.  Scenario sims must have had
    :meth:`~repro.timing.model.SNCTimingSim.begin_task` called already
    (the caller owns flavor setup); this function only walks events.

    Sims are priced once, fresh, as :func:`repro.eval.jobs.price_batch`
    builds them: walked lanes get their counts
    and SNC stats but keep an empty SNC and spill table, and their first
    task scheduled.
    """
    for model in integrity_models:
        model.replay_columns(kinds, lines)
    groups: dict[tuple, list[int]] = {}
    for lane, walk in enumerate(_lane_walks(sims, kinds, lines)):
        core = sims[lane].core
        if walk is None:
            _replay_per_event(sims[lane], kinds, lines, aux)
        else:
            groups.setdefault((walk, core.switch_strategy, core.xom_id),
                              []).append(lane)
    for (walk, strategy, task), lanes in groups.items():
        results = walk([(sims[lane].snc._n_sets, sims[lane].snc._ways)
                        for lane in lanes],
                       kinds, lines, aux, task,
                       strategy is SwitchStrategy.FLUSH)
        for lane, lane_counts in zip(lanes, results):
            _flush(sims[lane], lane_counts)
