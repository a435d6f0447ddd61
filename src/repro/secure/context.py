"""Multi-task SNC coordination — the question §4.3 leaves open.

The paper names two protection strategies for the SNC when the OS switches
tasks, and explicitly does not evaluate them ("the impact on the overall
performance in multi-task systems is currently open"):

1. **FLUSH** — encrypt-and-spill every entry to the in-memory table on the
   way out; the incoming task starts with a cold SNC.  Cost is paid at
   switch time (spill writes) and after (query misses to re-warm).
2. **TAG** — keep entries resident, tagged with their owner's XOM ID; no
   switch-time cost, but tasks share capacity and a task's entries can be
   evicted by another's traffic.

Both strategies are implemented as :class:`~repro.secure.snc_policy.
SNCPolicyCore` hooks (``on_switch_out`` / ``on_switch_in``), so every
registered scheme's state machine — the paper's Algorithm 1 *and* variants
like ``otp_split`` — handles context switches identically in the
functional and timing layers.  This module contributes only the
coordination: :class:`TaskContexts` keeps **one core per task over one
shared** :class:`~repro.secure.snc.SequenceNumberCache` (whose entries are
already owner-tagged) and routes switch events through the hooks.  It
holds no SNC decision logic of its own.

The evaluation drives this through scenario tasks
(:func:`repro.eval.jobs.ScenarioTask`) recorded from a
:class:`~repro.workloads.sources.MultiTaskInterleaver`; the §4.3 cost
table comes out of ``benchmarks/bench_ablation_context_switch.py``.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.secure.snc import Evicted, SequenceNumberCache
from repro.secure.snc_policy import SNCPolicyCore, SwitchStrategy

__all__ = ["SwitchStrategy", "TaskContexts"]

#: Fetch one spilled entry for (xom_id, line_index) — the per-task view of
#: the in-memory table.
TaskFetch = Callable[[int, int], int]

#: Persist one evicted entry; ``Evicted.xom_id`` names the owner, so one
#: shared callback serves every task.
TaskSpill = Callable[[Evicted], None]

#: Builds one task's policy core (the scheme registry supplies variants).
CoreFactory = Callable[..., SNCPolicyCore]


class TaskContexts:
    """Per-task :class:`SNCPolicyCore` instances over one shared SNC.

    Each task gets its own core — its own XOM id (the SNC owner tag), its
    own direct-encryption set, its own slice of the spill table — built
    lazily by ``core_factory`` the first time the task runs.  The §4.3
    switch strategies live in the cores' ``on_switch_out``/``on_switch_in``
    hooks; :meth:`switch_to` only routes the event.
    """

    def __init__(self, snc: SequenceNumberCache, *,
                 core_factory: CoreFactory | None = None,
                 strategy: SwitchStrategy = SwitchStrategy.TAG,
                 fetch_entry: TaskFetch | None = None,
                 spill_entry: TaskSpill | None = None,
                 initial_task: int = 0):
        self.snc = snc
        self.strategy = strategy
        self._factory = core_factory or SNCPolicyCore
        self._fetch_entry = fetch_entry or (lambda xom_id, line_index: 0)
        self._spill_entry = spill_entry or (lambda victim: None)
        self._cores: dict[int, SNCPolicyCore] = {}
        self.current = self.core_for(initial_task)

    def core_for(self, xom_id: int) -> SNCPolicyCore:
        """The task's core, created on first use."""
        core = self._cores.get(xom_id)
        if core is None:
            # Bind the callbacks by value (default args), not through a
            # closure over ``self``: a core holding its owner would make
            # every task context a reference cycle only the cyclic
            # collector can free.
            core = self._factory(
                self.snc,
                xom_id=xom_id,
                fetch_entry=lambda line, xom=xom_id,
                fetch=self._fetch_entry: fetch(xom, line),
                spill_entry=self._spill_entry,
                switch_strategy=self.strategy,
            )
            self._cores[xom_id] = core
        return core

    def begin(self, xom_id: int) -> SNCPolicyCore:
        """Select the first running task without counting a switch."""
        self.current = self.core_for(xom_id)
        return self.current

    def switch_to(self, xom_id: int) -> int:
        """One OS context switch: deschedule the current task (its core's
        ``on_switch_out`` applies the strategy), schedule the next.
        Returns the number of entries spilled at switch time (0 under
        TAG)."""
        spilled = self.current.on_switch_out()
        self.current = self.core_for(xom_id)
        self.current.on_switch_in()
        return spilled

    @property
    def task_ids(self) -> tuple[int, ...]:
        """Every task that has run so far, in first-run order."""
        return tuple(self._cores)
