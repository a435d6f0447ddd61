"""Integrity spec: the plain Merkle hash tree — complete, expensive.

A tree over the protected region with the root inside the security
boundary catches all three active attacks, but every verification walks
leaf-to-root: ``depth + 1`` hash units on the read critical path.  That
cost is the reason Gassend et al. add the trusted node cache
(``hash_tree_cached``); keeping the uncached tree registered gives the
evaluation its upper bound.

:class:`HashTreeTimingModel` is the byte-free twin both tree specs share:
the same leaf-to-root walk, the same FIFO trusted-node-cache behaviour,
no digests — the randomized cross-check tests pin its counters to the
functional provider's :class:`~repro.secure.integrity.IntegrityStats`.
"""

from __future__ import annotations

from repro.secure.integrity import (
    IntegrityConfig,
    IntegrityEventCounts,
    IntegrityProvider,
    IntegritySpec,
    hash_critical_cycles,
    register,
)
from repro.secure.integrity.providers import HashTreeIntegrity
from repro.utils.intmath import log2_exact


def _build_provider(key: bytes,
                    config: IntegrityConfig) -> IntegrityProvider:
    return HashTreeIntegrity(
        base_addr=config.base_addr, n_lines=config.n_lines,
        line_bytes=config.line_bytes, node_cache_entries=0,
    )


class HashTreeTimingModel:
    """Byte-free twin of :class:`HashTreeIntegrity`.

    The walk shape — leaf digest, then one hash per level until a trusted
    cached ancestor (or the root) — is all that timing needs, so the
    model keeps only the trusted cache's *occupancy* and the counters.
    It assumes honest execution: the timing layer never sees tampering,
    so every cache hit terminates the walk like the functional
    provider's successful comparison does.

    Nodes are heap-numbered (leaf ``i`` is ``n_lines + i``, a parent is
    ``node >> 1``).  The cache is a FIFO by insertion number: insertion
    ``pushes`` puts its node in ``_resident`` and in ring slot ``pushes
    % cap``, pop ``pops`` evicts the node in slot ``pops % cap``, so a
    node is resident iff its number is ``>= pops``.  As in the provider,
    a store into a full cache pops before it looks the node up.
    """

    def __init__(self, config: IntegrityConfig,
                 node_cache_entries: int = 0,
                 provider_key: str = "hash_tree"):
        self.base_line = config.base_line
        self.n_lines = config.n_lines
        self.depth = log2_exact(config.n_lines)
        self.counts = IntegrityEventCounts(provider=provider_key)
        self._cap = node_cache_entries
        self._resident: set[int] = set()
        self._ring = [0] * node_cache_entries
        self._pushes = self._pops = 0

    def verify(self, line_index: int, critical: bool = True) -> None:
        index = line_index - self.base_line
        if not 0 <= index < self.n_lines:
            return  # outside the protected region
        counts = self.counts
        counts.verifications += 1
        hashes = 1  # the leaf digest
        node = self.n_lines + index
        while node > 1:
            if node in self._resident:
                counts.node_cache_hits += 1
                break
            hashes += 1
            node >>= 1
        counts.hashes_computed += hashes
        counts.verify_hashes += hashes
        if critical:
            counts.critical_hashes += hashes

    def update(self, line_index: int) -> None:
        index = line_index - self.base_line
        if not 0 <= index < self.n_lines:
            return
        counts = self.counts
        counts.updates += 1
        counts.hashes_computed += self.depth + 1
        cap, resident, ring = self._cap, self._resident, self._ring
        node = self.n_lines + index
        while node and cap:
            if self._pushes - self._pops >= cap:
                resident.remove(ring[self._pops % cap])
                self._pops += 1
            if node not in resident:
                resident.add(node)
                ring[self._pushes % cap] = node
                self._pushes += 1
            node >>= 1

    def reset_counts(self) -> None:
        self.counts.reset()

    def replay_columns(self, kinds, lines) -> None:
        """:meth:`verify`, :meth:`update` and :meth:`reset_counts` over a
        whole recording, inlined into one loop over the same state."""
        # Imported here: repro.timing.model imports this package.
        from repro.timing.model import EVENT_READ, EVENT_RESET, EVENT_WRITEBACK

        base, n, full = self.base_line, self.n_lines, self.depth + 1
        cap, resident, ring = self._cap, self._resident, self._ring
        pushes, pops = self._pushes, self._pops
        reset = False
        verifies = updates = verify_hashes = critical = hits = 0
        for kind, line in zip(kinds, lines):
            if kind == EVENT_RESET:
                reset = True
                verifies = updates = verify_hashes = critical = hits = 0
                continue
            node = line - base + n  # a leaf iff the line is covered
            if not n <= node < 2 * n:
                continue
            if kind == EVENT_WRITEBACK:
                updates += 1
                while node and cap:
                    if pushes - pops >= cap:
                        resident.remove(ring[pops % cap])
                        pops += 1
                    if node not in resident:
                        resident.add(node)
                        ring[pushes % cap] = node
                        pushes += 1
                    node >>= 1
            elif kind < EVENT_WRITEBACK:  # a read or a write-allocate
                verifies += 1
                hashes = 1 if cap else full
                while cap and node > 1:
                    if node in resident:
                        hits += 1
                        break
                    hashes += 1
                    node >>= 1
                verify_hashes += hashes
                if kind == EVENT_READ:
                    critical += hashes
        self._pushes, self._pops = pushes, pops
        if reset:
            self.reset_counts()
        counts = self.counts
        counts.verifications += verifies
        counts.updates += updates
        counts.hashes_computed += verify_hashes + updates * full
        counts.verify_hashes += verify_hashes
        counts.critical_hashes += critical
        counts.node_cache_hits += hits


SPEC = register(IntegritySpec(
    key="hash_tree",
    title="Merkle hash tree",
    summary="root-anchored tree: catches replay, walks to the root "
            "every verify",
    detects=frozenset({"spoof", "splice", "replay"}),
    build_provider=_build_provider,
    price=hash_critical_cycles,
    build_timing_model=HashTreeTimingModel,
))
