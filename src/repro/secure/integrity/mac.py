"""Integrity spec: per-line keyed MACs — fast, replay-blind.

One HMAC per line, bound to the line address, tag stored in untrusted
memory.  Catches spoofing and splicing at a flat one-hash verification
cost; **intentionally defeated by replay** (a stale (line, tag) pair is
authentic), which is the failure mode that motivates the hash tree and
which the attack-matrix tests demonstrate end-to-end.
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
from repro.secure.integrity.providers import MACIntegrity


def _build_provider(key: bytes,
                    config: IntegrityConfig) -> IntegrityProvider:
    return MACIntegrity(key, tag_bytes=config.tag_bytes)


class MACTimingModel:
    """Byte-free twin of :class:`MACIntegrity`: count, don't hash.

    Every verification costs exactly one HMAC.  Like the hash-tree twin,
    this assumes honest post-install execution: every covered line the
    program reads was recorded — at image install
    (:func:`~repro.secure.software.install_image` tags every
    non-plaintext image line) or by an earlier writeback — so the
    functional provider's untagged-line shortcut (verifying a line with
    no tag compares nothing and hashes nothing) never fires on a priced
    trace.
    """

    def __init__(self, config: IntegrityConfig,
                 provider_key: str = "mac"):
        self.counts = IntegrityEventCounts(provider=provider_key)

    def verify(self, line_index: int, critical: bool = True) -> None:
        counts = self.counts
        counts.verifications += 1
        counts.hashes_computed += 1
        counts.verify_hashes += 1
        if critical:
            counts.critical_hashes += 1

    def update(self, line_index: int) -> None:
        counts = self.counts
        counts.updates += 1
        counts.hashes_computed += 1

    def reset_counts(self) -> None:
        self.counts.reset()

    def replay_columns(self, kinds, lines) -> None:
        """Closed form: one hash per verify and update after the last
        RESET."""
        # Imported here: repro.timing.model imports this package.
        from repro.timing import model as events

        if events.EVENT_RESET in kinds:
            self.reset_counts()
            kinds = kinds[len(kinds) - kinds[::-1].index(events.EVENT_RESET):]
        reads = kinds.count(events.EVENT_READ)
        verifies = reads + kinds.count(events.EVENT_ALLOC)
        updates = kinds.count(events.EVENT_WRITEBACK)
        counts = self.counts
        counts.verifications += verifies
        counts.updates += updates
        counts.hashes_computed += verifies + updates
        counts.verify_hashes += verifies
        counts.critical_hashes += reads


SPEC = register(IntegritySpec(
    key="mac",
    title="per-line MACs",
    summary="address-bound HMAC per line: flat cost, blind to replay",
    detects=frozenset({"spoof", "splice"}),
    build_provider=_build_provider,
    price=hash_critical_cycles,
    build_timing_model=MACTimingModel,
))
