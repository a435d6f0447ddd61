"""The memory-integrity registry: one declaration per provider, all layers.

The paper secures *privacy* and defers *integrity* to Gassend et al.'s
cached hash trees (§2.2).  This package makes that deferred piece a
first-class axis of the reproduction, in the same registry idiom as the
protection schemes (:mod:`repro.secure.schemes`): each way of protecting
memory integrity is one :class:`IntegritySpec`, declared in one file,
consumed by every layer:

* ``build_provider`` — the byte-moving functional provider
  (:class:`~repro.secure.processor.SecureProcessor` resolves through it
  and hands the provider to the scheme's engine);
* ``build_timing_model`` — the byte-free counter twin the trace pipeline
  drives (``None`` for ``none``, which verifies nothing);
* ``price`` — the extra cycles one benchmark's
  :class:`IntegrityEventCounts` cost under a
  :class:`~repro.secure.engine.LatencyParams` (the scheme pricers add it
  on top of every scheme via
  :func:`repro.timing.model.integrity_cycles`);
* ``detects`` — which of the three XOM active attacks (``spoof``,
  ``splice``, ``replay``) the provider catches; the attack-matrix tests
  enumerate the registry through it.

Every module in this package (not starting with ``_``) is auto-imported
and self-registers its spec, so **adding an integrity provider is adding
one file** — see ``docs/integrity.md`` for the walkthrough.  ``python -m
repro.secure.integrity`` runs every registered spec end-to-end through
:class:`SecureProcessor` (including a tamper check) as a completeness
check.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.secure.engine import LatencyParams
from repro.secure.integrity.providers import (
    HashTreeIntegrity,
    IntegrityStats,
    MACIntegrity,
)
from repro.utils.intmath import is_power_of_two

#: The three active attacks of XOM's threat model; ``IntegritySpec.detects``
#: is a subset of these.
ATTACK_KINDS = frozenset({"spoof", "splice", "replay"})


@runtime_checkable
class IntegrityProvider(Protocol):
    """What the engines and the loader need from a functional provider.

    Implementations carry their counters in ``stats`` and raise
    :class:`~repro.errors.TamperDetected` /
    :class:`~repro.errors.ReplayDetected` from :meth:`verify_line`.
    """

    stats: IntegrityStats

    def covers(self, line_addr: int) -> bool:
        """Whether the provider protects this line."""
        ...

    def record_line(self, line_addr: int, ciphertext: bytes) -> None:
        """A covered line was (re)written: refresh its metadata."""
        ...

    def verify_line(self, line_addr: int, ciphertext: bytes) -> None:
        """A covered line arrived from memory: verify or raise."""
        ...


@dataclass
class IntegrityEventCounts(IntegrityStats):
    """The timing layer's view of one integrity configuration.

    Extends the functional :class:`IntegrityStats` field set (the
    cross-check tests pin those fields to a provider driven with the
    same stream) with what only pricing needs:

    * ``provider`` — the registry key whose pricer interprets the counts
      (travels with the counts so cached events stay self-describing);
    * ``verify_hashes`` — the subset of ``hashes_computed`` spent in
      verification walks (the rest is update-side tree maintenance);
    * ``critical_hashes`` — the subset of ``verify_hashes`` performed
      while a *load* miss stalled the CPU; update-side and
      write-allocate hashing hides in the store path like every other
      write cost (§3.4).
    """

    provider: str = "none"
    verify_hashes: int = 0
    critical_hashes: int = 0

    def reset(self) -> None:
        for field in fields(self):
            if field.name != "provider":
                setattr(self, field.name, 0)


class IntegrityTimingModel(Protocol):
    """What the trace pipeline drives, one per requested configuration:
    production calls only :meth:`replay_columns`, the per-event methods
    are the oracle's and the functional cross-check's."""

    counts: IntegrityEventCounts

    def replay_columns(self, kinds, lines) -> None:
        """Price a recording's ``kinds``/``lines`` columns, counting
        exactly what the per-event methods would (a RESET resets the
        counts and keeps warm state; switches are ignored)."""
        ...

    def verify(self, line_index: int, critical: bool = True) -> None:
        """An L2 miss fetched this line through the engine."""
        ...

    def update(self, line_index: int) -> None:
        """A dirty L2 line was written back through the engine."""
        ...

    def reset_counts(self) -> None:
        """Zero the counters while keeping warm state (end of warmup)."""
        ...


@dataclass(frozen=True)
class IntegrityConfig:
    """Geometry of one integrity configuration, shared by both layers.

    The functional provider covers byte addresses ``[base_addr,
    base_addr + n_lines * line_bytes)``; the byte-free timing model
    covers the same region in line-index units.  ``node_cache_entries``
    sizes the trusted on-chip node cache (hash trees only;
    ``hash_tree`` ignores it by design), ``tag_bytes`` the per-line MAC
    truncation (MAC only).
    """

    base_addr: int = 0
    n_lines: int = 1 << 19
    line_bytes: int = 128
    node_cache_entries: int = 0
    tag_bytes: int = 16

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n_lines):
            raise ConfigurationError(
                "integrity coverage needs a power-of-two line count"
            )
        if self.base_addr < 0 or self.base_addr % self.line_bytes:
            raise ConfigurationError("protected base must be line-aligned")
        if self.node_cache_entries < 0:
            raise ConfigurationError("node cache entries must be >= 0")

    @property
    def base_line(self) -> int:
        return self.base_addr // self.line_bytes


@dataclass(frozen=True)
class IntegritySpec:
    """One way of protecting memory integrity, declared once."""

    key: str  # registry key: "none", "mac", "hash_tree", ...
    title: str  # human name for tables and docs
    summary: str  # one-line description
    #: Which of :data:`ATTACK_KINDS` the provider catches; the attack
    #: tests assert detection for these and *non*-detection otherwise.
    detects: frozenset[str]
    #: Functional layer: build the byte-moving provider for one run
    #: (``key`` is the secret the provider may MAC with).  ``None``
    #: result = the run carries no integrity machinery.
    build_provider: Callable[
        [bytes, IntegrityConfig], IntegrityProvider | None
    ]
    #: Evaluation layer: extra cycles the counts cost under a latency
    #: configuration.
    price: Callable[[IntegrityEventCounts, LatencyParams], float]
    #: Timing layer: build the byte-free counter twin the trace pipeline
    #: drives, or ``None`` for providers that verify nothing.
    build_timing_model: Callable[
        [IntegrityConfig], IntegrityTimingModel
    ] | None = None

    def __post_init__(self) -> None:
        unknown = self.detects - ATTACK_KINDS
        if unknown:
            raise ConfigurationError(
                f"unknown attack kinds {sorted(unknown)} "
                f"(known: {sorted(ATTACK_KINDS)})"
            )

    @property
    def verifies(self) -> bool:
        """Whether the trace pipeline can simulate (and price) this spec."""
        return self.build_timing_model is not None


def hash_critical_cycles(counts: IntegrityEventCounts,
                         lat: LatencyParams) -> float:
    """The shared pricer: every critical-path hash costs one hash unit.

    Verification must complete before decrypted data is architecturally
    committed, so the hash walk of a *load* miss is serial exposure; the
    write side (updates, allocate fetches) hides in the store path."""
    return counts.critical_hashes * lat.hash_unit


_REGISTRY: dict[str, IntegritySpec] = {}


def register(spec: IntegritySpec) -> IntegritySpec:
    """Register a spec; returns it so modules can keep a handle."""
    if spec.key in _REGISTRY:
        raise ConfigurationError(
            f"integrity provider {spec.key!r} is already registered"
        )
    _REGISTRY[spec.key] = spec
    return spec


def get_integrity(key: str) -> IntegritySpec:
    """Look up one registered integrity spec by key."""
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown integrity provider {key!r} (registered: {known})"
        ) from None


def integrity_keys() -> tuple[str, ...]:
    """Every registered integrity key, in registration order."""
    return tuple(_REGISTRY)


def all_integrities() -> tuple[IntegritySpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_REGISTRY.values())


_INTEGRITY_MODULES: list[str] = []


def integrity_module_names() -> tuple[str, ...]:
    """Fully-qualified names of the discovered spec modules.

    The eval result cache fingerprints exactly these files (plus this
    one and ``providers``), so editing a provider or its timing twin
    invalidates the simulation results produced through it."""
    return tuple(_INTEGRITY_MODULES)


def _discover() -> None:
    """Import every spec module in this package so it self-registers.

    ``providers`` (the functional classes) and modules starting with
    ``_`` (like ``__main__``, the completeness check) are skipped — they
    are machinery, not spec declarations."""
    for info in sorted(pkgutil.iter_modules(__path__),
                       key=lambda info: info.name):
        if info.name.startswith("_") or info.name == "providers":
            continue
        name = f"{__name__}.{info.name}"
        importlib.import_module(name)
        _INTEGRITY_MODULES.append(name)


_discover()

__all__ = [
    "ATTACK_KINDS",
    "HashTreeIntegrity",
    "IntegrityConfig",
    "IntegrityEventCounts",
    "IntegrityProvider",
    "IntegritySpec",
    "IntegrityStats",
    "IntegrityTimingModel",
    "MACIntegrity",
    "all_integrities",
    "get_integrity",
    "hash_critical_cycles",
    "integrity_keys",
    "integrity_module_names",
    "register",
]
