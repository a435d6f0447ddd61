"""Functional memory-integrity providers — what the paper defers (§2.2).

The paper handles *privacy* and points at Gassend et al. (HPCA 2003) for
*integrity*; XOM's threat model names three active attacks:

* **spoofing** — the adversary fabricates a line;
* **splicing** — the adversary moves a valid ciphertext line to another
  address;
* **replay** — the adversary restores a stale (line, MAC) pair it recorded
  earlier.

Two byte-moving providers, both pluggable into any engine via the
``integrity`` constructor argument (the registry in
:mod:`repro.secure.integrity` wraps them in :class:`IntegritySpec`
declarations alongside their byte-free timing twins and cycle pricers):

* :class:`MACIntegrity` — a per-line keyed MAC bound to the line address.
  Catches spoofing and splicing; **intentionally defeated by replay**
  (the MAC travels with the line, so old-pair restoration verifies), which
  the attack tests demonstrate.
* :class:`HashTreeIntegrity` — a Merkle tree over the protected range with
  the root register inside the security boundary.  Catches all three.  A
  trusted on-chip node cache cuts verification work, modelling Gassend's
  cached-hash-tree optimisation; its effect is an ablation benchmark and
  the ``hash_tree_cached`` registry spec's whole reason to exist.

Both store their metadata in *untrusted* locations on purpose — attack code
must be able to tamper with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.mac import constant_time_equal, hmac_sha256
from repro.crypto.sha import sha256
from repro.errors import ConfigurationError, ReplayDetected, TamperDetected
from repro.utils.intmath import is_power_of_two, log2_exact


@dataclass
class IntegrityStats:
    """What one provider did — the counters the timing twins must match.

    ``hashes_computed`` counts hash-unit operations (one HMAC or one
    SHA-256 node/leaf digest each); the randomized cross-check tests pin
    every field against the corresponding
    :class:`~repro.secure.integrity.IntegrityEventCounts` of the
    provider's byte-free timing model."""

    verifications: int = 0
    updates: int = 0
    hashes_computed: int = 0
    node_cache_hits: int = 0
    failures: int = 0


class MACIntegrity:
    """Per-line HMAC bound to the line's address.

    The tag table lives in untrusted memory (modelled as a plain dict the
    adversary may freely rewrite via :attr:`tag_table`).
    """

    def __init__(self, key: bytes, tag_bytes: int = 16):
        if not 4 <= tag_bytes <= 32:
            raise ConfigurationError("tag length must be 4..32 bytes")
        self._key = key
        self.tag_bytes = tag_bytes
        #: address -> tag; untrusted, exposed for adversary manipulation.
        self.tag_table: dict[int, bytes] = {}
        self.stats = IntegrityStats()

    def covers(self, line_addr: int) -> bool:
        """MAC protection is on-demand: any line may carry a tag."""
        return True

    def _tag(self, line_addr: int, ciphertext: bytes) -> bytes:
        self.stats.hashes_computed += 1
        message = line_addr.to_bytes(8, "big") + ciphertext
        return hmac_sha256(self._key, message)[: self.tag_bytes]

    def record_line(self, line_addr: int, ciphertext: bytes) -> None:
        self.stats.updates += 1
        self.tag_table[line_addr] = self._tag(line_addr, ciphertext)

    def verify_line(self, line_addr: int, ciphertext: bytes) -> None:
        self.stats.verifications += 1
        stored = self.tag_table.get(line_addr)
        if stored is None:
            return  # line never written under this provider (vendor image)
        if not constant_time_equal(stored, self._tag(line_addr, ciphertext)):
            self.stats.failures += 1
            raise TamperDetected(
                f"MAC mismatch on line {line_addr:#x}: spoofed or spliced"
            )


class HashTreeIntegrity:
    """A Merkle tree over a line-granular protected region.

    The root digest lives "on chip" (a private attribute attack code cannot
    plausibly deny knowing about, but the threat model only grants the
    adversary the *node store*, exposed via :attr:`node_store`).
    """

    def __init__(self, base_addr: int, n_lines: int, line_bytes: int = 128,
                 node_cache_entries: int = 0):
        if not is_power_of_two(n_lines):
            raise ConfigurationError("hash tree needs a power-of-two leaves")
        if base_addr % line_bytes:
            raise ConfigurationError("protected base must be line-aligned")
        self.base_addr = base_addr
        self.n_lines = n_lines
        self.line_bytes = line_bytes
        self.depth = log2_exact(n_lines)
        #: (level, index) -> digest; level 0 = leaves.  Untrusted.
        self.node_store: dict[tuple[int, int], bytes] = {}
        #: ``_empty[level]`` is the digest of an all-absent subtree at
        #: ``level``: what a node missing from ``node_store`` reads as.
        self._empty = self._empty_ladder(self.depth)
        self._root = self._empty[self.depth]
        self.stats = IntegrityStats()
        self._node_cache_entries = node_cache_entries
        self._node_cache: dict[tuple[int, int], bytes] = {}
        # The leaf-address -> ancestor-index arithmetic is pure (only the
        # geometry determines it), so the verify hot loop memoizes each
        # leaf's (index at level 0..depth-1) chain.
        self._paths: dict[int, tuple[int, ...]] = {}

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _empty_ladder(depth: int) -> tuple[bytes, ...]:
        """Digests of all-absent subtrees at levels ``0..depth``."""
        ladder = [sha256(b"repro-hashtree-empty-leaf")]
        for _ in range(depth):
            ladder.append(sha256(ladder[-1] + ladder[-1]))
        return tuple(ladder)

    def _leaf_digest(self, line_addr: int, ciphertext: bytes) -> bytes:
        self.stats.hashes_computed += 1
        return sha256(line_addr.to_bytes(8, "big") + ciphertext)

    def _node(self, level: int, index: int) -> bytes:
        digest = self.node_store.get((level, index))
        return self._empty[level] if digest is None else digest

    def covers(self, line_addr: int) -> bool:
        """Whether the line falls inside the protected region.

        Every covered line must be recorded when the program image is
        installed; a covered-but-unrecorded line fails verification by
        design (its leaf digest cannot match the empty-subtree ladder)."""
        end = self.base_addr + self.n_lines * self.line_bytes
        return self.base_addr <= line_addr < end

    def _leaf_index(self, line_addr: int) -> int:
        index = (line_addr - self.base_addr) // self.line_bytes
        if not 0 <= index < self.n_lines:
            raise ConfigurationError(
                f"line {line_addr:#x} outside the protected region"
            )
        return index

    def _path(self, line_addr: int) -> tuple[int, ...]:
        """The leaf's ancestor index at every level, leaf first.

        ``path[level]`` is the node index on the leaf-to-root walk at
        ``level``; the sibling is ``path[level] ^ 1``.  Memoized per
        leaf."""
        path = self._paths.get(line_addr)
        if path is not None:
            return path
        index = self._leaf_index(line_addr)
        chain = [index]
        for _ in range(self.depth):
            index //= 2
            chain.append(index)
        path = self._paths[line_addr] = tuple(chain)
        return path

    # -- trusted node cache (the Gassend optimisation) ------------------------

    def _cache_lookup(self, level: int, index: int) -> bytes | None:
        digest = self._node_cache.get((level, index))
        if digest is not None:
            self.stats.node_cache_hits += 1
        return digest

    def _cache_store(self, level: int, index: int, digest: bytes) -> None:
        if self._node_cache_entries <= 0:
            return
        if len(self._node_cache) >= self._node_cache_entries:
            self._node_cache.pop(next(iter(self._node_cache)))
        self._node_cache[(level, index)] = digest

    # -- the provider interface -----------------------------------------------

    def record_line(self, line_addr: int, ciphertext: bytes) -> None:
        """Update the leaf and every ancestor up to the on-chip root."""
        self.stats.updates += 1
        path = self._path(line_addr)
        digest = self._leaf_digest(line_addr, ciphertext)
        self.node_store[(0, path[0])] = digest
        self._cache_store(0, path[0], digest)
        for level in range(self.depth):
            index = path[level]
            sibling = self._node(level, index ^ 1)
            left, right = (
                (digest, sibling) if index % 2 == 0 else (sibling, digest)
            )
            digest = sha256(left + right)
            self.stats.hashes_computed += 1
            self.node_store[(level + 1, path[level + 1])] = digest
            self._cache_store(level + 1, path[level + 1], digest)
        self._root = digest

    def verify_line(self, line_addr: int, ciphertext: bytes) -> None:
        """Recompute the path to the root (or to a trusted cached node)."""
        self.stats.verifications += 1
        path = self._path(line_addr)
        digest = self._leaf_digest(line_addr, ciphertext)
        for level in range(self.depth):
            index = path[level]
            trusted = self._cache_lookup(level, index)
            if trusted is not None:
                if constant_time_equal(trusted, digest):
                    return  # verified against a trusted on-chip ancestor
                self._fail(line_addr)
            sibling = self._node(level, index ^ 1)
            left, right = (
                (digest, sibling) if index % 2 == 0 else (sibling, digest)
            )
            digest = sha256(left + right)
            self.stats.hashes_computed += 1
        if not constant_time_equal(digest, self._root):
            self._fail(line_addr, replay=True)

    def _fail(self, line_addr: int, replay: bool = False) -> None:
        self.stats.failures += 1
        if replay:
            raise ReplayDetected(
                f"hash-tree root mismatch verifying line {line_addr:#x} — "
                "stale or tampered memory"
            )
        raise TamperDetected(
            f"hash-tree node mismatch verifying line {line_addr:#x}"
        )
