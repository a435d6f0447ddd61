"""SPEC2000-shaped synthetic workload models — the evaluation's substrate.

We cannot run the SPEC2000 binaries (licensing; and 10 billion instructions
of SimpleScalar is not a Python afternoon), so each benchmark is modelled
as a composition of :mod:`repro.workloads.patterns` generators emitting the
*L2-input* reference stream.  Pattern structure and footprints are chosen
from each program's well-known memory behaviour and the constraints the
paper's own per-benchmark numbers imply; the single calibrated scalar
per benchmark is its compute-cycle weight, solved from Figure 3's
published XOM slowdown by
:func:`repro.timing.model.calibrate_compute_cycles`.

Every model with a footprint that matters to the SNC begins with an
**initialization phase** that writes its data structures once, sequentially
— the way real programs build graphs, dictionaries and arrays.  This is
load-bearing for the no-replacement policy: the paper's Figure 5 NoRepl
column (gcc at 18.07% vs LRU's 1.40%) is exactly the story of an SNC
filled once by initialization writes and useless forever after.

Each model function is written once, against a small **forms** toolkit
(:class:`PatternForms`) supplying the structural combinators — phases,
mixture, the top-level patterns.  Bound to :data:`SCALAR_FORMS` it builds
the classic scalar generator (:meth:`BenchmarkModel.generator`); bound to
:data:`BLOCK_FORMS` it builds the columnar drawer twin
(:meth:`BenchmarkModel.drawer`) the block record pass consumes.  The two
constructions share every region constant and weight by definition, and
the drawer combinators preserve per-reference RNG order, so both forms
emit element-identical streams (pinned by the workload property tests and
the record differential suite).  Mixture *components* stay scalar
iterators in both forms — the mixture selection draw decides which
component is pulled next, so component draws cannot be batched.

What each model encodes (and which published number pins it down):

* ``art`` / ``vpr`` / ``equake`` — SNC-friendly footprints; their Figure 5
  slowdowns sit at the XOR floor.  equake's footprint straddles the 32KB
  SNC (Figure 6's 7.58%).
* ``mcf`` — tiered pointer-structure footprint larger than every SNC; its
  hit rate grows with SNC size (15.23 / 6.44 / 1.45 across Figure 6).
* ``gcc`` / ``parser`` / ``vortex`` — initialization regions larger than
  the SNC whose *tails* host the hot main-loop data, so a no-replacement
  SNC is poisoned while LRU recovers.
* ``ammp`` — power-of-two-aligned scientific arrays: its lines map into a
  quarter of the SNC's sets, the Figure 7 32-way pathology (2.76 -> 9.62).
* ``gzip`` / ``mesa`` — compute-bound, with a write-streaming component
  that produces Figure 9's SNC spill traffic without read-side slowdown.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.workloads.patterns import (
    U32_TYPECODE,
    WRITE_TYPECODE,
    Block,
    Drawer,
    Ref,
    Region,
    mixture,
    mixture_drawer,
    phases,
    phases_drawer,
    pointer_chase,
    random_uniform,
    random_uniform_drawer,
    sequential,
    sequential_drawer,
)

#: A model factory: given a seeded RNG and a forms toolkit, build the
#: benchmark's stream in that toolkit's form (scalar iterator or drawer).
GeneratorFactory = Callable[[random.Random, "PatternForms"], Any]


def aligned_random(region_base: int, n_blocks: int, block_lines: int,
                   block_stride: int, write_fraction: float,
                   rng: random.Random) -> Iterator[Ref]:
    """Uniform random over blocks placed at power-of-two strides.

    Models large-stride scientific arrays (ammp): every touched line has
    ``line % block_stride < block_lines``, so a set-associative SNC indexed
    by low line bits sees only ``block_lines`` of its sets in use."""
    while True:
        block = rng.randrange(n_blocks)
        offset = rng.randrange(block_lines)
        line = region_base + block * block_stride + offset
        yield line, rng.random() < write_fraction


def write_once(region: Region, rng: random.Random) -> Iterator[Ref]:
    """One sequential write pass: the canonical initialization loop."""
    return sequential(region, write_fraction=1.0, rng=rng)


def write_once_drawer(region: Region, rng: random.Random) -> Drawer:
    """Drawer twin of :func:`write_once`."""
    return sequential_drawer(region, write_fraction=1.0, rng=rng)


def block_write_once(base: int, n_blocks: int, block_lines: int,
                     stride: int) -> Iterator[Ref]:
    """One write pass over aligned blocks only (ammp's array layout)."""
    for block in range(n_blocks):
        for offset in range(block_lines):
            yield base + block * stride + offset, True


def block_write_once_drawer(base: int, n_blocks: int, block_lines: int,
                            stride: int) -> Drawer:
    """Drawer twin of :func:`block_write_once` — fully deterministic, so
    the whole finite column is precomputed and served as slices.  Like
    the scalar generator it is finite: it only ever appears as a
    non-final :func:`~repro.workloads.patterns.phases_drawer` stage,
    which draws exactly its stage count."""
    lines = array(U32_TYPECODE)
    for block in range(n_blocks):
        start = base + block * stride
        lines.extend(range(start, start + block_lines))
    position = 0

    def draw(count: int) -> Block:
        nonlocal position
        part = lines[position:position + count]
        position += count
        return part, array(WRITE_TYPECODE, bytes([1])) * len(part)

    return draw


def _init_then(main: Iterator[Ref], rng: random.Random,
               *init_regions: Region) -> Iterator[Ref]:
    """Prefix ``main`` with one write pass over each region, in order.

    Order matters under the no-replacement policy: the SNC fills with the
    *first* ~32K lines written and never changes afterwards."""
    stages = [
        (write_once(region, rng), region.n_lines) for region in init_regions
    ]
    stages.append((main, 1 << 62))
    return phases(stages)


def _init_then_drawer(main: Drawer, rng: random.Random,
                      *init_regions: Region) -> Drawer:
    """Drawer twin of :func:`_init_then`."""
    stages = [
        (write_once_drawer(region, rng), region.n_lines)
        for region in init_regions
    ]
    stages.append((main, 1 << 62))
    return phases_drawer(stages)


@dataclass(frozen=True)
class PatternForms:
    """The combinators a model factory composes, in one stream form.

    ``sequential`` / ``random_uniform`` here are the *top-level* pattern
    spellings (a benchmark whose main loop is one pattern); mixture
    components are always built as scalar iterators directly from
    :mod:`repro.workloads.patterns`."""

    sequential: Callable = field(repr=False)
    random_uniform: Callable = field(repr=False)
    mixture: Callable = field(repr=False)
    phases: Callable = field(repr=False)
    write_once: Callable = field(repr=False)
    block_write_once: Callable = field(repr=False)
    init_then: Callable = field(repr=False)


#: The classic form: everything is a scalar ``(line, is_write)`` iterator.
SCALAR_FORMS = PatternForms(
    sequential=sequential,
    random_uniform=random_uniform,
    mixture=mixture,
    phases=phases,
    write_once=write_once,
    block_write_once=block_write_once,
    init_then=_init_then,
)

#: The columnar form: the top of the composition is a
#: :data:`~repro.workloads.patterns.Drawer` emitting typed blocks.
BLOCK_FORMS = PatternForms(
    sequential=sequential_drawer,
    random_uniform=random_uniform_drawer,
    mixture=mixture_drawer,
    phases=phases_drawer,
    write_once=write_once_drawer,
    block_write_once=block_write_once_drawer,
    init_then=_init_then_drawer,
)


@dataclass(frozen=True)
class BenchmarkModel:
    """One SPEC2000-shaped workload."""

    name: str
    xom_slowdown_pct: float  # Figure 3's published value: calibration input
    make: GeneratorFactory = field(repr=False)

    def _rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")

    def generator(self, seed: int = 1) -> Iterator[Ref]:
        return self.make(self._rng(seed), SCALAR_FORMS)

    def drawer(self, seed: int = 1) -> Drawer:
        """The columnar twin of :meth:`generator`: same seed derivation,
        same composition, element-identical stream — as typed blocks."""
        return self.make(self._rng(seed), BLOCK_FORMS)


# Base line index of the data space (1MB VA, in 128B lines), and spacing
# generous enough that composed regions never overlap.  _BASE is a multiple
# of 1024 so ammp's aligned blocks keep their set alignment.
_BASE = 8192


def _art(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # Streaming image match: sequential sweeps over ~1.75MB, L2-hostile,
    # comfortably inside even the 32KB SNC (14000 < 16K entries).
    region = Region(_BASE, 14000)
    main = f.sequential(region, write_fraction=0.25, rng=rng)
    return f.init_then(main, rng, region)


def _equake(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # Hot sparse-matrix loop + a cold sweep; 28.5K lines total: fits the
    # 64KB SNC (32K), thrashes the 32KB SNC (16K) -> Figure 6's 7.58%.
    hot_region = Region(_BASE, 8500)
    cold_region = Region(_BASE + 40960, 20000)
    hot = sequential(hot_region, write_fraction=0.20, rng=rng)
    cold = sequential(cold_region, write_fraction=0.20, rng=rng)
    main = f.mixture([(hot, 0.74), (cold, 0.26)], rng)
    return f.init_then(main, rng, hot_region, cold_region)


def _ammp(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # Aligned molecular-dynamics arrays: 38 blocks of 256 lines every 1024
    # lines -> only 256 of a 32-way SNC's 1024 sets are usable, ~38 lines
    # per usable set against 32 ways (Figure 7's 2.76% -> 9.62%).  The
    # wide unaligned tier provides the shallow capacity curve of Figure 6.
    n_blocks, block_lines, stride = 38, 256, 1024
    hot_region = Region(_BASE, 1500)
    aligned_base = _BASE + 65536
    wide_region = Region(_BASE + 131072, 32000)
    hot = sequential(hot_region, write_fraction=0.30, rng=rng)
    aligned = aligned_random(
        region_base=aligned_base, n_blocks=n_blocks, block_lines=block_lines,
        block_stride=stride, write_fraction=0.25, rng=rng,
    )  # 9728 lines in sets 0..255 (mod 1024)
    wide = random_uniform(wide_region, 0.25, rng)
    main = f.mixture([(hot, 0.36), (aligned, 0.55), (wide, 0.09)], rng)
    # Initialization writes the blocks only (not the stride gaps), then the
    # wide tier: the no-replacement SNC keeps hot+aligned+the wide head.
    stages = [
        (f.write_once(hot_region, rng), hot_region.n_lines),
        (
            f.block_write_once(aligned_base, n_blocks, block_lines, stride),
            n_blocks * block_lines,
        ),
        (f.write_once(wide_region, rng), wide_region.n_lines),
        (main, 1 << 62),
    ]
    return f.phases(stages)


def _bzip2(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # Block-sorting over a ~730KB working buffer plus a recycled input
    # window; buffer straddles both L2 sizes (Figure 8's 1.16 -> 1.03),
    # buffer+window straddle the 32KB SNC (Figure 6's 1.61 -> 0.56).
    buffer_region = Region(_BASE, 5800)
    window_region = Region(_BASE + 40960, 12000)
    buffer = random_uniform(buffer_region, 0.35, rng)
    window = sequential(window_region, write_fraction=0.10, rng=rng)
    main = f.mixture([(buffer, 0.97), (window, 0.03)], rng)
    return f.init_then(main, rng, buffer_region, window_region)


def _gcc(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # IR construction writes a 44K-line arena once; the optimization loop
    # then works on structures allocated at the arena's *tail* — past the
    # 32K-entry fill point, so a no-replacement SNC helps not at all
    # (Figure 5: 18.07% vs LRU's 1.40%).
    arena = Region(_BASE, 44000)
    hot = random_uniform(Region(_BASE + 36000, 4500), 0.30, rng)
    leak = random_uniform(Region(_BASE + 65536, 45000), 0.20, rng)
    main = f.mixture([(hot, 0.985), (leak, 0.015)], rng)
    return f.init_then(main, rng, arena)


def _gzip(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # Compute-bound compression: a small hot dictionary (L2-resident), a
    # recycled cold window, and a write-streaming output buffer whose SNC
    # churn produces Figure 9's 1.03% spill traffic.
    hot_region = Region(_BASE, 1400)
    cold_region = Region(_BASE + 16384, 3000)
    hot = random_uniform(hot_region, 0.25, rng)
    cold = random_uniform(cold_region, 0.20, rng)
    out = sequential(Region(_BASE + 131072, 40000), write_fraction=1.0,
                     rng=rng)
    # A thin stream of first-touch reads (fresh input blocks): the small
    # non-floor residual the paper shows (0.31-0.33% across SNC sizes).
    fresh = random_uniform(Region(_BASE + 262144, 50000), 0.0, rng)
    main = f.mixture([(hot, 0.892), (cold, 0.030), (out, 0.070),
                      (fresh, 0.008)], rng)
    return f.init_then(main, rng, hot_region, cold_region)


def _mcf(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # Network-simplex pointer chasing over ~7MB with a locality gradient.
    # Initialization builds the arc arrays (tier 1) and then the node pool
    # (tier 3): the no-replacement SNC fills before tier 2 or the tier-3
    # tail are ever written (Figure 5's 13.51%).
    tier1_region = Region(_BASE, 13000)
    tier2_region = Region(_BASE + 16384, 12000)
    tier3_region = Region(_BASE + 65536, 22000)
    tier1 = random_uniform(tier1_region, 0.30, rng)
    tier2 = random_uniform(tier2_region, 0.30, rng)
    tier3 = pointer_chase(tier3_region, 0.30, rng)
    main = f.mixture([(tier1, 0.81), (tier2, 0.12), (tier3, 0.07)], rng)
    # Initialization order is the NoRepl story: the node pool (tier 3)
    # is built first and claims most of the SNC; the hot arc arrays
    # (tier 1 tail, tier 2) arrive after it is full.
    return f.init_then(main, rng, tier3_region, tier1_region, tier2_region)


def _mesa(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # Software-rendering pipeline: nearly compute-bound, small texture set,
    # frame-buffer write streaming (Figure 9 traffic without slowdown).
    hot_region = Region(_BASE, 1600)
    texture_region = Region(_BASE + 16384, 2500)
    hot = random_uniform(hot_region, 0.25, rng)
    textures = random_uniform(texture_region, 0.05, rng)
    framebuffer = sequential(Region(_BASE + 131072, 36000),
                             write_fraction=1.0, rng=rng)
    fresh = random_uniform(Region(_BASE + 262144, 30000), 0.0, rng)
    main = f.mixture([(hot, 0.866), (textures, 0.030), (framebuffer, 0.100),
                      (fresh, 0.004)], rng)
    return f.init_then(main, rng, hot_region, texture_region)


def _parser(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # The dictionary build writes a 40K-line arena; parsing then hits the
    # arena tail (hot) plus per-sentence structures (mid) and rare deep
    # dictionary walks (cold).
    arena = Region(_BASE, 40000)
    hot = random_uniform(Region(_BASE + 30000, 4800), 0.30, rng)
    mid = random_uniform(Region(_BASE + 65536, 18000), 0.25, rng)
    cold = random_uniform(Region(_BASE + 131072, 60000), 0.20, rng)
    main = f.mixture([(hot, 0.892), (mid, 0.100), (cold, 0.008)], rng)
    return f.init_then(main, rng, arena)


def _vortex(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # Object database: transaction setup writes the store; lookups then
    # touch hot objects at the store's tail plus a broad mid tier and a
    # long-tail of rarely revisited objects.
    store = Region(_BASE, 40000)
    hot = random_uniform(Region(_BASE + 33000, 3600), 0.30, rng)
    mid = random_uniform(Region(_BASE + 65536, 24000), 0.25, rng)
    cold = random_uniform(Region(_BASE + 163840, 60000), 0.20, rng)
    main = f.mixture([(hot, 0.888), (mid, 0.100), (cold, 0.012)], rng)
    return f.init_then(main, rng, store)


def _vpr(rng: random.Random, f: PatternForms = SCALAR_FORMS):
    # Place-and-route over a ~600KB netlist: misses both L2 sizes hard
    # (Figure 8: 1.21 / 1.04) yet trivially fits every SNC (flat 0.24%).
    region = Region(_BASE, 4800)
    main = f.random_uniform(region, 0.30, rng)
    return f.init_then(main, rng, region)


#: The eleven benchmarks of the paper's evaluation, Figure 3 order.
BENCHMARKS: tuple[BenchmarkModel, ...] = (
    BenchmarkModel("ammp", 23.02, _ammp),
    BenchmarkModel("art", 34.91, _art),
    BenchmarkModel("bzip2", 15.82, _bzip2),
    BenchmarkModel("equake", 14.27, _equake),
    BenchmarkModel("gcc", 18.30, _gcc),
    BenchmarkModel("gzip", 1.08, _gzip),
    BenchmarkModel("mcf", 34.76, _mcf),
    BenchmarkModel("mesa", 0.63, _mesa),
    BenchmarkModel("parser", 13.39, _parser),
    BenchmarkModel("vortex", 7.05, _vortex),
    BenchmarkModel("vpr", 21.16, _vpr),
)

BY_NAME = {bench.name: bench for bench in BENCHMARKS}
