"""Event-major batch replay: many timing sims, one pass over the trace.

The per-event semantics live on :class:`~repro.timing.model.SNCTimingSim`
(:meth:`~repro.timing.model.SNCTimingSim.read_miss` / ``writeback`` /
``switch_task`` / ``reset_counts``), one call per event per
configuration.  A sweep prices the *same* recorded stream through many
configurations, so walking it once per configuration would repeat the
decode work (column iteration, kind dispatch) for no reason.
:func:`replay_events_batch` inverts the loops: one pass over the shared
columns applies each event to every live sim, so the per-event decode
is paid once for the whole batch.  Integrity models never ride that
pass: each prices the recording in one ``replay_columns`` call, so a
request whose SNC lanes all take the stack tier runs no generated pass.

Inner-loop Python frames are what actually dominate per-event
pricing — the Algorithm 1 miss arm alone crosses five of them (hook →
table fetch → install → insert → spill) — so inverting the loops only
wins if the per-lane work sheds those frames instead of adding handler
calls of its own.  This module therefore *generates* the batch loop:
:func:`_compile` renders one specialized function per batch shape (the
``namedtuple``/``dataclasses`` technique), with every lane's event arms
unrolled inline, counters in flat locals, geometry constants (``ways``,
set count, XOM id) baked in as literals, and — when the stream contains
no context switches — the ``(line, xom)`` key tuple built once per
event and shared by every lane.  Each lane gets the deepest tier its
configuration supports:

* **stack** — an LRU lane that decides as plain Algorithm 1 (see
  :func:`_stack_lanes`) is not simulated at all:
  :func:`repro.timing.stack.price_stack` prices every such lane of the
  batch, §4.3 switch streams included, from one LRU stack pass per
  geometry group (stack distances, by the inclusion property).
* **deep** — a no-replacement lane of a switch-free stream: the hit
  paths and the rejection and admission miss arms run inline, zero
  frames.
* **fast** — base ``read``/``write`` but a variant hook, an LRU lane
  the stack tier cannot take, or a no-replacement lane of a switch
  stream: the hit paths inline, the ``_read_query_miss`` /
  ``_write_update_hit`` / ``_write_update_miss`` hooks dispatch
  virtually, exactly as ``read``/``write`` would.
* **generic** — a core overriding ``read``/``write`` themselves falls
  back to the fully generic calls.

The generated pass is count-identical to calling the per-event
methods on each sim by construction: sims never interact, each sees
the identical event sequence in order, and every generated arm mirrors
those methods — the same descheduled-owner writeback routing, the
same warmup-boundary reset (classification and traffic counters zeroed,
SNC lifetime stats and warm state kept).  The inlined hit/miss tallies
are accumulated in locals and flushed into ``sim.counts`` /
``snc.stats`` afterwards.
``tests/eval/test_replay_differential.py`` pins the equality against
the per-reference oracle in ``tests/eval/oracle.py`` for both the
generated pass and the stack tier.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from collections.abc import Sequence
from itertools import compress

from repro.secure.snc import SNCPolicy
from repro.secure.snc_policy import (
    ReadClass,
    SNCPolicyCore,
    SwitchStrategy,
    WriteClass,
)
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_SWITCH,
    EVENT_WRITEBACK,
    SNCTimingSim,
)
from repro.timing.stack import price_stack

#: Per-lane counter locals, in flush order (see :func:`_flush`).  The
#: first block is the :class:`~repro.timing.model.SNCEventCounts`
#: classification counts plus the traffic counts the sim's callbacks
#: bump; the second is the SNC stat increments the
#: inlined paths bypass; the last is the switches and switch spills.
_COUNTERS = ("o", "sm", "dr", "al", "uh", "um", "rj", "tf", "tp",
             "qh", "qm", "sh", "su", "ins", "ev", "rjs", "sw", "ss")
#: The subset zeroed at the warmup boundary (the counts-backed ones;
#: SNC stats are lifetime values ``reset_counts`` never zeroes).
_RESET_COUNTERS = ("o", "sm", "dr", "al", "uh", "um", "rj", "tf", "tp",
                   "sw", "ss")

#: Compiled batch functions keyed by ``(lane shapes, has_switch)``.
#: The key depends only on lane *shapes*, so every
#: shard of a lane-sharded pass whose lanes share a composition reuses
#: one compile — pricing a lane subset never recompiles per shard.
#: Sharding does multiply the distinct shapes a long-lived warm worker
#: sees (one per shard size, not one per sweep), so the cache is
#: LRU-bounded instead of growing without limit.
_COMPILED: OrderedDict[tuple, object] = OrderedDict()
_COMPILED_CAPACITY = 128
_compiled_hits = 0
_compiled_misses = 0


def compiled_batch_info() -> tuple[int, int, int]:
    """``(cached functions, cache hits, compiles)`` for this process —
    observability for the sharding tests and benchmarks (a sharded
    sweep should show shard passes hitting this cache, not compiling
    per shard)."""
    return len(_COMPILED), _compiled_hits, _compiled_misses


def _lane_shape(sim: SNCTimingSim, has_switch: bool) -> tuple:
    """The source-shaping parameters of one sim's generated arms:
    ``(deep_nr, fast_read, fast_write, base_write_hit, n_sets, ways,
    xom_id)``."""
    core = sim.core
    core_cls = type(core)
    snc = sim.snc
    fast_read = core_cls.read is SNCPolicyCore.read
    fast_write = core_cls.write is SNCPolicyCore.write
    base_write_hit = (core_cls._write_update_hit
                      is SNCPolicyCore._write_update_hit)
    # The deep no-replacement tier never touches the spill table (the
    # policy's whole point), but its per-line fallback state lives on
    # the *core* — so it is only valid while no context switch can swap
    # cores under the baked bindings.
    deep_nr = (
        fast_read and fast_write and base_write_hit
        and core_cls._read_query_miss is SNCPolicyCore._read_query_miss
        and core_cls._write_update_miss is SNCPolicyCore._write_update_miss
        and snc.config.policy is SNCPolicy.NO_REPLACEMENT
        and not has_switch
    )
    return (deep_nr, fast_read, fast_write, base_write_hit,
            snc._n_sets, snc._ways, core.xom_id)


def _lane_binds(sim: SNCTimingSim, shape: tuple) -> tuple:
    """The runtime objects the generated preamble unpacks for one lane."""
    deep_nr = shape[0]
    snc = sim.snc
    entries = snc._sets[0]
    core = sim.core
    return (
        entries.get, entries.move_to_end, entries.__setitem__,
        entries, snc._sets,
        core.direct_lines if deep_nr else None,
        core.fallback_seq if deep_nr else None,
        core.read, core.write, core._read_query_miss,
        core._write_update_hit, core._write_update_miss,
        sim.tasks, sim.counts,
    )


def _dict_ops(i: int, n_sets: int) -> tuple[list[str], str, str, str,
                                            str]:
    """The set-pick preamble and entry-dict operation expressions for
    one lane: fully associative lanes use the prebound single-set
    methods, set-associative lanes resolve the set per line."""
    if n_sets == 1:
        return ([], f"g{i}", f"m{i}", f"s{i}", f"len(e{i})")
    pick = [f"E = st{i}[line % {n_sets}]"]
    return pick, "E.get", "E.move_to_end", "E.__setitem__", "len(E)"


def _read_arm(i: int, shape: tuple, key: str) -> list[str]:
    deep_nr, fast_read, _, _, n_sets, _, _ = shape
    if not fast_read:
        return [
            f"k = cr{i}(line)[0]",
            f"if k is OV: o{i} += 1",
            f"elif k is SQ: sm{i} += 1",
            f"else: dr{i} += 1",
        ]
    pick, get, mte, _, _ = _dict_ops(i, n_sets)
    hit = pick + [
        f"if {get}({key}) is not None:",
        f"    qh{i} += 1",
        f"    {mte}({key})",
        f"    o{i} += 1",
        "else:",
        f"    qm{i} += 1",
    ]
    if deep_nr:
        # No-replacement query miss: a line that fell back to direct
        # encryption takes the XOM serial path, anything else is an
        # untouched vendor-image line read with the version-0 pad.
        return hit + [
            f"    if line in dl{i}: dr{i} += 1",
            f"    else: o{i} += 1",
        ]
    return hit + [
        f"    k = rq{i}(line)[0]",
        f"    if k is OV: o{i} += 1",
        f"    elif k is SQ: sm{i} += 1",
        f"    else: dr{i} += 1",
    ]


def _alloc_arm(i: int, shape: tuple, key: str) -> list[str]:
    deep_nr, fast_read, _, _, n_sets, _, _ = shape
    if not fast_read:
        return [f"al{i} += 1", f"cr{i}(line)"]
    pick, get, mte, _, _ = _dict_ops(i, n_sets)
    hit = [f"al{i} += 1"] + pick + [
        f"if {get}({key}) is not None:",
        f"    qh{i} += 1",
        f"    {mte}({key})",
        "else:",
        f"    qm{i} += 1",
    ]
    if deep_nr:
        # The no-replacement query-miss arm classifies without state
        # effects, and an allocate discards the classification.
        return hit
    return hit + [f"    rq{i}(line)"]


def _write_arm(i: int, shape: tuple, key: str, xom: str) -> list[str]:
    deep_nr, _, fast_write, base_write_hit, n_sets, ways, _ = shape
    classify = [
        f"if k is UH: uh{i} += 1",
        "else:",
        f"    um{i} += 1",
        f"    if k is RJ: rj{i} += 1",
    ]
    desched = [
        f"if owner != {xom}:",
        # A descheduled owner's dirty line routes through its own core,
        # exactly as SNCTimingSim.writeback does.
        f"    k = tk{i}.core_for(owner).write_descheduled(line)[0]",
    ] + ["    " + ln for ln in classify]
    if not fast_write:
        return desched + [
            "else:",
            f"    k = cw{i}(line)[0]",
        ] + ["    " + ln for ln in classify]
    pick, get, mte, seti, size = _dict_ops(i, n_sets)
    body = desched + ["else:"] + ["    " + ln for ln in pick] + [
        f"    seq = {get}({key})",
        "    if seq is not None:",
        f"        sh{i} += 1",
        "        seq += 1",
        f"        {seti}({key}, seq)",
        f"        {mte}({key})",
    ]
    if base_write_hit:
        body += [f"        uh{i} += 1"]
    else:
        body += [
            f"        k = wh{i}(line, seq)[0]",
        ] + ["        " + ln for ln in classify]
    body += [
        "    else:",
        f"        su{i} += 1",
    ]
    if deep_nr:
        # No-replacement update miss: a full set rejects the line to
        # direct encryption; otherwise issue the next fallback sequence
        # number (never reusing a pad) and admit the line.
        return body + [
            f"        if {size} >= {ways}:",
            f"            rjs{i} += 1",
            f"            dl{i}.add(line)",
            f"            um{i} += 1",
            f"            rj{i} += 1",
            "        else:",
            f"            seq = fb{i}.get(line, 0) + 1",
            f"            fb{i}[line] = seq",
            f"            {seti}({key}, seq)",
            f"            ins{i} += 1",
            f"            dl{i}.discard(line)",
            f"            um{i} += 1",
        ]
    return body + [
        f"        k = wm{i}(line)[0]",
    ] + ["        " + ln for ln in classify]


def _build_source(shapes: Sequence[tuple], has_switch: bool) -> str:
    """Render the specialized batch function for one batch shape."""
    n = len(shapes)
    lanes = range(n)
    # Without switches every lane's xom is a compile-time constant;
    # when they all agree, one (line, xom) key per event serves every
    # lane.  With switches the xom is a rebindable local and keys are
    # built per lane (scenario streams — rare next to sweep traffic).
    shared_key = (not has_switch
                  and len({shape[6] for shape in shapes}) == 1)
    if has_switch:
        xoms = {i: f"x{i}" for i in lanes}
        keys = {i: f"key{i}" for i in lanes}
    else:
        xoms = {i: str(shapes[i][6]) for i in lanes}
        keys = {i: ("key" if shared_key
                    else f"(line, {shapes[i][6]})") for i in lanes}

    out = ["def _batch(kinds, lines, aux, lanes, OV, SQ, UH, RJ):"]

    def emit(depth, lns):
        out.extend("    " * depth + ln for ln in lns)

    for i in lanes:
        emit(1, [f"(g{i}, m{i}, s{i}, e{i}, st{i}, dl{i}, fb{i}, "
                 f"cr{i}, cw{i}, rq{i}, wh{i}, wm{i}, "
                 f"tk{i}, cn{i}) = lanes[{i}]"])
        emit(1, [" = ".join(f"{name}{i}" for name in _COUNTERS) + " = 0"])
        if has_switch:
            emit(1, [f"x{i} = {shapes[i][6]}"])

    def emit_keys(needs: int) -> None:
        """Per-lane key assignments for the switch case; ``needs``
        indexes the shape flag that says the arm uses the key."""
        if shared_key:
            emit(3, [f"key = (line, {shapes[0][6]})"])
        elif has_switch:
            for i in lanes:
                if shapes[i][needs]:
                    emit(3, [f"key{i} = (line, x{i})"])

    emit(1, ["for kind, line, owner in zip(kinds, lines, aux):"])
    emit(2, [f"if kind == {EVENT_READ}:"])
    emit_keys(needs=1)  # fast_read arms touch the entry dict
    for i in lanes:
        emit(3, _read_arm(i, shapes[i], keys[i]))
    emit(2, [f"elif kind == {EVENT_WRITEBACK}:"])
    emit_keys(needs=2)  # fast_write arms touch the entry dict
    for i in lanes:
        emit(3, _write_arm(i, shapes[i], keys[i], xoms[i]))
    emit(2, [f"elif kind == {EVENT_ALLOC}:"])
    emit_keys(needs=1)
    for i in lanes:
        emit(3, _alloc_arm(i, shapes[i], keys[i]))
    emit(2, [f"elif kind == {EVENT_SWITCH}:"])
    if has_switch:
        for i in lanes:
            emit(3, [
                f"sw{i} += 1",
                f"ss{i} += tk{i}.switch_to(owner)",
                f"C = tk{i}.current",
                f"x{i} = C.xom_id",
                f"cr{i} = C.read",
                f"cw{i} = C.write",
                f"rq{i} = C._read_query_miss",
                f"wh{i} = C._write_update_hit",
                f"wm{i} = C._write_update_miss",
            ])
    else:
        emit(3, ["pass"])
    emit(2, ["else:"])  # EVENT_RESET: the warmup boundary
    for i in lanes:
        emit(3, [f"cn{i}.reset()",
                 " = ".join(f"{name}{i}" for name in _RESET_COUNTERS)
                 + " = 0"])
    emit(1, ["return (" + ", ".join(
        "(" + ", ".join(f"{name}{i}" for name in _COUNTERS) + ")"
        for i in lanes
    ) + ("," if n == 1 else "") + ")"])
    return "\n".join(out) + "\n"


def _compile(shapes: tuple, has_switch: bool):
    global _compiled_hits, _compiled_misses
    key = (shapes, has_switch)
    fn = _COMPILED.get(key)
    if fn is None:
        _compiled_misses += 1
        namespace: dict = {}
        exec(_build_source(shapes, has_switch), namespace)
        fn = namespace["_batch"]
        _COMPILED[key] = fn
        while len(_COMPILED) > _COMPILED_CAPACITY:
            _COMPILED.popitem(last=False)
    else:
        _compiled_hits += 1
        _COMPILED.move_to_end(key)
    return fn


def _flush(sim: SNCTimingSim, c: tuple) -> None:
    """Fold one lane's accumulated counters back into its sim."""
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
    # ``switch_task`` leaves ``sim.core`` on the scheduled core;
    # ``tasks.current`` is that same core.
    sim.core = sim.tasks.current


def _stack_lanes(sims: Sequence[SNCTimingSim], kinds,
                 lines) -> list[bool]:
    """Which lanes the stack tier prices: fresh LRU SNCs over the sim's
    own fetch/spill callbacks whose core decides as plain Algorithm 1
    (``plain_lru_writebacks``) for the most writebacks a line takes,
    over all owners (a bound on any ``(owner, line)``)."""
    limits = [
        sim.core.plain_lru_writebacks()
        if (sim.snc.config.policy is SNCPolicy.LRU
            and sim.snc.stats.insertions == 0
            and sim.tasks._fetch_entry == getattr(sim, "_fetch_entry", None)
            and sim.core._spill_entry == getattr(sim, "_spill_entry", None))
        else None
        for sim in sims
    ]
    most = 0
    if any(limit is not None and limit < math.inf for limit in limits):
        most = max(Counter(compress(lines, map(EVENT_WRITEBACK.__eq__,
                                               kinds))).values(), default=0)
    return [limit is not None and most <= limit for limit in limits]


def replay_events_batch(sims: Sequence[SNCTimingSim],
                        integrity_models: Sequence,
                        kinds, lines, aux) -> None:
    """Apply one recorded column set to every sim and integrity model
    (each model through its ``replay_columns``).

    ``kinds`` / ``lines`` / ``aux`` are the parallel typed columns of a
    :class:`~repro.eval.record.Recording`.  Scenario sims must have had
    :meth:`~repro.timing.model.SNCTimingSim.begin_task` called already
    (the caller owns flavor setup); this function only walks events.

    Sims are priced once, fresh, as :meth:`~repro.eval.record.
    Recording.replay_batch` builds them: lanes the stack-distance tier
    takes (:func:`_stack_lanes`) get their counts and SNC stats but
    keep an empty SNC and spill table, and their first task scheduled.
    """
    for model in integrity_models:
        model.replay_columns(kinds, lines)
    has_switch = EVENT_SWITCH in kinds
    on_stack = _stack_lanes(sims, kinds, lines)
    batched = [lane for lane, flag in enumerate(on_stack) if not flag]
    if batched:
        shapes = tuple(_lane_shape(sims[lane], has_switch)
                       for lane in batched)
        fn = _compile(shapes, has_switch)
        results = fn(
            kinds, lines, aux,
            [_lane_binds(sims[lane], shape)
             for lane, shape in zip(batched, shapes)],
            ReadClass.OVERLAPPED, ReadClass.SEQNUM_MISS,
            WriteClass.UPDATE_HIT, WriteClass.REJECTED,
        )
        for lane, lane_counts in zip(batched, results):
            _flush(sims[lane], lane_counts)
    # One stack walk per (switch strategy, first task).
    groups: dict[tuple, list[int]] = {}
    for lane in compress(range(len(sims)), on_stack):
        core = sims[lane].core
        groups.setdefault((core.switch_strategy, core.xom_id),
                          []).append(lane)
    for (strategy, task), lanes in groups.items():
        results = price_stack([(sims[lane].snc._n_sets,
                                sims[lane].snc._ways) for lane in lanes],
                              kinds, lines, aux, task,
                              strategy is SwitchStrategy.FLUSH)
        for lane, lane_counts in zip(lanes, results):
            _flush(sims[lane], lane_counts)
