"""Event-major batch replay: many timing sims, one pass over the trace.

The per-event semantics live on :class:`~repro.timing.model.SNCTimingSim`
(:meth:`~repro.timing.model.SNCTimingSim.read_miss` / ``writeback`` /
``switch_task`` / ``reset_counts``), one call per event per
configuration.  A sweep prices the *same* recorded stream through many
configurations, so walking it once per configuration would repeat the
decode work (column iteration, kind dispatch) for no reason.
:func:`replay_events_batch` inverts the loops: one pass over the shared
columns applies each event to every live sim (and every integrity
model), so the per-event decode is paid once for the whole batch.

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

* **stack** — a deep LRU lane (below) of a stream without context
  switches whose writebacks are all the lane's own task's is not
  simulated at all: :func:`repro.timing.stack.price_stack` prices every
  such lane of the batch from one LRU stack pass per geometry group
  (stack distances, by the inclusion property).  The deep LRU arms
  stay for switch streams.
* **deep** — the base :class:`~repro.secure.snc_policy.SNCPolicyCore`
  hooks over an LRU SNC with the timing simulator's standard
  fetch/spill callbacks: both the ``snc.query`` / ``snc.update`` hit
  paths *and* the miss arms (table fetch, insert, LRU eviction, victim
  spill) run as inline ``OrderedDict`` / ``dict`` calls, zero frames.
* **fast** — base ``read``/``write`` but a variant hook, a
  no-replacement SNC, or nonstandard callbacks: the hit paths inline,
  the ``_read_query_miss`` / ``_write_update_hit`` /
  ``_write_update_miss`` hooks dispatch virtually, exactly as
  ``read``/``write`` would.
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

from collections import OrderedDict
from collections.abc import Sequence
from itertools import compress

from repro.secure.snc import SNCPolicy
from repro.secure.snc_policy import ReadClass, SNCPolicyCore, WriteClass
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
#: inlined paths bypass.
_COUNTERS = ("o", "sm", "dr", "al", "uh", "um", "rj", "tf", "tp",
             "qh", "qm", "sh", "su", "ins", "ev", "rjs")
#: The subset zeroed at the warmup boundary (the counts-backed ones;
#: SNC stats are lifetime values ``reset_counts`` never zeroes).
_RESET_COUNTERS = ("o", "sm", "dr", "al", "uh", "um", "rj", "tf", "tp")

#: Compiled batch functions keyed by ``(lane shapes, n_models,
#: has_switch)``.  The key depends only on lane *shapes*, so every
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
    ``(deep, deep_nr, fast_read, fast_write, base_write_hit, n_sets,
    ways, xom_id)``."""
    core = sim.core
    core_cls = type(core)
    snc = sim.snc
    fast_read = core_cls.read is SNCPolicyCore.read
    fast_write = core_cls.write is SNCPolicyCore.write
    base_write_hit = (core_cls._write_update_hit
                      is SNCPolicyCore._write_update_hit)
    base_hooks = (
        fast_read and fast_write and base_write_hit
        and core_cls._read_query_miss is SNCPolicyCore._read_query_miss
        and core_cls._write_update_miss is SNCPolicyCore._write_update_miss
    )
    # The deep LRU tier additionally requires the timing sim's own
    # fetch/spill callbacks — anything else keeps virtual dispatch.
    # ``_spill_entry`` is passed to cores unwrapped (one shared cycle-
    # free closure), so callback identity proves this core's installs
    # really land in ``sim._table`` with ``sim.counts`` doing the
    # counting.
    deep = (
        base_hooks
        and snc.config.policy is SNCPolicy.LRU
        and sim.tasks._fetch_entry == getattr(sim, "_fetch_entry", None)
        and core._spill_entry == getattr(sim, "_spill_entry", None)
    )
    # The deep no-replacement tier never touches the spill table (the
    # policy's whole point), but its per-line fallback state lives on
    # the *core* — so it is only valid while no context switch can swap
    # cores under the baked bindings.
    deep_nr = (
        base_hooks
        and snc.config.policy is SNCPolicy.NO_REPLACEMENT
        and not has_switch
    )
    return (deep, deep_nr, fast_read, fast_write, base_write_hit,
            snc._n_sets, snc._ways, core.xom_id)


def _lane_binds(sim: SNCTimingSim, shape: tuple) -> tuple:
    """The runtime objects the generated preamble unpacks for one lane."""
    deep, deep_nr = shape[0], shape[1]
    snc = sim.snc
    entries = snc._sets[0]
    core = sim.core
    return (
        entries.get, entries.move_to_end, entries.__setitem__,
        entries.popitem, entries, snc._sets,
        sim._table.get if deep else None,
        sim._table.__setitem__ if deep else None,
        core.direct_lines if deep_nr else None,
        core.fallback_seq if deep_nr else None,
        core.read, core.write, core._read_query_miss,
        core._write_update_hit, core._write_update_miss,
        sim.tasks, sim.counts,
    )


def _dict_ops(i: int, n_sets: int) -> tuple[list[str], str, str, str,
                                            str, str]:
    """The set-pick preamble and entry-dict operation expressions for
    one lane: fully associative lanes use the prebound single-set
    methods, set-associative lanes resolve the set per line."""
    if n_sets == 1:
        return ([], f"g{i}", f"m{i}", f"s{i}", f"p{i}", f"len(e{i})")
    pick = [f"E = st{i}[line % {n_sets}]"]
    return (pick, "E.get", "E.move_to_end", "E.__setitem__",
            "E.popitem", "len(E)")


def _install_lines(i: int, size: str, pop: str, seti: str, key: str,
                   ways: int) -> list[str]:
    """The inlined ``snc.insert`` + victim spill (Algorithm 1's install
    step): evict the LRU entry to the in-memory table when full, then
    install ``seq`` under ``key``."""
    return [
        f"if {size} >= {ways}:",
        f"    (ol, ox), osq = {pop}(False)",
        f"    ev{i} += 1",
        f"    tp{i} += 1",
        f"    ts{i}((ox, ol), osq)",
        f"{seti}({key}, seq)",
        f"ins{i} += 1",
    ]


def _read_arm(i: int, shape: tuple, key: str, xom: str) -> list[str]:
    deep, deep_nr, fast_read, _, _, n_sets, ways, _ = shape
    if not fast_read:
        return [
            f"k = cr{i}(line)[0]",
            f"if k is OV: o{i} += 1",
            f"elif k is SQ: sm{i} += 1",
            f"else: dr{i} += 1",
        ]
    pick, get, mte, seti, pop, size = _dict_ops(i, n_sets)
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
    if not deep:
        return hit + [
            f"    k = rq{i}(line)[0]",
            f"    if k is OV: o{i} += 1",
            f"    elif k is SQ: sm{i} += 1",
            f"    else: dr{i} += 1",
        ]
    # Algorithm 1, query-miss arm: fetch the spilled number, install it
    # (spilling the LRU victim), decrypt with it — a SEQNUM_MISS.
    return hit + [
        f"    tf{i} += 1",
        f"    seq = tg{i}(({xom}, line), 0)",
    ] + ["    " + ln
         for ln in _install_lines(i, size, pop, seti, key, ways)] + [
        f"    sm{i} += 1",
    ]


def _alloc_arm(i: int, shape: tuple, key: str, xom: str) -> list[str]:
    deep, deep_nr, fast_read, _, _, n_sets, ways, _ = shape
    if not fast_read:
        return [f"al{i} += 1", f"cr{i}(line)"]
    pick, get, mte, seti, pop, size = _dict_ops(i, n_sets)
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
    if not deep:
        return hit + [f"    rq{i}(line)"]
    return hit + [
        f"    tf{i} += 1",
        f"    seq = tg{i}(({xom}, line), 0)",
    ] + ["    " + ln
         for ln in _install_lines(i, size, pop, seti, key, ways)]


def _write_arm(i: int, shape: tuple, key: str, xom: str) -> list[str]:
    deep, deep_nr, _, fast_write, base_write_hit, n_sets, ways, _ = shape
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
    pick, get, mte, seti, pop, size = _dict_ops(i, n_sets)
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
    if not deep:
        return body + [
            f"        k = wm{i}(line)[0]",
        ] + ["        " + ln for ln in classify]
    # Algorithm 1, update-miss arm: fetch, increment, install.
    return body + [
        f"        tf{i} += 1",
        f"        seq = tg{i}(({xom}, line), 0) + 1",
    ] + ["        " + ln
         for ln in _install_lines(i, size, pop, seti, key, ways)] + [
        f"        um{i} += 1",
    ]


def _build_source(shapes: Sequence[tuple], n_models: int,
                  has_switch: bool) -> str:
    """Render the specialized batch function for one batch shape."""
    n = len(shapes)
    lanes = range(n)
    # Without switches every lane's xom is a compile-time constant;
    # when they all agree, one (line, xom) key per event serves every
    # lane.  With switches the xom is a rebindable local and keys are
    # built per lane (scenario streams — rare next to sweep traffic).
    shared_key = (not has_switch and n > 0
                  and len({shape[7] for shape in shapes}) == 1)
    if has_switch:
        xoms = {i: f"x{i}" for i in lanes}
        keys = {i: f"key{i}" for i in lanes}
    else:
        xoms = {i: str(shapes[i][7]) for i in lanes}
        keys = {i: ("key" if shared_key
                    else f"(line, {shapes[i][7]})") for i in lanes}

    out = ["def _batch(kinds, lines, aux, lanes, models, OV, SQ, UH, RJ):"]

    def emit(depth, lns):
        out.extend("    " * depth + ln for ln in lns)

    for i in lanes:
        emit(1, [f"(g{i}, m{i}, s{i}, p{i}, e{i}, st{i}, tg{i}, ts{i}, "
                 f"dl{i}, fb{i}, cr{i}, cw{i}, rq{i}, wh{i}, wm{i}, "
                 f"tk{i}, cn{i}) = lanes[{i}]"])
        emit(1, [" = ".join(f"{name}{i}" for name in _COUNTERS) + " = 0"])
        if has_switch:
            emit(1, [f"x{i} = {shapes[i][7]}"])
    for j in range(n_models):
        emit(1, [f"v{j} = models[{j}].verify",
                 f"w{j} = models[{j}].update"])

    def emit_keys(needs: int) -> None:
        """Per-lane key assignments for the switch case; ``needs``
        indexes the shape flag that says the arm uses the key."""
        if shared_key:
            emit(3, [f"key = (line, {shapes[0][7]})"])
        elif has_switch:
            for i in lanes:
                if shapes[i][needs]:
                    emit(3, [f"key{i} = (line, x{i})"])

    emit(1, ["for kind, line, owner in zip(kinds, lines, aux):"])
    emit(2, [f"if kind == {EVENT_READ}:"])
    emit_keys(needs=2)  # fast_read arms touch the entry dict
    for i in lanes:
        emit(3, _read_arm(i, shapes[i], keys[i], xoms[i]))
    for j in range(n_models):
        emit(3, [f"v{j}(line, critical=True)"])
    emit(2, [f"elif kind == {EVENT_WRITEBACK}:"])
    emit_keys(needs=3)  # fast_write arms touch the entry dict
    for i in lanes:
        emit(3, _write_arm(i, shapes[i], keys[i], xoms[i]))
    for j in range(n_models):
        emit(3, [f"w{j}(line)"])
    emit(2, [f"elif kind == {EVENT_ALLOC}:"])
    emit_keys(needs=2)
    for i in lanes:
        emit(3, _alloc_arm(i, shapes[i], keys[i], xoms[i]))
    for j in range(n_models):
        emit(3, [f"v{j}(line, critical=False)"])
    emit(2, [f"elif kind == {EVENT_SWITCH}:"])
    if has_switch and n:
        for i in lanes:
            emit(3, [
                f"spilled = tk{i}.switch_to(owner)",
                f"cn{i}.switches += 1",
                f"cn{i}.switch_spills += spilled",
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
    for j in range(n_models):
        emit(3, [f"models[{j}].reset_counts()"])
    if not lanes and not n_models:
        emit(3, ["pass"])
    emit(1, ["return (" + ", ".join(
        "(" + ", ".join(f"{name}{i}" for name in _COUNTERS) + ")"
        for i in lanes
    ) + ("," if n == 1 else "") + ")"])
    return "\n".join(out) + "\n"


def _compile(shapes: tuple, n_models: int, has_switch: bool):
    global _compiled_hits, _compiled_misses
    key = (shapes, n_models, has_switch)
    fn = _COMPILED.get(key)
    if fn is None:
        _compiled_misses += 1
        namespace: dict = {}
        exec(_build_source(shapes, n_models, has_switch), namespace)
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
    # ``switch_task`` leaves ``sim.core`` on the scheduled core;
    # ``tasks.current`` is that same core.
    sim.core = sim.tasks.current


def _stack_lanes(sims: Sequence[SNCTimingSim], shapes: Sequence[tuple],
                 kinds, aux, has_switch: bool) -> list[bool]:
    """Which lanes the stack-distance tier prices: deep LRU lanes over a
    switch-free stream whose writebacks all belong to the lane's own
    task, starting from an SNC nothing was ever inserted into.  Such a
    lane is a plain single-task LRU cache of lines, which
    :func:`repro.timing.stack.price_stack` prices exactly."""
    if has_switch:
        return [False] * len(sims)
    candidates = [shape[0] and sim.snc.stats.insertions == 0
                  for sim, shape in zip(sims, shapes)]
    if not any(candidates):
        return candidates
    owners = set(compress(aux, map(EVENT_WRITEBACK.__eq__, kinds)))
    return [candidate and owners <= {shape[7]}
            for candidate, shape in zip(candidates, shapes)]


def replay_events_batch(sims: Sequence[SNCTimingSim],
                        integrity_models: Sequence,
                        kinds, lines, aux) -> None:
    """Apply one recorded column set to every sim and integrity model.

    ``kinds`` / ``lines`` / ``aux`` are the parallel typed columns of a
    :class:`~repro.eval.record.Recording`.  Scenario sims must have had
    :meth:`~repro.timing.model.SNCTimingSim.begin_task` called already
    (the caller owns flavor setup); this function only walks events.

    Sims are priced once, fresh, as :meth:`~repro.eval.record.
    Recording.replay_batch` builds them: lanes the stack-distance tier
    takes (:func:`_stack_lanes`) get their counts and SNC stats but
    keep an empty SNC and spill table.
    """
    if not sims and not integrity_models:
        return
    has_switch = EVENT_SWITCH in kinds
    shapes = tuple(_lane_shape(sim, has_switch) for sim in sims)
    on_stack = _stack_lanes(sims, shapes, kinds, aux, has_switch)
    batched = [lane for lane, flag in enumerate(on_stack) if not flag]
    if batched or integrity_models:
        batch_shapes = tuple(shapes[lane] for lane in batched)
        fn = _compile(batch_shapes, len(integrity_models), has_switch)
        results = fn(
            kinds, lines, aux,
            [_lane_binds(sims[lane], shapes[lane]) for lane in batched],
            integrity_models,
            ReadClass.OVERLAPPED, ReadClass.SEQNUM_MISS,
            WriteClass.UPDATE_HIT, WriteClass.REJECTED,
        )
        for lane, lane_counts in zip(batched, results):
            _flush(sims[lane], lane_counts)
    stacked = [lane for lane, flag in enumerate(on_stack) if flag]
    if stacked:
        results = price_stack(
            [(shapes[lane][5], shapes[lane][6]) for lane in stacked],
            kinds, lines,
        )
        for lane, lane_counts in zip(stacked, results):
            _flush(sims[lane], lane_counts)
