"""Walk pricing: every LRU and every no-replacement SNC lane of a batch
from one pass per geometry group.

An LRU sequence-number cache that only sees one task's accesses is a
plain LRU cache of lines: a read, write-allocate or writeback either
finds the line (and moves it to MRU) or fetches its number from the
spill table, installs it at MRU and spills the LRU victim of a full
set.  By the inclusion property of Mattson et al., "Evaluation
techniques for storage hierarchies" (IBM Systems Journal, 1970), an
access hits an LRU set of ``ways`` entries exactly when its *stack
distance* — the number of distinct lines of its set touched since its
previous access — is below ``ways``.  So one pass that measures each
access's distance prices every capacity at once (:func:`price_stack`).

Lanes are grouped by set count.  Fully associative lanes (one set)
share one segmented LRU stack: one ``OrderedDict`` segment per distinct
capacity, a line's segment index is its distance bucket, and a line
moving to the top demotes each shallower segment's LRU entry one
segment down.  Set-associative lanes with the same set count share one
MRU-first list per set (``line % n_sets``, as the SNC indexes it),
bounded at the group's largest associativity; a line's list position is
its distance.  Each access adds one to a histogram bucket keyed by
phase (before or after the last :data:`~repro.timing.model.EVENT_RESET`),
kind and distance, and each lane's counters come from the histograms
afterwards:

* hits are the accesses whose distance is below the lane's ways, and
  every miss is one table fetch and one insertion;
* a set never shrinks under LRU, so its *fills* (insertions into a
  free way) number ``min(distinct lines mapped to it, ways)``, and
  every other insertion evicts: evictions (= table spills) are misses
  minus fills.

A no-replacement set admits the first ``ways`` distinct lines written
back to it and never evicts, so admission is a prefix of first-writeback
order and a set with more ways admits a superset: the same inclusion.
A line is resident exactly when its *rank* — the lines of its set first
written back before it — is below the lane's ways (:func:`price_ranks`).
One walk per set count records each line's rank bucket at its first
writeback and counts every access by (phase, access class, bucket).

Switch streams and other tasks' writebacks walk keys: the line tagged
above its bits (:func:`_switch_stream`).  Under TAG the tag is the
owner, so one walk is the shared SNC; under FLUSH (LRU only) it is the
switch window, so each window starts empty, and a descheduled owner's
writeback is one fetch, spill and update miss off the stack.
``docs/replay.md`` gives the exactness arguments.

No sequence numbers and no spill table are built: those only carry
values, and a walked lane's counts never depend on them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter, OrderedDict
from collections.abc import Sequence
from functools import partial
from itertools import compress, islice
from operator import add

from repro.timing.model import EVENT_RESET, EVENT_SWITCH, EVENT_WRITEBACK

#: Histogram rows: the access kinds, indexed by their ``EVENT_*`` value
#: (``EVENT_READ`` 0, ``EVENT_ALLOC`` 1, ``EVENT_WRITEBACK`` 2).
_KINDS = 3


def _phases(kinds) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """``(spans before the last RESET, span after it)`` as ``(start,
    stop)`` event ranges; the RESET events themselves fall in no span,
    and a stream without one is all measured window."""
    bounds = [-1]
    try:
        while True:
            bounds.append(kinds.index(EVENT_RESET, bounds[-1] + 1))
    except ValueError:
        pass
    bounds.append(len(kinds))
    spans = [(lo + 1, hi) for lo, hi in zip(bounds, bounds[1:])]
    return spans[:-1], spans[-1]


def _switch_stream(kinds, lines, aux, task: int, flush: bool,
                   shift: int) -> tuple:
    """The access events of a switch stream keyed for one stack; where
    the last RESET falls in them; the FLUSH-dropped writebacks and the
    switches after it; and where the switch windows holding that RESET
    and the stream's end begin."""
    out_kinds = array("B")
    keys: list[int] = []
    reset = detached = switched = reset_window = window = epoch = start = 0
    run = task
    for cut in [*(at for at, kind in enumerate(kinds)
                  if kind > EVENT_WRITEBACK), len(kinds)]:
        span_kinds = kinds[start:cut]
        span_lines = lines[start:cut]
        if flush:
            own = [kind != EVENT_WRITEBACK or owner == run
                   for kind, owner in zip(span_kinds, aux[start:cut])]
            out_kinds.extend(compress(span_kinds, own))
            keys.extend(map((epoch << shift).__or__,
                            compress(span_lines, own)))
            detached += len(own) - sum(own)
        else:
            tag = run << shift
            out_kinds.extend(span_kinds)
            keys.extend([
                line | (owner << shift if kind == EVENT_WRITEBACK else tag)
                for kind, line, owner in zip(span_kinds, span_lines,
                                             aux[start:cut])
            ])
        if cut == len(kinds):
            break
        if kinds[cut] == EVENT_SWITCH:
            epoch += 1
            run = aux[cut]
            window = len(keys)
            switched += 1
        else:  # the warmup boundary zeroes what was counted so far
            reset, reset_window = len(keys), window
            detached = switched = 0
        start = cut + 1
    return (out_kinds, keys, reset, detached, switched, reset_window,
            window)


def _fully_associative_pass(segments, sizes, where, kinds, lines, lo, hi,
                            hist) -> None:
    """Walk events ``lo:hi`` through the shared segmented stack.

    ``segments[j]`` holds the lines at stack positions ``[capacity[j-1],
    capacity[j])`` in LRU-to-MRU order and ``where`` maps each held line
    to its segment; a line held by none has distance bucket
    ``len(segments)`` (a miss at every capacity)."""
    last = len(segments)
    row = last + 1
    top = segments[0]
    to_mru = top.move_to_end
    lookup = where.get
    for kind, line in zip(islice(kinds, lo, hi), islice(lines, lo, hi)):
        depth = lookup(line, last)
        hist[kind * row + depth] += 1
        if not depth:
            to_mru(line)
            continue
        if depth != last:
            del segments[depth][line]
        top[line] = None
        where[line] = 0
        level = 0
        segment = top
        while len(segment) > sizes[level]:
            demoted = segment.popitem(False)[0]
            level += 1
            if level == last:
                del where[demoted]
                break
            segment = segments[level]
            segment[demoted] = None
            where[demoted] = level


def _set_associative_pass(sets, n_sets, ways, kinds, lines, lo, hi,
                          hist) -> None:
    """Walk events ``lo:hi`` through per-set MRU-first lists of at most
    ``ways`` lines; a line in no list has distance bucket ``ways``."""
    row = ways + 1
    for kind, line in zip(islice(kinds, lo, hi), islice(lines, lo, hi)):
        mru = sets[line % n_sets]
        if line in mru:
            depth = mru.index(line)
            if depth:
                del mru[depth]
                mru.insert(0, line)
        else:
            depth = ways
            mru.insert(0, line)
            if len(mru) > ways:
                mru.pop()
        hist[kind * row + depth] += 1


def _fills(set_sizes: Sequence[int], ways: int) -> int:
    """Insertions into a free way: each set fills ``min(lines, ways)``."""
    return sum(size if size < ways else ways for size in set_sizes)


def _hits_misses(hist: list[int], row: int, hit_buckets: int
                 ) -> list[tuple[int, int]]:
    """``(hits, misses)`` per access kind from one phase's histogram."""
    return [(sum(hist[base:base + hit_buckets]),
             sum(hist[base + hit_buckets:base + row]))
            for base in range(0, _KINDS * row, row)]


def _lane_counters(before, window, fills_before: int, fills_total: int,
                   detached: int, switched: int, spilled: int) -> tuple:
    """One lane's counter tuple in the batch pricer's ``_COUNTERS``
    order: the measured-window counts (zeroed at the RESET), then the
    lifetime SNC stats (never zeroed), then the window's switches."""
    life = [(hit + hit_before, miss + miss_before)
            for (hit, miss), (hit_before, miss_before) in zip(window, before)]
    (read_hit, read_miss), (alloc_hit, alloc_miss), (wb_hit, wb_miss) = window
    (life_read_hit, life_read_miss), (life_alloc_hit, life_alloc_miss), \
        (life_wb_hit, life_wb_miss) = life
    misses = read_miss + alloc_miss + wb_miss
    life_misses = life_read_miss + life_alloc_miss + life_wb_miss
    return (
        read_hit, read_miss, 0, alloc_hit + alloc_miss, wb_hit,
        wb_miss + detached, 0, misses + detached,
        misses - (fills_total - fills_before) + spilled + detached,
        life_read_hit + life_alloc_hit, life_read_miss + life_alloc_miss,
        life_wb_hit, life_wb_miss, life_misses, life_misses - fills_total, 0,
        switched, spilled,
    )


def _accesses(kinds, lines, aux, task: int, flush: bool,
              max_sets: int) -> tuple:
    """The accesses a walk sees and where the last RESET splits them:
    ``(kinds, keys, spans before it, span after it, switch facts)``.  A
    stream with switches or another task's writebacks is rewritten by
    :func:`_switch_stream`, and its facts are ``(shift, detached,
    switched, reset window, last window)``; any other stream walks as
    recorded, with facts ``None``."""
    if aux is None or (EVENT_SWITCH not in kinds and set(
            compress(aux, map(EVENT_WRITEBACK.__eq__, kinds))) <= {task}):
        return (kinds, lines, *_phases(kinds), None)
    shift = max(max(lines, default=0).bit_length(), max_sets.bit_length())
    kinds, keys, reset, *facts = _switch_stream(kinds, lines, aux, task,
                                                flush, shift)
    return kinds, keys, [(0, reset)], (reset, len(keys)), (shift, *facts)


def _set_counts(geometries: Sequence[tuple[int, int]]
                ) -> dict[int, list[int]]:
    """Lane indices by set count, in first-seen order."""
    groups: dict[int, list[int]] = {}
    for lane, (n_sets, _ways) in enumerate(geometries):
        groups.setdefault(n_sets, []).append(lane)
    return groups


def price_stack(geometries: Sequence[tuple[int, int]], kinds, lines,
                aux=None, task: int = 0, flush: bool = False) -> list[tuple]:
    """Price LRU SNC lanes from their stack distances.

    ``geometries`` holds one ``(n_sets, ways)`` per lane, set counts
    powers of two; ``kinds`` / ``lines`` / ``aux`` are a recording's
    event columns (without ``aux``, all one task's accesses), ``task``
    the first scheduled XOM id and ``flush`` the switch strategy.  Each
    lane starts with an empty SNC.  Returns one counter tuple per lane,
    in the batch pricer's ``_COUNTERS`` order, equal to what its
    per-event simulation would count.
    """
    groups = _set_counts(geometries)
    kinds, lines, before, window, switches = _accesses(
        kinds, lines, aux, task, flush, max(groups, default=1))
    detached = switched = 0
    masks = {n_sets: n_sets - 1 for n_sets in groups}
    if switches:
        shift, detached, switched, reset_window, last_window = switches
        if flush:  # a set fills once per switch window
            masks = {n_sets: ~((1 << shift) - n_sets) for n_sets in groups}

    def lines_per_set(seen: set[int]) -> dict:
        """Distinct lines mapped to each set, per group set count."""
        return {n_sets: (Counter(map(mask.__and__, seen)).values()
                         if mask else [len(seen)])
                for n_sets, mask in masks.items()}

    seen: set[int] = set()
    for lo, hi in before:
        seen.update(islice(lines, lo, hi))
    sizes_before = lines_per_set(seen)
    seen.update(islice(lines, *window))
    sizes_total = lines_per_set(seen)
    del seen
    spilling = bool(switches) and flush
    if spilling:  # windows that end at a switch after the RESET
        sizes_spilled = lines_per_set(set(lines[reset_window:last_window]))

    results: list = [None] * len(geometries)
    for n_sets, lanes in groups.items():
        ways = sorted({geometries[lane][1] for lane in lanes})
        if n_sets == 1:
            # Bucket j holds distances in [ways[j-1], ways[j]).
            row = len(ways) + 1
            walk = partial(_fully_associative_pass,
                           [OrderedDict() for _ in ways],
                           [hi - lo for lo, hi in zip([0, *ways], ways)],
                           {})
            hit_buckets = {w: ways.index(w) + 1 for w in ways}
        else:
            row = ways[-1] + 1
            walk = partial(_set_associative_pass,
                           [[] for _ in range(n_sets)], n_sets, ways[-1])
            hit_buckets = {w: w for w in ways}
        hist_before = [0] * (_KINDS * row)
        hist_window = [0] * (_KINDS * row)
        for lo, hi in before:
            walk(kinds, lines, lo, hi, hist_before)
        walk(kinds, lines, *window, hist_window)
        for lane in lanes:
            lane_ways = geometries[lane][1]
            buckets = hit_buckets[lane_ways]
            results[lane] = _lane_counters(
                _hits_misses(hist_before, row, buckets),
                _hits_misses(hist_window, row, buckets),
                _fills(sizes_before[n_sets], lane_ways),
                _fills(sizes_total[n_sets], lane_ways), detached, switched,
                _fills(sizes_spilled[n_sets], lane_ways) if spilling else 0,
            )
    return results


# ------------------------------------------------- no-replacement ranks

#: Rank-walk histogram rows: the three access kinds, then first
#: writebacks (the admissions and first rejections).
_FIRST = _KINDS


def _rank_pass(ranks, admitted, mask, ways, kinds, keys, lo, hi,
               hist) -> None:
    """Walk events ``lo:hi`` of a no-replacement group.

    ``ranks`` maps each key written back so far to its rank bucket —
    bucket j holds ranks in ``[ways[j-1], ways[j])`` — and ``admitted``
    counts the keys each set has seen a first writeback of; a key not
    written back yet has bucket ``len(ways) + 1``."""
    row = len(ways) + 2
    unwritten = row - 1
    first = _FIRST * row
    lookup = ranks.get
    for kind, key in zip(islice(kinds, lo, hi), islice(keys, lo, hi)):
        bucket = lookup(key, unwritten)
        if bucket == unwritten and kind == EVENT_WRITEBACK:
            slot = key & mask
            bucket = ranks[key] = bisect_right(ways, admitted[slot])
            admitted[slot] += 1
            hist[first + bucket] += 1
        else:
            hist[kind * row + bucket] += 1


def _rank_counters(hist_before, hist_window, row: int, hits: int,
                   switched: int) -> tuple:
    """One no-replacement lane's counter tuple in ``_COUNTERS`` order;
    its resident keys are the ``hits`` lowest rank buckets."""

    def split(hist) -> list[tuple[int, int, int]]:
        """``(resident, rejected, unwritten)`` per histogram row."""
        return [(sum(hist[base:base + hits]),
                 sum(hist[base + hits:base + row - 1]), hist[base + row - 1])
                for base in range(0, (_FIRST + 1) * row, row)]

    (read_in, read_out, read_new), (alloc_in, alloc_out, alloc_new), \
        (wb_in, wb_out, _), (first_in, first_out, _) = split(hist_window)
    (life_read_in, life_read_out, life_read_new), \
        (life_alloc_in, life_alloc_out, life_alloc_new), \
        (life_wb_in, life_wb_out, _), (life_first_in, life_first_out, _) = \
        split(list(map(add, hist_before, hist_window)))
    return (
        # A read of a key never written back is an untouched
        # vendor-image line: version-0 pad, overlapped.
        read_in + read_new, 0, read_out, alloc_in + alloc_out + alloc_new,
        wb_in, first_in + first_out + wb_out, first_out + wb_out, 0, 0,
        life_read_in + life_alloc_in,
        life_read_out + life_read_new + life_alloc_out + life_alloc_new,
        life_wb_in, life_first_in + life_first_out + life_wb_out,
        life_first_in, 0, life_first_out + life_wb_out, switched, 0,
    )


def price_ranks(geometries: Sequence[tuple[int, int]], kinds, lines,
                aux=None, task: int = 0, flush: bool = False) -> list[tuple]:
    """Price no-replacement SNC lanes from their first-writeback ranks.

    Takes :func:`price_stack`'s arguments and returns its counter
    tuples.  ``flush`` must be false: FLUSH spills to the in-memory
    table, which only an LRU SNC keeps.
    """
    if flush:
        raise ValueError("a no-replacement SNC keeps no table to flush to")
    groups = _set_counts(geometries)
    kinds, keys, before, window, switches = _accesses(
        kinds, lines, aux, task, False, max(groups, default=1))
    switched = switches[2] if switches else 0
    results: list = [None] * len(geometries)
    for n_sets, lanes in groups.items():
        ways = sorted({geometries[lane][1] for lane in lanes})
        row = len(ways) + 2
        walk = partial(_rank_pass, {}, [0] * n_sets, n_sets - 1, ways)
        hist_before = [0] * ((_FIRST + 1) * row)
        hist_window = [0] * ((_FIRST + 1) * row)
        for lo, hi in before:
            walk(kinds, keys, lo, hi, hist_before)
        walk(kinds, keys, *window, hist_window)
        for lane in lanes:
            results[lane] = _rank_counters(
                hist_before, hist_window, row,
                ways.index(geometries[lane][1]) + 1, switched)
    return results
