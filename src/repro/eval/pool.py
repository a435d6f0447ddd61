"""Persistent warm worker pool with zero-copy recording shipping.

A ``multiprocessing.Pool`` built for every
:func:`~repro.eval.scheduler.run_tasks` call would be pure critical-path
overhead: each call would pay N interpreter starts, each worker would
cold-import :mod:`repro`, and every batch group would ship its recording
as pickled gzip bytes that every worker re-decodes.  The paper's own thesis
is that security gets cheap once the expensive work moves off the
critical path and stays warm — this module applies the same discipline
to the evaluation engine:

* :class:`WorkerPool` — spawn-context workers created **once per
  process** (:func:`get_worker_pool`) and reused across every
  ``run_tasks`` / ``run_jobs`` / figure invocation: workers import
  :mod:`repro` exactly once, so a seven-figure sweep stops paying seven
  pool cold-starts.  A crashed worker is buried, respawned, and its
  task retried (once) inline in the parent, so one bad fork no longer
  kills a whole sweep.
* **Zero-copy recording shipping** — :meth:`WorkerPool.ship_recording`
  publishes a recording's packed ``TRACE_FORMAT`` columns in a
  ``multiprocessing.shared_memory`` segment; workers map the
  kinds/lines/aux planes straight out of the segment
  (:func:`resolve_recording_ref`) instead of receiving pickled gzip
  bytes through the task pipe.  Shipments are cached across runs
  (recordings are immutable per key), bounded by
  ``REPRO_POOL_SHM_CACHE_MB`` and unlinked on eviction or shutdown —
  so a warm sweep over the same recordings ships nothing at all.  A
  segment that cannot be created raises :class:`OSError`, and the
  scheduler then prices that run inline, with identical results.
* **Per-worker decoded-recording LRU** — workers keep the last few
  decoded :class:`~repro.eval.record.Recording` objects keyed by record
  task, so a recording fanned out to K groups decodes once per worker,
  not K times (``REPRO_POOL_LRU_RECORDINGS`` sizes it).

Every interesting event is counted in a process-wide :class:`PoolStats`
(:func:`pool_stats`); the runner prints it via
:func:`repro.eval.report.format_pool_stats`.  The pool is an internal
engine — callers go through ``run_tasks(n_jobs=N)`` — and the serve
daemon builds directly on these pieces.
"""

from __future__ import annotations

import atexit
import importlib
import itertools
import multiprocessing
import os
import threading
import traceback
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass
from multiprocessing import connection, shared_memory

from repro.eval.record import Recording
from repro.eval.trace_store import (
    raw_from_wire,
    recording_from_raw,
    recording_to_raw,
)


@dataclass
class PoolStats:
    """Process-wide counters for everything the pool engine does.

    One object per process (:func:`pool_stats`), cumulative across every
    pool and every run — the runner's summary line and the pool
    benchmark's invariants read these fields.
    """

    pools_created: int = 0
    workers_spawned: int = 0
    workers_respawned: int = 0
    tasks_dispatched: int = 0
    tasks_retried: int = 0
    #: Recording shipments that went through shared memory (zero-copy).
    shm_shipments: int = 0
    shm_bytes: int = 0
    #: Lane shards priced concurrently (counted only for groups the
    #: scheduler actually split — an unsharded batch pass adds none).
    lane_shards: int = 0
    #: Wall time summed over those shard passes.
    shard_seconds: float = 0.0


_STATS = PoolStats()


def pool_stats() -> PoolStats:
    """The process-wide pool counters (cumulative; never reset by runs)."""
    return _STATS


def reset_pool_stats() -> None:
    """Zero the counters in place (tests and benchmarks snapshot runs)."""
    for name in PoolStats.__dataclass_fields__:
        setattr(_STATS, name, 0)


def pool_stats_dict() -> dict:
    """JSON-ready snapshot of the process-wide counters — what the
    serve daemon's ``stats`` frame and the benchmarks embed."""
    return asdict(_STATS)


def pool_worker_pids() -> list[int]:
    """PIDs of the live process-wide pool's workers (``[]`` when no
    pool exists).  The serve shutdown tests assert these are dead once
    the daemon exits."""
    with _POOL_LOCK:
        pool = _POOL
    if pool is None:
        return []
    with pool._lock:
        return [worker.process.pid for worker in pool._workers]


# ----------------------------------------------------------- recording LRU


def _lru_capacity() -> int:
    """Sized so one full figure sweep's recordings (11 workloads) stay
    decoded across invocations; shrink via ``REPRO_POOL_LRU_RECORDINGS``
    on memory-constrained hosts (a full-scale recording is a few MB of
    arrays per worker)."""
    raw = os.environ.get("REPRO_POOL_LRU_RECORDINGS", "16")
    try:
        return max(1, int(raw))
    except ValueError:
        return 16


def _shm_cache_budget_bytes() -> int:
    """How many bytes of published segments a pool keeps across runs
    (``REPRO_POOL_SHM_CACHE_MB``, default 256 — a full-scale figure
    sweep's recordings fit several times over)."""
    raw = os.environ.get("REPRO_POOL_SHM_CACHE_MB", "256")
    try:
        return max(0, int(raw)) * 1024 * 1024
    except ValueError:
        return 256 * 1024 * 1024


#: Decoded recordings keyed by record-task hash — per *process*: in a
#: pool worker this is the per-worker LRU; in the parent it memoizes
#: inline retries.
_RECORDING_LRU: OrderedDict[str, Recording] = OrderedDict()


def remember_recording(key: str, recording: Recording) -> None:
    """Insert a decoded recording into this process's LRU (a worker
    that just recorded keeps the object, so its later replay/batch
    tasks on the same recording skip the decode entirely)."""
    _RECORDING_LRU[key] = recording
    _RECORDING_LRU.move_to_end(key)
    while len(_RECORDING_LRU) > _lru_capacity():
        _RECORDING_LRU.popitem(last=False)


def resolve_recording_ref(ref: dict) -> Recording:
    """A shipped ``{"key", "shm", "size"}`` reference (built by
    :meth:`WorkerPool.ship_recording`) back to the decoded object: map
    the named shared-memory segment and decode the raw columns straight
    out of it.  The decoded recording lands in the per-process LRU, so a
    recording fanned out K times decodes once per worker.
    """
    key = ref["key"]
    recording = _RECORDING_LRU.get(key)
    if recording is not None:
        _RECORDING_LRU.move_to_end(key)
        return recording
    pool = _POOL
    if pool is not None and key in pool._segments:
        # Parent-side resolution (inline retry after a worker death):
        # read the segment we published, no re-attach.
        segment = pool._segments[key]
        recording = recording_from_raw(memoryview(segment.buf)[:ref["size"]])
    else:
        segment = shared_memory.SharedMemory(name=ref["shm"])
        try:
            recording = recording_from_raw(
                memoryview(segment.buf)[:ref["size"]]
            )
        finally:
            segment.close()
    remember_recording(key, recording)
    return recording


# ------------------------------------------------------------ the workers


def _worker_main(conn) -> None:
    """The persistent worker loop: resolve a task function once per
    name, run items as they arrive, reply with results or tracebacks.

    ``_REPRO_POOL_FAULT`` (set before the pool spawns; inherited through
    the spawn environment) injects a failure into matching task kinds —
    the lifecycle tests use it to pin the parent's cleanup paths.
    """
    fault = os.environ.get("_REPRO_POOL_FAULT", "")
    resolved: dict[str, object] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message[0] == "stop":
            break
        _, spec, item = message
        try:
            fn = resolved.get(spec)
            if fn is None:
                module_name, _, qualname = spec.partition(":")
                fn = getattr(importlib.import_module(module_name),
                             qualname)
                resolved[spec] = fn
            if fault and spec.endswith(fault):
                raise RuntimeError(f"injected worker fault: {fault}")
            reply = ("ok", fn(item))
        except KeyboardInterrupt:
            break
        except BaseException:
            reply = ("err", f"{spec}: {traceback.format_exc()}")
        try:
            conn.send(reply)
        except (OSError, ValueError):
            break
    try:
        conn.close()
    except OSError:
        pass


def _warm_worker(index: int) -> tuple[int]:
    """Pre-pay the import cost every task kind needs (the scheduler
    pulls in the pipeline, timing and workload layers transitively)."""
    import repro.eval.scheduler  # noqa: F401

    return (index,)


class _Worker:
    """One live worker process and the parent's end of its task pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


class WorkerPool:
    """A persistent spawn-context worker pool with per-worker task
    pipes, worker-death recovery, and shared-memory recording shipping.

    Use :func:`get_worker_pool` for the process-wide instance the
    scheduler reuses; constructing directly is for tests and embedders
    that want an isolated lifecycle (call :meth:`shutdown`).
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._context = multiprocessing.get_context("spawn")
        self._lock = threading.RLock()
        #: Serializes :meth:`run`: the worker pipes are single-reader,
        #: so concurrent runs from different threads (the serve daemon's
        #: executor is one) queue up rather than interleave on them.
        self._run_lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._segments: dict[str, object] = {}
        #: Shipment cache, insertion-ordered for LRU eviction.  Entries
        #: live across runs (that is the warm-pool payoff: a recording
        #: shared by several figure invocations ships once), bounded by
        #: ``REPRO_POOL_SHM_CACHE_MB`` and unlinked on eviction or
        #: :meth:`shutdown`.
        self._shipped_refs: OrderedDict[str, dict] = OrderedDict()
        self._ref_epoch: dict[str, int] = {}
        self._shipped_bytes = 0
        self._epoch = 0
        self._segment_seq = itertools.count()
        self._closed = False
        _STATS.pools_created += 1
        self.grow(n_workers)

    # -- lifecycle ----------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child_conn,), daemon=True,
            name="repro-pool-worker",
        )
        process.start()
        child_conn.close()
        _STATS.workers_spawned += 1
        return _Worker(process, parent_conn)

    def grow(self, n_workers: int) -> None:
        """Ensure at least ``n_workers`` live workers (never shrinks —
        an idle warm worker is the asset, not the cost)."""
        with self._lock:
            while len(self._workers) < n_workers:
                self._workers.append(self._spawn_worker())

    def warm(self) -> None:
        """Make every worker pay its one-time :mod:`repro` import now,
        so the first real task measures work, not cold starts."""
        self.run(_warm_worker, list(range(self.n_workers)),
                 lambda _index: None)

    def _bury(self, worker: _Worker) -> _Worker:
        """Replace a dead worker in place with a fresh one."""
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=5)
        replacement = self._spawn_worker()
        with self._lock:
            slot = self._workers.index(worker)
            self._workers[slot] = replacement
        _STATS.workers_respawned += 1
        return replacement

    def shutdown(self) -> None:
        """Stop every worker and unlink any leftover shipments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
        self.release_shipments()

    # -- zero-copy shipping -------------------------------------------

    def ship_recording(self, key: str,
                       recording: Recording | None = None,
                       payload: bytes | None = None) -> dict:
        """Publish one recording for the pool's workers, returning the
        ``{"key", "shm", "size"}`` reference to embed in task items.

        The packed ``TRACE_FORMAT`` columns go into a shared memory
        segment (workers map the planes directly — nothing but the tiny
        reference dict crosses the pickle pipe).  Raises
        :class:`OSError` when the segment cannot be created.

        Shipments outlive the run that made them: recordings are
        immutable per key, so a later run over the same recordings
        reuses the published segments instead of re-packing and
        re-publishing (the ``ship x0`` half of the warm-pool win).  The
        cache is bounded by ``REPRO_POOL_SHM_CACHE_MB`` — least recently
        shipped entries are unlinked first, but never ones touched
        within the last two runs (they may still be referenced by
        in-flight items).  :meth:`shutdown` unlinks whatever remains.
        """
        with self._lock:
            ref = self._shipped_refs.get(key)
            if ref is not None:
                # Touch: refresh recency and pin for the upcoming run.
                self._shipped_refs.move_to_end(key)
                self._ref_epoch[key] = self._epoch
                return ref
        # The wire payload, when on hand, is cheaper to repackage (one
        # gunzip) than re-packing the column arrays out of the decoded
        # object.
        raw = (raw_from_wire(payload) if payload is not None
               else recording_to_raw(recording))
        segment = shared_memory.SharedMemory(
            create=True, size=len(raw),
            name=f"repro_pool_{os.getpid()}_{next(self._segment_seq)}",
        )
        segment.buf[:len(raw)] = raw
        ref = {"key": key, "shm": segment.name, "size": len(raw)}
        self._store_ref(key, ref, segment)
        _STATS.shm_shipments += 1
        _STATS.shm_bytes += len(raw)
        return ref

    def _store_ref(self, key: str, ref: dict, segment) -> None:
        """Cache a shipment and evict over-budget entries (oldest
        first, skipping any touched within the last two runs)."""
        evicted = []
        with self._lock:
            self._segments[key] = segment
            self._shipped_refs[key] = ref
            self._ref_epoch[key] = self._epoch
            self._shipped_bytes += ref["size"]
            budget = _shm_cache_budget_bytes()
            for old_key in list(self._shipped_refs):
                if self._shipped_bytes <= budget:
                    break
                if self._ref_epoch[old_key] > self._epoch - 2:
                    continue
                del self._ref_epoch[old_key]
                self._shipped_bytes -= self._shipped_refs.pop(old_key)["size"]
                evicted.append(self._segments.pop(old_key))
        for old_segment in evicted:
            try:
                old_segment.close()
                old_segment.unlink()
            except (OSError, FileNotFoundError):
                pass

    def release_shipments(self) -> None:
        """Unlink every published segment and drop the shipment cache
        (:meth:`shutdown` ends with this — segments must never outlive
        the pool)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._shipped_refs.clear()
            self._ref_epoch.clear()
            self._shipped_bytes = 0
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except (OSError, FileNotFoundError):
                pass

    # -- running work -------------------------------------------------

    def run(self, worker_fn, items, on_result,
            max_workers: int | None = None) -> None:
        """Fan indexed work items over the warm workers.

        ``worker_fn`` must be an importable module-level function (it is
        shipped by name and resolved once per worker); each result tuple
        is handed to ``on_result(*result)`` as it completes.  A worker
        that dies mid-task is respawned and its task retried once
        inline; a task that *raises* in a worker fails the run (after
        draining, so the pool stays usable).
        Concurrent calls from different threads serialize on the pool's
        run lock — each run owns every worker pipe exclusively.
        """
        if not items:
            return
        with self._run_lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            spec = f"{worker_fn.__module__}:{worker_fn.__qualname__}"
            limit = min(max_workers or self.n_workers, self.n_workers,
                        len(items))
            queue = deque(items)
            idle = list(self._workers[:limit])
            active: dict[_Worker, object] = {}
            try:
                self._run_loop(worker_fn, spec, queue, idle, active,
                               on_result)
            finally:
                # Shipments touched before this run stay pinned against
                # eviction until two more runs complete (in-flight items
                # may still reference them).
                with self._lock:
                    self._epoch += 1

    def _run_loop(self, worker_fn, spec, queue, idle, active,
                  on_result) -> None:
        failure: BaseException | None = None

        def retry_inline(item) -> None:
            nonlocal failure
            _STATS.tasks_retried += 1
            try:
                result = worker_fn(item)
            except BaseException as err:  # genuinely-bad task: surface
                failure = failure or err
            else:
                on_result(*result)

        while queue or active:
            while queue and idle and failure is None:
                worker = idle.pop()
                item = queue.popleft()
                try:
                    worker.conn.send(("task", spec, item))
                except (OSError, ValueError):
                    # Died while idle: replace it and put the task back
                    # (nothing was lost — it never started).
                    idle.append(self._bury(worker))
                    queue.appendleft(item)
                    continue
                active[worker] = item
                _STATS.tasks_dispatched += 1
            if not active:
                if failure is not None:
                    break
                continue
            ready = set(connection.wait(
                [worker.conn for worker in active]
                + [worker.process.sentinel for worker in active]
            ))
            for worker in list(active):
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        message = None
                    item = active.pop(worker)
                    if message is None:
                        # Pipe broke mid-reply: treat as a death.
                        replacement = self._bury(worker)
                        idle.append(replacement)
                        if failure is None:
                            retry_inline(item)
                    else:
                        idle.append(worker)
                        if message[0] == "ok":
                            if failure is None:
                                on_result(*message[1])
                        elif failure is None:
                            failure = RuntimeError(
                                f"pool worker failed: {message[1]}"
                            )
                elif (worker.process.sentinel in ready
                      and not worker.process.is_alive()
                      and not worker.conn.poll()):
                    # Dead with no buffered reply: bury, respawn, and
                    # retry the task once inline.  (A buffered reply
                    # means the result survived the crash — the next
                    # wait() round collects it from the pipe.)
                    item = active.pop(worker)
                    idle.append(self._bury(worker))
                    if failure is None:
                        retry_inline(item)
        if failure is not None:
            raise failure


# ------------------------------------------------- the process-wide pool

_POOL: WorkerPool | None = None
_POOL_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def get_worker_pool(n_workers: int) -> WorkerPool:
    """The process-wide persistent pool, created on first use and grown
    (never shrunk) to the largest ``n_workers`` any caller asked for.
    ``run(..., max_workers=n)`` still bounds each run's concurrency."""
    global _POOL, _ATEXIT_REGISTERED
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = WorkerPool(n_workers)
            if not _ATEXIT_REGISTERED:
                atexit.register(shutdown_worker_pool)
                _ATEXIT_REGISTERED = True
        elif _POOL.n_workers < n_workers:
            _POOL.grow(n_workers)
        return _POOL


def shutdown_worker_pool() -> None:
    """Stop the process-wide pool (if any); the next
    :func:`get_worker_pool` starts a fresh one."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()
