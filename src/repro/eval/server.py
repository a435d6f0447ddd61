"""Evaluation-as-a-service: ``python -m repro.eval serve``.

A long-running asyncio socket daemon that owns the warm execution
substrate — one process-wide :class:`~repro.eval.pool.WorkerPool`, the
:class:`~repro.eval.trace_store.TraceStore` and
:class:`~repro.eval.cache.ResultCache`, plus an in-memory hot-result
LRU — and serves figure/scenario/integrity/design-space tasks to many
concurrent clients.  The protocol is newline-delimited JSON, one frame
per line (full reference in ``docs/serve.md``):

``hello`` / ``stats`` / ``submit`` / ``shutdown``
    client → server requests.
``hello`` / ``stats`` / ``progress`` / ``result`` / ``error`` /
``shutdown``
    server → client replies; ``progress`` streams once per completed
    task, ``error`` answers one bad request without closing the
    connection.

Identical tasks are **single-flight across clients**: a submit first
consults the hot LRU, then joins any in-flight future for the same
``config_hash`` (one simulation, N subscribers), and only then
enqueues work.  Batches run one at a time on an executor thread through
the unchanged :func:`~repro.eval.scheduler.run_tasks`, so every event
set a client receives is byte-identical to a local run.

Degradation is per-request: malformed JSON, unknown frame types and
invalid tasks are answered with ``error`` frames while the connection
(and every other client) keeps being served; oversized frames and idle
connections are closed after a final ``error`` frame.  ``shutdown``
(and SIGTERM/SIGINT) drains in-flight work, then stops the listener and
calls :func:`~repro.eval.pool.shutdown_worker_pool`, unlinking every
cached shm segment.

Deployment knobs (flags override environment, environment overrides
defaults): ``REPRO_SERVE_MAX_REQUEST_BYTES`` (frame size limit, default
32 MiB), ``REPRO_SERVE_IDLE_TIMEOUT`` (seconds before an idle
connection is dropped, default 300, ``0`` disables),
``REPRO_SERVE_HOT_RESULTS`` (hot-LRU entries, default 512, ``0``
disables).  ``_REPRO_SERVE_STALL`` (seconds) delays batch execution —
test-only, so concurrency tests can join in-flight tasks
deterministically.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.eval.cache import (
    ResultCache,
    default_cache_dir,
    events_to_dict,
)
from repro.eval.client import DEFAULT_PORT, PROTOCOL_VERSION
from repro.eval.jobs import Task, task_from_wire
from repro.eval.pool import (
    pool_stats_dict,
    pool_worker_pids,
    shutdown_worker_pool,
)
from repro.eval.scheduler import (
    TaskResult,
    auto_jobs,
    run_tasks,
)
from repro.eval.trace_store import TraceStore, default_trace_dir

SERVER_NAME = "repro-eval-serve"


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, ""))
    except ValueError:
        return default


@dataclass
class ServeStats:
    """Live daemon counters; the ``stats`` frame serializes them."""

    connections: int = 0
    requests: int = 0
    tasks_requested: int = 0
    #: Tasks this daemon actually enqueued for execution.
    tasks_executed: int = 0
    #: Tasks answered from the in-memory hot-result LRU.
    tasks_hot: int = 0
    #: Tasks that subscribed to an identical in-flight execution.
    tasks_joined: int = 0
    #: Frames rejected before reaching a handler (bad JSON, limits).
    protocol_errors: int = 0
    #: Well-formed requests answered with an error frame.
    request_errors: int = 0
    started: float = field(default_factory=time.time)


class EvalServer:
    """The daemon: one listener, one execution pump, shared warm state.

    ``n_jobs=0`` resolves ``auto`` per batch (one worker per CPU capped
    by the batch's lane count).  Construct, ``await start()``, then
    ``await serve_until_stopped()``; tests use
    :func:`start_server_thread` to run the whole lifecycle on a
    background thread.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 n_jobs: int = 1,
                 cache: ResultCache | None = None,
                 trace_store: TraceStore | None = None,
                 hot_results: int | None = None,
                 max_request_bytes: int | None = None,
                 idle_timeout: float | None = None) -> None:
        self.host = host
        self.port = port
        self.n_jobs = n_jobs
        self.cache = cache
        self.trace_store = trace_store
        self.hot_capacity = (
            _env_int("REPRO_SERVE_HOT_RESULTS", 512)
            if hot_results is None else hot_results
        )
        self.max_request_bytes = (
            _env_int("REPRO_SERVE_MAX_REQUEST_BYTES", 32 * 1024 * 1024)
            if max_request_bytes is None else max_request_bytes
        )
        self.idle_timeout = (
            _env_float("REPRO_SERVE_IDLE_TIMEOUT", 300.0)
            if idle_timeout is None else idle_timeout
        )
        self.stats = ServeStats()
        self._hot: OrderedDict[str, TaskResult] = OrderedDict()
        self._inflight: dict[str, asyncio.Future] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._pump_task: asyncio.Task | None = None
        self._stop_event: asyncio.Event | None = None
        self._draining = False
        #: Submit handlers currently streaming a response; shutdown
        #: waits for them so every subscriber gets its result frame.
        self._busy = 0

    # --------------------------------------------------------- lifecycle

    async def start(self) -> EvalServer:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stop_event = asyncio.Event()
        self._pump_task = asyncio.create_task(self._pump())
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port,
            limit=self.max_request_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_stopped(self) -> None:
        """Serve until ``shutdown`` (or SIGTERM/SIGINT) drains and
        stops the daemon, then tear down the pool and its shm."""
        assert self._loop is not None and self._stop_event is not None
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread (tests) or unsupported platform
        await self._stop_event.wait()
        self._server.close()
        await self._server.wait_closed()
        await self._queue.put(None)
        await self._pump_task
        shutdown_worker_pool()

    def request_shutdown(self) -> None:
        """Signal-safe graceful stop: drain in-flight work, then exit.
        Must run on the event loop (signal handlers installed by
        :meth:`serve_until_stopped` do)."""
        if self._draining:
            return
        self._draining = True
        asyncio.ensure_future(self._drain_and_stop(), loop=self._loop)

    async def _drain_and_stop(self) -> None:
        await self._drain()
        self._stop_event.set()

    async def _drain(self) -> None:
        """Wait until queued batches ran, every in-flight future
        resolved, and every submit handler finished responding."""
        await self._queue.join()
        while self._inflight:
            await asyncio.wait(list(self._inflight.values()))
            await asyncio.sleep(0)
        deadline = self._loop.time() + 10.0
        while self._busy and self._loop.time() < deadline:
            await asyncio.sleep(0.01)

    # -------------------------------------------------- batch execution

    async def _pump(self) -> None:
        """The single execution pump: batches run one at a time on an
        executor thread, so concurrent submits never interleave on the
        pool's worker pipes."""
        while True:
            batch = await self._queue.get()
            if batch is None:
                self._queue.task_done()
                return
            try:
                await asyncio.to_thread(self._run_batch, batch)
            except BaseException as err:
                self._fail_batch(batch, err)
            else:
                self._fail_batch(batch, RuntimeError(
                    "task produced no result"
                ))
            finally:
                self._queue.task_done()

    def _run_batch(self, batch: list[Task]) -> None:
        stall = _env_float("_REPRO_SERVE_STALL", 0.0)
        if stall > 0:
            time.sleep(stall)
        n_jobs = self.n_jobs or auto_jobs(batch)
        run_tasks(
            batch, n_jobs=n_jobs, cache=self.cache,
            trace_store=self.trace_store,
            on_result=self._resolve_from_thread,
        )

    def _resolve_from_thread(self, index: int, result: TaskResult
                             ) -> None:
        # run_tasks calls this on the executor thread; futures must be
        # touched on the loop.
        self._loop.call_soon_threadsafe(self._resolve, result)

    def _resolve(self, result: TaskResult) -> None:
        key = result.task.config_hash()
        self._remember(key, result)
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(result)

    def _fail_batch(self, batch: list[Task],
                    err: BaseException) -> None:
        """Fail whatever futures of this batch are still unresolved
        (on success that is none — every task emitted a result)."""
        for task in batch:
            future = self._inflight.pop(task.config_hash(), None)
            if future is not None and not future.done():
                future.set_exception(err)

    def _remember(self, key: str, result: TaskResult) -> None:
        if self.hot_capacity <= 0:
            return
        self._hot[key] = result
        self._hot.move_to_end(key)
        while len(self._hot) > self.hot_capacity:
            self._hot.popitem(last=False)

    # ------------------------------------------------------ connections

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        try:
            await self._serve_frames(reader, writer)
        except asyncio.CancelledError:
            pass  # loop teardown while blocked on a read: clean close
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_frames(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                if self.idle_timeout > 0:
                    line = await asyncio.wait_for(
                        reader.readline(), self.idle_timeout
                    )
                else:
                    line = await reader.readline()
            except TimeoutError:
                self.stats.protocol_errors += 1
                await self._send(writer, {
                    "type": "error", "code": "idle-timeout",
                    "error": f"no frame in {self.idle_timeout:.0f}s"
                             f", closing",
                })
                break
            except ValueError:
                # The frame outgrew the stream limit; the tail is
                # unrecoverable, so answer and close.
                self.stats.protocol_errors += 1
                await self._send(writer, {
                    "type": "error", "code": "frame-too-large",
                    "error": f"frame exceeds "
                             f"{self.max_request_bytes} bytes",
                })
                break
            except (ConnectionError, OSError):
                break
            if not line:
                break  # clean EOF
            if not line.strip():
                continue
            try:
                frame = json.loads(line)
                if not isinstance(frame, dict):
                    raise ValueError("frame must be a JSON object")
            except ValueError as err:
                self.stats.protocol_errors += 1
                if not await self._send(writer, {
                    "type": "error", "code": "bad-json",
                    "error": f"unparseable frame: {err}",
                }):
                    break
                continue
            if not await self._handle_frame(frame, writer):
                break

    async def _send(self, writer: asyncio.StreamWriter,
                    frame: dict) -> bool:
        """Write one frame; ``False`` when the client is gone (callers
        stop streaming but never cancel shared work)."""
        try:
            data = json.dumps(frame, separators=(",", ":")).encode()
            writer.write(data + b"\n")
            await writer.drain()
            return True
        except (ConnectionError, OSError, RuntimeError):
            return False

    async def _handle_frame(self, frame: dict,
                            writer: asyncio.StreamWriter) -> bool:
        """Dispatch one well-formed frame; ``False`` closes the
        connection."""
        kind = frame.get("type")
        if kind == "hello":
            return await self._send(writer, {
                "type": "hello",
                "server": SERVER_NAME,
                "protocol": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "jobs": self.n_jobs or "auto",
            })
        if kind == "stats":
            return await self._send(
                writer, {"type": "stats", **self._stats_payload()}
            )
        if kind == "submit":
            self._busy += 1
            try:
                await self._handle_submit(frame, writer)
            finally:
                self._busy -= 1
            return True
        if kind == "shutdown":
            self._draining = True
            await self._drain()
            await self._send(writer, {
                "type": "shutdown", "ok": True,
                **self._stats_payload(),
            })
            self._stop_event.set()
            return False
        self.stats.protocol_errors += 1
        return await self._send(writer, {
            "type": "error", "code": "unknown-type",
            "id": frame.get("id"),
            "error": f"unknown frame type {kind!r} "
                     f"(hello, submit, stats, shutdown)",
        })

    # ------------------------------------------------------------ submit

    async def _handle_submit(self, frame: dict,
                             writer: asyncio.StreamWriter) -> None:
        rid = frame.get("id")
        self.stats.requests += 1
        started = self._loop.time()

        def error(code: str, message: str) -> dict:
            self.stats.request_errors += 1
            return {"type": "error", "code": code, "id": rid,
                    "error": message}

        if self._draining:
            await self._send(writer, error(
                "shutting-down", "server is draining for shutdown"
            ))
            return
        raw_tasks = frame.get("tasks")
        if not isinstance(raw_tasks, list) or not raw_tasks:
            await self._send(writer, error(
                "bad-submit", "submit needs a non-empty 'tasks' list"
            ))
            return
        try:
            tasks = [task_from_wire(wire) for wire in raw_tasks]
        except ConfigurationError as err:
            await self._send(writer, error("bad-task", str(err)))
            return

        # Triage synchronously on the loop: this block never awaits, so
        # two concurrent submits of the same task cannot both enqueue it
        # — single-flight is a property of the protocol, not a race.
        self.stats.tasks_requested += len(tasks)
        counts = {"executed": 0, "hot": 0, "joined": 0}
        entries: list[tuple[Task, str, object]] = []
        to_run: list[Task] = []
        for task in tasks:
            key = task.config_hash()
            hot = self._hot.get(key) if self.hot_capacity > 0 else None
            if hot is not None:
                self._hot.move_to_end(key)
                self.stats.tasks_hot += 1
                counts["hot"] += 1
                entries.append((task, "hot", hot))
                continue
            future = self._inflight.get(key)
            if future is not None:
                self.stats.tasks_joined += 1
                counts["joined"] += 1
                entries.append((task, "joined", future))
                continue
            future = self._loop.create_future()
            # Results outlive subscribers: a disconnected client must
            # not surface "exception never retrieved" for shared work.
            future.add_done_callback(
                lambda f: f.cancelled() or f.exception()
            )
            self._inflight[key] = future
            self.stats.tasks_executed += 1
            counts["executed"] += 1
            entries.append((task, "executed", future))
            to_run.append(task)
        if to_run:
            self._queue.put_nowait(to_run)

        # Stream progress in completion order, then the result frame in
        # task order.  Shared futures are awaited, never cancelled — a
        # client disconnecting mid-stream only stops its own frames.
        total = len(entries)
        done = 0
        streaming = True
        results: list[TaskResult | None] = [None] * total
        waiting: dict[asyncio.Future, list[int]] = {}
        for position, (task, how, payload) in enumerate(entries):
            if how == "hot":
                results[position] = payload
                done += 1
                if streaming:
                    streaming = await self._send(writer, {
                        "type": "progress", "id": rid,
                        "done": done, "total": total,
                        "task": task.describe(), "how": "hot",
                        "seconds": payload.seconds,
                    })
            else:
                waiting.setdefault(payload, []).append(position)
        failures: list[str] = []
        pending = set(waiting)
        while pending:
            finished, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for future in finished:
                err = future.exception()
                for position in waiting[future]:
                    task, how, _payload = entries[position]
                    done += 1
                    if err is not None:
                        failures.append(
                            f"{task.describe()}: {err}"
                        )
                        how = "failed"
                        seconds = 0.0
                    else:
                        result = future.result()
                        results[position] = result
                        if how == "executed":
                            how = ("cached" if result.cached
                                   else "simulated")
                        seconds = result.seconds
                    if streaming:
                        streaming = await self._send(writer, {
                            "type": "progress", "id": rid,
                            "done": done, "total": total,
                            "task": task.describe(), "how": how,
                            "seconds": seconds,
                        })
        if failures:
            await self._send(writer, error(
                "task-failed",
                f"{len(failures)} of {total} tasks failed: "
                + "; ".join(failures[:3])
            ))
            return
        await self._send(writer, {
            "type": "result", "id": rid,
            "results": [
                {
                    "events": events_to_dict(result.events),
                    "seconds": result.seconds,
                    "cached": result.cached or how == "hot",
                }
                for result, (_task, how, _payload)
                in zip(results, entries)
            ],
            "counts": counts,
            "seconds": self._loop.time() - started,
        })

    # ------------------------------------------------------------- stats

    def _stats_payload(self) -> dict:
        payload = asdict(self.stats)
        payload["uptime_seconds"] = time.time() - payload.pop("started")
        payload.update(
            pid=os.getpid(),
            jobs=self.n_jobs or "auto",
            hot_entries=len(self._hot),
            inflight=len(self._inflight),
            pool_counters=pool_stats_dict(),
            worker_pids=pool_worker_pids(),
        )
        if self.cache is not None:
            payload["result_cache"] = {
                "hits": self.cache.hits, "misses": self.cache.misses,
            }
        if self.trace_store is not None:
            payload["trace_store"] = {
                "hits": self.trace_store.hits,
                "misses": self.trace_store.misses,
            }
        return payload


# ------------------------------------------------------- thread harness


class ServerHandle:
    """A daemon running on a background thread (tests use this)."""

    def __init__(self, server: EvalServer,
                 thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def address(self) -> str:
        return f"{self.server.host}:{self.server.port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain-and-stop; idempotent."""
        loop = self.server._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.request_shutdown)
        self.thread.join(timeout=timeout)

    def __enter__(self) -> ServerHandle:
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server_thread(**kwargs) -> ServerHandle:
    """Start an :class:`EvalServer` (ephemeral port by default) on a
    daemon thread and return once it is accepting connections."""
    started = threading.Event()
    holder: dict = {}

    def run() -> None:
        async def main() -> None:
            server = EvalServer(**kwargs)
            try:
                await server.start()
            except BaseException as err:
                holder["error"] = err
                started.set()
                raise
            holder["server"] = server
            started.set()
            await server.serve_until_stopped()

        asyncio.run(main())

    thread = threading.Thread(
        target=run, name=SERVER_NAME, daemon=True
    )
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("serve daemon did not start in 30s")
    if "error" in holder:
        raise holder["error"]
    return ServerHandle(holder["server"], thread)


# ---------------------------------------------------------------- CLI


def build_parser() -> argparse.ArgumentParser:
    from repro.eval.runner import parse_jobs

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval serve",
        description=(
            "Run the evaluation service daemon: a newline-delimited "
            "JSON socket server owning the warm worker pool, the "
            "trace/result stores and a hot-result LRU, serving "
            "concurrent clients with cross-client single-flight task "
            "dedupe (see docs/serve.md)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, metavar="N",
        help=f"TCP port (default {DEFAULT_PORT}; 0 picks an ephemeral "
             f"port, announced on stderr)",
    )
    parser.add_argument(
        "--jobs", type=parse_jobs, default=1, metavar="N|auto",
        help="worker processes per batch (default 1; 'auto' resolves "
             "per batch: one per CPU, capped by the batch's lanes)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help=f"result cache location (default {default_cache_dir()})",
    )
    parser.add_argument(
        "--no-trace-cache", action="store_true",
        help="serve without the on-disk recorded-stream store",
    )
    parser.add_argument(
        "--trace-cache-dir", type=Path, default=None, metavar="DIR",
        help=f"recorded-stream store location "
             f"(default {default_trace_dir()})",
    )
    parser.add_argument(
        "--hot-results", type=int, default=None, metavar="N",
        help="in-memory hot-result LRU capacity (default "
             "$REPRO_SERVE_HOT_RESULTS or 512; 0 disables)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="drop connections idle this long (default "
             "$REPRO_SERVE_IDLE_TIMEOUT or 300; 0 disables)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.eval.report import format_server_stats

    args = build_parser().parse_args(argv)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    trace_store = None
    if not args.no_trace_cache:
        trace_store = TraceStore(args.trace_cache_dir)

    async def amain() -> dict:
        server = EvalServer(
            args.host, args.port, n_jobs=args.jobs, cache=cache,
            trace_store=trace_store, hot_results=args.hot_results,
            idle_timeout=args.idle_timeout,
        )
        await server.start()
        print(
            f"{SERVER_NAME} listening on {server.host}:{server.port} "
            f"(pid {os.getpid()}, jobs {args.jobs or 'auto'})",
            file=sys.stderr, flush=True,
        )
        await server.serve_until_stopped()
        return server._stats_payload()

    payload = asyncio.run(amain())
    print(format_server_stats(payload), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
