"""The thin client side of the evaluation service.

:class:`EvalClient` speaks the serve daemon's newline-delimited JSON
protocol (one frame per line — see :mod:`repro.eval.server` and
``docs/serve.md``) over a plain blocking socket, so the runner, the
benchmarks and test threads can all use it without an event loop.  Its
:meth:`~EvalClient.run_tasks` is a drop-in for
:func:`repro.eval.scheduler.run_tasks`: it ships tasks through
:func:`~repro.eval.jobs.task_to_wire`, streams the daemon's per-task
progress frames to a callback, and rebuilds each result's events with
:func:`~repro.eval.cache.events_from_dict` — the same canonical wire
form the result cache round-trips — so every table rendered from a
server run is byte-identical to a local one.

Protocol constants live here (not in the server module) so the server,
the runner and the facade can all import them without a cycle.
"""

from __future__ import annotations

import itertools
import json
import socket
from collections.abc import Callable, Sequence

from repro.eval.cache import events_from_dict
from repro.eval.jobs import Task, task_to_wire
from repro.eval.scheduler import TaskResult

#: Bumped when a frame's meaning changes; ``hello`` replies carry it and
#: the client refuses a mismatched server rather than mis-parse frames.
PROTOCOL_VERSION = 1

#: Default TCP port of ``python -m repro.eval serve``.
DEFAULT_PORT = 7203


class ServerError(RuntimeError):
    """An ``error`` frame from the daemon, or a broken conversation.

    ``code`` carries the frame's machine-readable reason (``bad-json``,
    ``bad-task``, ``task-failed``, ``frame-too-large``, ...) when the
    server sent one.
    """

    def __init__(self, message: str, code: str = "") -> None:
        super().__init__(message)
        self.code = code


def parse_address(text: str) -> tuple[str, int]:
    """A ``--server`` value: ``HOST`` or ``HOST:PORT`` (default port
    :data:`DEFAULT_PORT`)."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        return text, DEFAULT_PORT
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid server address {text!r} — expected HOST or "
            f"HOST:PORT"
        ) from None
    return host or "127.0.0.1", port


class EvalClient:
    """One connection to a running serve daemon.

    Usable as a context manager; the constructor performs the
    ``hello`` handshake and raises :class:`ServerError` on a protocol
    version mismatch.  ``last_request`` holds the most recent submit's
    summary (the server's dedupe counts and wall seconds) for the
    runner's stats line.
    """

    def __init__(self, address: str | tuple[str, int],
                 timeout: float = 600.0) -> None:
        if isinstance(address, str):
            address = parse_address(address)
        self.host, self.port = address
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=timeout
        )
        self._file = self._sock.makefile("rb")
        self._ids = itertools.count(1)
        self.last_request: dict | None = None
        self.server_info = self._request({"type": "hello"}, "hello")
        version = self.server_info.get("protocol")
        if version != PROTOCOL_VERSION:
            self.close()
            raise ServerError(
                f"server speaks protocol {version!r}, client speaks "
                f"{PROTOCOL_VERSION}"
            )

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------ frames

    def _send(self, frame: dict) -> None:
        data = json.dumps(frame, separators=(",", ":")).encode()
        self._sock.sendall(data + b"\n")

    def _recv(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ServerError("server closed the connection")
        frame = json.loads(line)
        if not isinstance(frame, dict):
            raise ServerError(f"non-object frame from server: {frame!r}")
        return frame

    def _request(self, frame: dict, reply_type: str,
                 progress: Callable[[str], None] | None = None) -> dict:
        """Send one frame and collect its reply, streaming ``progress``
        frames to the callback and raising on ``error`` frames."""
        self._send(frame)
        while True:
            reply = self._recv()
            kind = reply.get("type")
            if kind == "progress":
                if progress is not None:
                    progress(self._progress_line(reply))
                continue
            if kind == "error":
                raise ServerError(
                    str(reply.get("error", "unspecified server error")),
                    code=str(reply.get("code", "")),
                )
            if kind == reply_type:
                return reply
            raise ServerError(
                f"expected a {reply_type!r} frame, got {kind!r}"
            )

    @staticmethod
    def _progress_line(frame: dict) -> str:
        line = (f"[{frame.get('done', '?')}/{frame.get('total', '?')}] "
                f"{frame.get('task', '?')}: {frame.get('how', '?')}")
        seconds = frame.get("seconds")
        if seconds:
            line += f" in {seconds:.1f}s"
        return line

    # ------------------------------------------------------------- verbs

    def run_tasks(self, tasks: Sequence[Task],
                  progress: Callable[[str], None] | None = None,
                  ) -> list[TaskResult]:
        """Run tasks on the daemon; results come back in task order.

        The server executes each *distinct* task at most once across
        all connected clients (joining an in-flight run when another
        client already submitted it) and streams one ``progress`` frame
        per completed task.  Events round-trip through the result
        cache's canonical dict form, so they are byte-identical to a
        local run's.
        """
        tasks = list(tasks)
        frame = {
            "type": "submit",
            "id": f"r{next(self._ids)}",
            "tasks": [task_to_wire(task) for task in tasks],
        }
        reply = self._request(frame, "result", progress=progress)
        entries = reply.get("results", [])
        if len(entries) != len(tasks):
            raise ServerError(
                f"server returned {len(entries)} results for "
                f"{len(tasks)} tasks"
            )
        results = [
            TaskResult(
                task=task,
                events=events_from_dict(dict(entry["events"])),
                seconds=float(entry.get("seconds", 0.0)),
                cached=bool(entry.get("cached", False)),
            )
            for task, entry in zip(tasks, entries)
        ]
        self.last_request = {
            "tasks": len(tasks),
            "counts": dict(reply.get("counts", {})),
            "seconds": float(reply.get("seconds", 0.0)),
        }
        return results

    def stats(self) -> dict:
        """The daemon's live counters (requests, dedupe, pool, caches)."""
        return self._request({"type": "stats"}, "stats")

    def shutdown(self) -> dict:
        """Ask the daemon to drain in-flight work and exit cleanly."""
        return self._request({"type": "shutdown"}, "shutdown")

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> EvalClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
