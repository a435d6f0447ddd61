"""Protocol robustness of the serve daemon: every malformed input is
answered with an ``error`` frame or a clean close, and the daemon keeps
serving — the next frame, the next client — afterwards.

Each test speaks raw newline-delimited JSON over a plain socket (no
:class:`EvalClient` between the bytes and the daemon), so the frames
under test are exactly what a broken client would produce.
"""

from __future__ import annotations

import json
import socket
from dataclasses import asdict

import pytest

from repro.eval.client import PROTOCOL_VERSION, EvalClient, ServerError
from repro.eval.jobs import SNCSpec, SimulationTask, task_to_wire
from repro.eval.pipeline import SimulationScale
from repro.eval.server import start_server_thread
from repro.eval.trace_store import TraceStore

#: Tiny but non-degenerate: the valid-submit-after-error tests execute
#: this for real, so it must clear the workload's initialization phase
#: (the recorder rejects windows with no load misses) yet stay fast.
TINY_TASK = SimulationTask(
    workload="art",
    snc_configs=(SNCSpec(key="lru64"),),
    scale=SimulationScale(warmup_refs=8_000, measure_refs=8_000),
)


@pytest.fixture(scope="module")
def daemon():
    with start_server_thread(n_jobs=1) as handle:
        yield handle


def raw_connection(handle):
    sock = socket.create_connection(
        ("127.0.0.1", handle.server.port), timeout=30
    )
    return sock, sock.makefile("rb")


def send_line(sock, payload: bytes) -> None:
    sock.sendall(payload + b"\n")


def recv_frame(stream) -> dict:
    line = stream.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


def roundtrip(sock, stream, frame: dict) -> dict:
    send_line(sock, json.dumps(frame).encode())
    return recv_frame(stream)


class TestHandshake:
    def test_hello_reports_protocol_and_pid(self, daemon):
        sock, stream = raw_connection(daemon)
        try:
            reply = roundtrip(sock, stream, {"type": "hello"})
            assert reply["type"] == "hello"
            assert reply["protocol"] == PROTOCOL_VERSION
            assert reply["pid"] > 0
        finally:
            sock.close()

    def test_hello_names_no_engine_or_pool(self, daemon):
        # One engine, one pool: the handshake no longer advertises them.
        sock, stream = raw_connection(daemon)
        try:
            reply = roundtrip(sock, stream, {"type": "hello"})
            assert "backend" not in reply
            assert "pool" not in reply
            assert reply["jobs"] == 1
        finally:
            sock.close()

    def test_client_rejects_protocol_mismatch(self, daemon,
                                              monkeypatch):
        monkeypatch.setattr(
            "repro.eval.client.PROTOCOL_VERSION", PROTOCOL_VERSION + 1
        )
        with pytest.raises(ServerError, match="protocol"):
            EvalClient(daemon.address)


class TestMalformedFrames:
    def test_bad_json_answered_not_fatal(self, daemon):
        sock, stream = raw_connection(daemon)
        try:
            send_line(sock, b"{this is not json")
            reply = recv_frame(stream)
            assert reply["type"] == "error"
            assert reply["code"] == "bad-json"
            # Same connection still serves well-formed frames.
            assert roundtrip(sock, stream,
                             {"type": "hello"})["type"] == "hello"
        finally:
            sock.close()

    def test_non_object_frame_rejected(self, daemon):
        sock, stream = raw_connection(daemon)
        try:
            send_line(sock, b"[1, 2, 3]")
            reply = recv_frame(stream)
            assert (reply["type"], reply["code"]) == ("error",
                                                      "bad-json")
        finally:
            sock.close()

    def test_unknown_type_keeps_connection(self, daemon):
        sock, stream = raw_connection(daemon)
        try:
            reply = roundtrip(sock, stream, {"type": "explode"})
            assert (reply["type"], reply["code"]) == ("error",
                                                      "unknown-type")
            assert roundtrip(sock, stream,
                             {"type": "hello"})["type"] == "hello"
        finally:
            sock.close()

    def test_blank_lines_ignored(self, daemon):
        sock, stream = raw_connection(daemon)
        try:
            sock.sendall(b"\n\n")
            assert roundtrip(sock, stream,
                             {"type": "hello"})["type"] == "hello"
        finally:
            sock.close()

    def test_truncated_frame_then_disconnect(self, daemon):
        # A client dying mid-frame leaves an unterminated line; the
        # daemon must shrug it off and serve the next client.
        sock, _stream = raw_connection(daemon)
        sock.sendall(b'{"type": "sub')
        sock.close()
        with EvalClient(daemon.address) as client:
            assert client.server_info["type"] == "hello"


class TestRequestErrors:
    def test_submit_without_tasks(self, daemon):
        sock, stream = raw_connection(daemon)
        try:
            reply = roundtrip(sock, stream,
                              {"type": "submit", "id": "r1"})
            assert (reply["type"], reply["code"]) == ("error",
                                                      "bad-submit")
            assert reply["id"] == "r1"
        finally:
            sock.close()

    def test_submit_with_invalid_task_then_valid_one(self, daemon):
        sock, stream = raw_connection(daemon)
        try:
            reply = roundtrip(sock, stream, {
                "type": "submit", "id": "r1",
                "tasks": [{"kind": "simulation", "workload": "zzz",
                           "scale": [10, 10]}],
            })
            assert (reply["type"], reply["code"]) == ("error",
                                                      "bad-task")
            assert "zzz" in reply["error"]
            # The same connection then runs a real task to completion.
            send_line(sock, json.dumps({
                "type": "submit", "id": "r2",
                "tasks": [task_to_wire(TINY_TASK)],
            }).encode())
            frames = []
            while True:
                frame = recv_frame(stream)
                frames.append(frame)
                if frame["type"] != "progress":
                    break
            assert frames[-1]["type"] == "result"
            assert len(frames[-1]["results"]) == 1
            assert any(frame["type"] == "progress"
                       for frame in frames)
        finally:
            sock.close()

    def test_scheme_without_timing_sim_is_a_bad_task(self, tmp_path):
        """A scheme with no SNC state machine (``xom``) is refused at
        submit: one ``bad-task`` frame, no record pass for it or for
        the valid task it shares the submit with, and the connection
        then runs a valid task."""
        store = TraceStore(tmp_path)
        bad = task_to_wire(TINY_TASK)
        bad["snc"] = [asdict(SNCSpec(key="xom64", scheme="xom"))]
        with start_server_thread(n_jobs=1, trace_store=store) as handle:
            sock, stream = raw_connection(handle)
            try:
                reply = roundtrip(sock, stream, {
                    "type": "submit", "id": "r1",
                    "tasks": [task_to_wire(TINY_TASK), bad],
                })
                assert (reply["type"], reply["code"], reply["id"]) == (
                    "error", "bad-task", "r1")
                assert "'xom'" in reply["error"]
                assert store.records == 0
                assert handle.server.stats.tasks_executed == 0
                send_line(sock, json.dumps({
                    "type": "submit", "id": "r2",
                    "tasks": [task_to_wire(TINY_TASK)],
                }).encode())
                frame = recv_frame(stream)
                while frame["type"] == "progress":
                    assert frame["id"] == "r2"
                    frame = recv_frame(stream)
                assert (frame["type"], frame["id"]) == ("result", "r2")
                assert len(frame["results"]) == 1
                assert store.records == 1
            finally:
                sock.close()

    def test_error_frames_are_counted(self, daemon):
        with EvalClient(daemon.address) as client:
            stats = client.stats()
        assert stats["protocol_errors"] >= 1
        assert stats["request_errors"] >= 1


class TestLimits:
    def test_oversized_frame_answered_then_closed(self):
        with start_server_thread(n_jobs=1,
                                 max_request_bytes=4096) as handle:
            sock, stream = raw_connection(handle)
            try:
                send_line(sock, b'{"type": "submit", "tasks": ["'
                          + b"x" * 8192 + b'"]}')
                reply = recv_frame(stream)
                assert (reply["type"], reply["code"]) == (
                    "error", "frame-too-large"
                )
                assert stream.readline() == b""  # clean close
            finally:
                sock.close()
            # The daemon survives to serve the next client.
            with EvalClient(handle.address) as client:
                assert client.server_info["type"] == "hello"

    def test_idle_connection_dropped(self):
        with start_server_thread(n_jobs=1,
                                 idle_timeout=0.2) as handle:
            sock, stream = raw_connection(handle)
            try:
                reply = recv_frame(stream)  # blocks until the timeout
                assert (reply["type"], reply["code"]) == (
                    "error", "idle-timeout"
                )
                assert stream.readline() == b""
            finally:
                sock.close()
            with EvalClient(handle.address) as client:
                assert client.server_info["type"] == "hello"
