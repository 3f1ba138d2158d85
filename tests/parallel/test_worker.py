"""Protocol-level tests for the ``repro worker`` TCP server.

These speak raw frames at a :class:`WorkerServer`, the way a
hand-written (or adversarial) client would — the ``SocketBackend``
integration is covered in ``test_backends.py``.
"""

import pickle
import socket

import pytest

from repro.parallel import wire
from repro.parallel.backends import bundle_fingerprint
from repro.parallel.worker import WorkerServer


def _bundle(context):
    data = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
    return data, bundle_fingerprint(data)


def _memo_probe_chunk(context, arg):
    return context["base"] + arg, {"items": 1}


class _Client:
    """A minimal frame-at-a-time client."""

    def __init__(self, server: WorkerServer):
        self._sock = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    def call(self, payload: dict) -> dict | None:
        wire.send_frame(self._wfile, payload)
        self._wfile.flush()
        return wire.recv_frame(self._rfile)

    def close(self) -> None:
        self._sock.close()


@pytest.fixture(scope="module")
def server():
    worker = WorkerServer(module_prefixes=("repro.", "tests."))
    worker.serve_in_thread()
    yield worker
    worker.shutdown()


@pytest.fixture
def client(server):
    c = _Client(server)
    yield c
    c.close()


def _handshake(client):
    reply = client.call({"op": "hello", "version": wire.PROTOCOL_VERSION})
    assert reply["ok"] is True
    return reply


class TestHandshake:
    def test_hello(self, client):
        reply = _handshake(client)
        assert reply["server"] == "repro-worker"
        assert reply["version"] == wire.PROTOCOL_VERSION

    def test_version_mismatch_refused(self, client):
        reply = client.call({"op": "hello", "version": 999})
        assert reply["ok"] is False
        assert "version" in reply["error"]

    def test_unknown_op_is_an_error(self, client):
        reply = client.call({"op": "frobnicate"})
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]

    def test_bye_ends_the_session(self, client):
        _handshake(client)
        assert client.call({"op": "bye"})["ok"] is True
        assert client.call({"op": "hello"}) is None  # closed


class TestBundles:
    def test_bind_unknown_fingerprint(self, client):
        _handshake(client)
        reply = client.call({"op": "bind", "fingerprint": "0" * 64})
        assert reply == {"ok": True, "have": False}

    def test_bundle_upload_then_bind_from_cache(self, server, client):
        _handshake(client)
        data, fingerprint = _bundle({"base": 40})
        reply = client.call(
            {
                "op": "bundle",
                "fingerprint": fingerprint,
                "data": wire.encode_bytes(data),
            }
        )
        assert reply == {"ok": True, "fingerprint": fingerprint}
        # A second session binds without re-uploading.
        other = _Client(server)
        try:
            _handshake(other)
            reply = other.call(
                {"op": "bind", "fingerprint": fingerprint}
            )
            assert reply == {"ok": True, "have": True}
        finally:
            other.close()

    def test_bundle_fingerprint_mismatch_rejected(self, client):
        _handshake(client)
        data, _ = _bundle({"base": 1})
        reply = client.call(
            {
                "op": "bundle",
                "fingerprint": "f" * 64,
                "data": wire.encode_bytes(data),
            }
        )
        assert reply["ok"] is False
        assert "fingerprint" in reply["error"]


class TestChunks:
    def _bind(self, client, context):
        data, fingerprint = _bundle(context)
        reply = client.call(
            {
                "op": "bundle",
                "fingerprint": fingerprint,
                "data": wire.encode_bytes(data),
            }
        )
        assert reply["ok"] is True

    def test_chunk_without_bind_is_an_error(self, client):
        _handshake(client)
        reply = client.call(
            {
                "op": "chunk",
                "fn": "tests.parallel.test_worker:_memo_probe_chunk",
                "index": 0,
                "arg": wire.encode_bytes(pickle.dumps(1)),
            }
        )
        assert reply["ok"] is False
        assert "no context bound" in reply["error"]

    def test_chunk_runs_against_the_bound_context(self, client):
        _handshake(client)
        self._bind(client, {"base": 40})
        reply = client.call(
            {
                "op": "chunk",
                "fn": "tests.parallel.test_worker:_memo_probe_chunk",
                "index": 0,
                "arg": wire.encode_bytes(pickle.dumps(2)),
            }
        )
        assert reply["ok"] is True
        result, stats = pickle.loads(
            wire.decode_bytes(reply["outcome"])
        )
        assert result == 42
        assert stats.worker == 0
        assert stats.items == 1

    def test_module_gating_rejects_foreign_callables(self, client):
        _handshake(client)
        self._bind(client, {"base": 0})
        reply = client.call(
            {
                "op": "chunk",
                "fn": "os:system",
                "index": 0,
                "arg": wire.encode_bytes(pickle.dumps("true")),
            }
        )
        assert reply["ok"] is False
        assert "outside the allowed prefixes" in reply["error"]

    def test_chunk_exception_ships_back_as_error(self, client):
        _handshake(client)
        self._bind(client, {"base": 0})
        reply = client.call(
            {
                "op": "chunk",
                "fn": "tests.parallel.test_worker:_memo_probe_chunk",
                "index": 0,
                # A string arg makes the chunk's addition raise.
                "arg": wire.encode_bytes(pickle.dumps("boom")),
            }
        )
        assert reply["ok"] is False
        assert "TypeError" in reply["error"]


class TestShutdown:
    def test_shutdown_refused_by_default(self, client):
        _handshake(client)
        reply = client.call({"op": "shutdown"})
        assert reply["ok"] is False
        assert "--allow-shutdown" in reply["error"]

    def test_shutdown_honored_when_allowed(self):
        worker = WorkerServer(allow_shutdown=True)
        thread = worker.serve_in_thread()
        c = _Client(worker)
        try:
            _handshake(c)
            assert c.call({"op": "shutdown"})["ok"] is True
        finally:
            c.close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestTelemetryOp:
    def test_ops_and_bundle_loads_are_histogrammed(self, server):
        c = _Client(server)
        try:
            _handshake(c)
            data, fingerprint = _bundle({"base": 10})
            c.call(
                {
                    "op": "bundle",
                    "fingerprint": fingerprint,
                    "data": wire.encode_bytes(data),
                }
            )
            c.call(
                {
                    "op": "chunk",
                    "fn": "tests.parallel.test_worker:_memo_probe_chunk",
                    "index": 0,
                    "arg": wire.encode_bytes(pickle.dumps(1)),
                }
            )
            reply = c.call({"op": "telemetry"})
        finally:
            c.close()
        assert reply["ok"] is True
        assert reply["server"] == "repro-worker"
        snapshot = reply["telemetry"]
        histograms = snapshot["histograms"]
        assert histograms["worker.op.hello"]["count"] >= 1
        assert histograms["worker.op.chunk"]["count"] >= 1
        assert histograms["worker.bundle.load"]["count"] >= 1
        assert histograms["worker.chunk"]["count"] >= 1
        counters = snapshot["counters"]
        assert counters["worker.chunks"]["total"] >= 1
        assert counters["worker.bundle.loads"]["total"] >= 1

    def test_bundle_cache_hits_and_misses_are_counted(self, server):
        c = _Client(server)
        try:
            _handshake(c)
            data, fingerprint = _bundle({"base": 77})
            c.call(
                {
                    "op": "bundle",
                    "fingerprint": fingerprint,
                    "data": wire.encode_bytes(data),
                }
            )
            before = c.call({"op": "telemetry"})["telemetry"]
            # Binding a cached fingerprint is a hit; an unknown one
            # is a miss.
            c.call({"op": "bind", "fingerprint": fingerprint})
            c.call({"op": "bind", "fingerprint": "0" * 64})
            after = c.call({"op": "telemetry"})["telemetry"]
        finally:
            c.close()
        def total(snap, name):
            return snap["counters"].get(name, {"total": 0})["total"]

        assert total(after, "worker.bundle.hits") == (
            total(before, "worker.bundle.hits") + 1
        )
        assert total(after, "worker.bundle.misses") == (
            total(before, "worker.bundle.misses") + 1
        )

    def test_worker_telemetry_is_server_local(self, server):
        from repro.obs.switch import SWITCH

        assert SWITCH.telemetry is None
        c = _Client(server)
        try:
            _handshake(c)
            reply = c.call({"op": "telemetry"})
        finally:
            c.close()
        # Always on for the worker's own server object, without
        # touching the process-global switch.
        assert reply["ok"] is True
        assert reply["telemetry"]["histograms"]
