"""The ``repro worker`` process: serve chunk calls over TCP.

A worker is the remote half of the ``socket`` executor backend.  It
listens on a TCP port, speaks the length-prefixed JSON frames of
:mod:`repro.parallel.wire`, and serves any number of concurrent
*sessions* (one connection = one session = one virtual worker):

``hello``
    Protocol-version handshake; mismatches are refused.
``bind`` / ``bundle``
    The client names its context bundle by SHA-256 fingerprint; the
    worker answers whether it already holds the bytes (so a second
    session, or a re-verify of an unchanged spec, skips the upload).
    Either way the session unpickles a **fresh** context from the
    bytes — never shares a warmed one — because the determinism model
    (see :mod:`repro.parallel.backends`) prices every virtual worker
    from the same cold bundle.
``chunk``
    Runs one module-level chunk function, named ``"module:qualname"``
    and resolved only inside the configured module prefixes
    (``repro.`` by default), against the session's context.  The
    request carries the client's tracing/coverage flags; span buffers
    and coverage payloads travel back inside the pickled
    :class:`~repro.parallel.executor.WorkerStats`.
``telemetry``
    The worker's live telemetry snapshot (per-op and bundle-load
    latency histograms, chunk rates, bundle cache hit/miss counters,
    recent slow ops) — always on, held per worker process, so
    harnesses and ``repro top --worker`` can watch a pool member
    without touching the process-wide telemetry switch.
``bye`` / ``shutdown``
    End the session / stop the whole worker (the latter only with
    ``--allow-shutdown``, for harnesses).

Chunk arguments and outcomes are *pickled* inside the frames: a
worker executes what its clients send.  Bind workers to loopback (the
default) or to interfaces reachable only by machines you trust.
"""

from __future__ import annotations

import importlib
import pickle
import socketserver
import threading
import time
import traceback
from collections import OrderedDict
from typing import Callable

from repro.obs.telemetry import Telemetry
from repro.parallel import wire

__all__ = ["WorkerServer"]

#: Bundles cached per worker process (LRU by fingerprint); a bundle is
#: a few KB for the shipped applications, so this is generous.
DEFAULT_BUNDLE_CACHE = 8


class _BundleStore:
    """Fingerprint-addressed LRU cache of context-bundle bytes."""

    def __init__(self, capacity: int):
        self._capacity = max(1, capacity)
        self._bundles: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, fingerprint: str) -> bytes | None:
        with self._lock:
            data = self._bundles.get(fingerprint)
            if data is not None:
                self._bundles.move_to_end(fingerprint)
            return data

    def put(self, fingerprint: str, data: bytes) -> None:
        with self._lock:
            self._bundles[fingerprint] = data
            self._bundles.move_to_end(fingerprint)
            while len(self._bundles) > self._capacity:
                self._bundles.popitem(last=False)


class _SessionHandler(socketserver.StreamRequestHandler):
    """One connection's frame loop."""

    def handle(self) -> None:  # noqa: D102 - socketserver hook
        server: "_Server" = self.server  # type: ignore[assignment]
        context = None
        bound = False
        while True:
            try:
                frame = wire.recv_frame(self.rfile)
            except wire.WireError:
                return
            if frame is None:
                return
            op = frame.get("op")
            t0 = time.perf_counter_ns()
            try:
                if op == "hello":
                    version = frame.get("version")
                    if version != wire.PROTOCOL_VERSION:
                        self._reply_error(
                            f"protocol version {version!r} not "
                            f"supported (worker speaks "
                            f"{wire.PROTOCOL_VERSION})"
                        )
                        continue
                    self._reply(
                        {
                            "ok": True,
                            "server": "repro-worker",
                            "version": wire.PROTOCOL_VERSION,
                        }
                    )
                elif op == "bind":
                    fingerprint = frame["fingerprint"]
                    data = server.bundles.get(fingerprint)
                    if data is None:
                        server.telemetry.inc("worker.bundle.misses")
                        self._reply({"ok": True, "have": False})
                    else:
                        server.telemetry.inc("worker.bundle.hits")
                        context = server.load_bundle(data)
                        bound = True
                        self._reply({"ok": True, "have": True})
                elif op == "bundle":
                    data = wire.decode_bytes(frame["data"])
                    from repro.parallel.backends import (
                        bundle_fingerprint,
                    )

                    fingerprint = frame.get("fingerprint")
                    actual = bundle_fingerprint(data)
                    if fingerprint and fingerprint != actual:
                        self._reply_error(
                            "bundle bytes do not match their "
                            "announced fingerprint"
                        )
                        continue
                    server.bundles.put(actual, data)
                    context = server.load_bundle(data)
                    bound = True
                    self._reply({"ok": True, "fingerprint": actual})
                elif op == "telemetry":
                    self._reply(
                        {
                            "ok": True,
                            "server": "repro-worker",
                            "telemetry": server.telemetry.snapshot(
                                events=frame.get("events", 32)
                            ),
                        }
                    )
                elif op == "chunk":
                    if not bound:
                        self._reply_error(
                            "no context bound (send bind/bundle first)"
                        )
                        continue
                    self._reply(
                        server.run_chunk(frame, context)
                    )
                elif op == "bye":
                    self._reply({"ok": True})
                    return
                elif op == "shutdown":
                    if not server.allow_shutdown:
                        self._reply_error(
                            "shutdown not allowed "
                            "(start with --allow-shutdown)"
                        )
                        continue
                    self._reply({"ok": True})
                    threading.Thread(
                        target=server.shutdown, daemon=True
                    ).start()
                    return
                else:
                    self._reply_error(f"unknown op {op!r}")
            except (BrokenPipeError, ConnectionResetError):
                return
            except Exception as exc:
                try:
                    self._reply_error(
                        f"{type(exc).__name__}: {exc}"
                    )
                except (OSError, wire.WireError):
                    return
            finally:
                server.telemetry.observe(
                    "worker.op."
                    + (op if isinstance(op, str) else "invalid"),
                    time.perf_counter_ns() - t0,
                )

    def _reply(self, payload: dict) -> None:
        wire.send_frame(self.wfile, payload)

    def _reply_error(self, message: str) -> None:
        self._reply({"ok": False, "error": message})


class _Server(socketserver.ThreadingTCPServer):
    """The listening socket plus per-worker shared state."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        allow_shutdown: bool,
        module_prefixes: tuple[str, ...],
        bundle_cache: int,
    ):
        super().__init__(address, _SessionHandler)
        self.allow_shutdown = allow_shutdown
        self.module_prefixes = module_prefixes
        self.bundles = _BundleStore(bundle_cache)
        # Server-local and always on: worker telemetry never touches
        # the process-wide switch, so in-thread harness workers cannot
        # leak state across tests.
        self.telemetry = Telemetry()
        # Chunk execution is serialized: one worker process is one
        # compute slot, however many sessions it serves.
        self.exec_lock = threading.Lock()

    def load_bundle(self, data: bytes):
        """Unpickle a fresh context from bundle bytes, timing the
        load into the ``worker.bundle.load`` histogram."""
        t0 = time.perf_counter_ns()
        context = pickle.loads(data)
        self.telemetry.observe(
            "worker.bundle.load",
            time.perf_counter_ns() - t0,
            counter="worker.bundle.loads",
            bytes=len(data),
        )
        return context

    # ------------------------------------------------------------------
    def resolve_chunk_fn(self, spec: str) -> Callable:
        """``"module:qualname"`` -> the module-level chunk function,
        restricted to the configured module prefixes so a client
        cannot name arbitrary callables (``os:system``)."""
        module_name, sep, qualname = spec.partition(":")
        if not sep or not module_name or not qualname:
            raise ValueError(
                f"chunk fn {spec!r} is not of the form module:qualname"
            )
        allowed = any(
            module_name == prefix.rstrip(".")
            or module_name.startswith(prefix)
            for prefix in self.module_prefixes
        )
        if not allowed:
            raise ValueError(
                f"chunk fn module {module_name!r} is outside the "
                f"allowed prefixes {self.module_prefixes}"
            )
        module = importlib.import_module(module_name)
        obj = module
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if not callable(obj):
            raise ValueError(f"chunk fn {spec!r} is not callable")
        return obj

    def run_chunk(self, frame: dict, context) -> dict:
        """Execute one chunk request and shape the reply frame."""
        from repro.obs.coverage import CoverageRecorder
        from repro.obs.switch import activate
        from repro.obs.tracer import Tracer
        from repro.parallel.executor import _run_chunk

        fn = self.resolve_chunk_fn(frame["fn"])
        arg = pickle.loads(wire.decode_bytes(frame["arg"]))
        index = int(frame.get("index", 0))
        # The client's observability flags arrive per request; the
        # throwaway tracer/recorder only switch the facilities on —
        # the chunk's own buffers travel back inside the stats.
        scope = activate(
            Tracer() if frame.get("trace") else None,
            CoverageRecorder() if frame.get("coverage") else None,
        )
        try:
            t0 = time.perf_counter_ns()
            with self.exec_lock, scope:
                outcome = _run_chunk((fn, index, arg), context=context)
            self.telemetry.observe(
                "worker.chunk",
                time.perf_counter_ns() - t0,
                counter="worker.chunks",
                fn=frame["fn"],
                index=index,
            )
            payload = pickle.dumps(
                outcome, protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception as exc:
            detail = traceback.format_exception_only(type(exc), exc)
            return {
                "ok": False,
                "error": "".join(detail).strip(),
            }
        return {"ok": True, "outcome": wire.encode_bytes(payload)}


class WorkerServer:
    """A bound, ready-to-serve ``repro worker``.

    Binding happens in the constructor, so :attr:`port` is final
    before :meth:`serve_forever` is called — harnesses can start the
    loop in a thread and connect immediately.

    Args:
        host: interface to bind (default loopback; see the module
            docstring before binding wider).
        port: port to bind (``0`` picks a free one).
        allow_shutdown: honor the ``shutdown`` op (harness use).
        module_prefixes: module prefixes chunk functions may resolve
            in (tests extend this to their own modules).
        bundle_cache: fingerprint-addressed bundles kept in memory.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        allow_shutdown: bool = False,
        module_prefixes: tuple[str, ...] = ("repro.",),
        bundle_cache: int = DEFAULT_BUNDLE_CACHE,
    ):
        self._server = _Server(
            (host, port), allow_shutdown, module_prefixes, bundle_cache
        )

    @property
    def host(self) -> str:
        """The bound interface."""
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (final at construction time)."""
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        """``host:port``, the form ``--workers-addr`` takes."""
        return f"{self.host}:{self.port}"

    @property
    def telemetry(self) -> Telemetry:
        """This worker's live telemetry registry (always on)."""
        return self._server.telemetry

    def serve_forever(self) -> None:
        """Serve sessions until :meth:`shutdown` (blocking)."""
        with self._server:
            self._server.serve_forever(poll_interval=0.1)

    def serve_in_thread(self) -> threading.Thread:
        """Serve from a daemon thread; returns the started thread."""
        thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from another thread."""
        self._server.shutdown()
