"""Asyncio JSON-lines server over a :class:`SpecRuntime`.

The wire protocol is one JSON object per line, both directions — easy
to drive from any language, ``nc``, or the blocking client in
:mod:`repro.runtime.client`.  Operations::

    {"op": "ping"}
    {"op": "query",  "query": "balance", "params": ["a1"]}
    {"op": "update", "update": "deposit", "params": ["a1"]}
    {"op": "state"}
    {"op": "stats"}
    {"op": "telemetry"}         # live histograms/rates/events
    {"op": "compact"}
    {"op": "shutdown"}          # honored only with allow_shutdown

Responses carry ``"ok": true`` plus the operation's payload, or
``"ok": false`` with an ``"error"`` string.  An *update* response is
``ok`` even when the guards reject it — the request was served; the
admission verdict is the payload's ``"accepted"`` field, with the
:class:`~repro.runtime.guards.GuardViolation` witness under
``"violation"``.

Request handling is synchronous (:meth:`RuntimeServer.handle_request`)
under a single event loop, so updates serialize naturally — the store
needs no locking.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal

from repro.errors import ReproError
from repro.obs.switch import SWITCH
from repro.runtime.service import SpecRuntime

__all__ = ["RuntimeServer", "serve"]


class RuntimeServer:
    """A JSON-lines TCP front end for one :class:`SpecRuntime`.

    Args:
        runtime: the runtime to serve.
        host / port: bind address; port 0 picks a free port (read the
            chosen one from :attr:`port` after :meth:`start`).
        allow_shutdown: honor the ``shutdown`` operation (used by the
            CI smoke; production-style runs stop via signals).
    """

    def __init__(
        self,
        runtime: SpecRuntime,
        host: str = "127.0.0.1",
        port: int = 0,
        allow_shutdown: bool = False,
    ):
        self.runtime = runtime
        self.host = host
        self.port = port
        self.allow_shutdown = allow_shutdown
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # request handling (synchronous; unit-testable without sockets)
    # ------------------------------------------------------------------
    def handle_request(self, request: dict) -> tuple[dict, bool]:
        """Serve one decoded request.

        Returns ``(response, stop)`` — ``stop`` is True when the
        request asks the server to shut down (and may).
        """
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be an object"}, False
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True}, False
            if op == "query":
                value = self.runtime.query(
                    request["query"], request.get("params", [])
                )
                return {"ok": True, "value": value}, False
            if op == "update":
                result = self.runtime.execute(
                    request["update"], request.get("params", [])
                )
                return {"ok": True, **result.to_dict()}, False
            if op == "state":
                cells = [
                    [query, list(params), value]
                    for (query, params), value in sorted(
                        self.runtime.store.cells.items()
                    )
                ]
                return {
                    "ok": True,
                    "seq": self.runtime.seq,
                    "cells": cells,
                }, False
            if op == "stats":
                return {
                    "ok": True,
                    "stats": self.runtime.stats,
                    "metrics": (
                        self.runtime.metrics_registry().to_dict()
                    ),
                }, False
            if op == "telemetry":
                telemetry = SWITCH.telemetry
                if telemetry is None:
                    return {
                        "ok": False,
                        "error": "telemetry is not enabled",
                    }, False
                events = request.get("events", 32)
                return {
                    "ok": True,
                    "application": self.runtime.name,
                    "telemetry": telemetry.snapshot(events=events),
                }, False
            if op == "compact":
                self.runtime.compact()
                return {"ok": True, "seq": self.runtime.seq}, False
            if op == "shutdown":
                if not self.allow_shutdown:
                    return {
                        "ok": False,
                        "error": "shutdown is not enabled",
                    }, False
                return {"ok": True, "bye": True}, True
            return {"ok": False, "error": f"unknown op {op!r}"}, False
        except (ReproError, KeyError, TypeError) as exc:
            return {"ok": False, "error": str(exc)}, False

    # ------------------------------------------------------------------
    # asyncio plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while not self._stopping.is_set():
                line = await reader.readline()
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    request = json.loads(text)
                except ValueError:
                    response, stop = {
                        "ok": False,
                        "error": "invalid JSON",
                    }, False
                else:
                    response, stop = self.handle_request(request)
                writer.write(
                    (json.dumps(response) + "\n").encode("utf-8")
                )
                await writer.drain()
                if stop:
                    self._stopping.set()
                    break
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        """Run until a shutdown request or :meth:`stop` arrives, then
        close the listener and flush the runtime's journal."""
        if self._server is None:
            await self.start()
        try:
            await self._stopping.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            self.runtime.close()

    def stop(self) -> None:
        """Request a graceful stop (signal-handler safe)."""
        self._stopping.set()


def serve(
    runtime: SpecRuntime,
    host: str = "127.0.0.1",
    port: int = 0,
    allow_shutdown: bool = False,
    ready: "callable | None" = None,
    install_signal_handlers: bool = True,
) -> int:
    """Blocking entry point: serve ``runtime`` until stopped.

    ``ready(server)`` is called once the socket is bound (the CLI
    prints the ready line there).  Returns the process exit code.
    """

    async def _run() -> None:
        server = RuntimeServer(
            runtime, host, port, allow_shutdown=allow_shutdown
        )
        await server.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(
                    NotImplementedError, RuntimeError
                ):
                    loop.add_signal_handler(signum, server.stop)
        if ready is not None:
            ready(server)
        await server.serve_until_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        runtime.close()
    return 0
