"""Pluggable executor backends behind one chunk-dispatch interface.

The :class:`~repro.parallel.executor.ParallelExecutor` owns the merge
discipline (results in submission order, stats/spans/coverage absorbed
exactly once); *where* the chunks actually run is this module's
business.  Three backends ship:

``inline``
    No processes.  Chunks run in the calling process, each against the
    virtual worker's own unpickled copy of the context, in submission
    order.
``fork``
    One forked process per virtual worker (POSIX only), each holding
    its own unpickled copy of the context.  Falls back to inheriting
    the live context by copy-on-write when the context does not
    pickle, and degrades to the in-process loop when process creation
    fails.
``socket``
    Remote ``repro worker`` processes reached over TCP with the
    length-prefixed JSON frames of :mod:`repro.parallel.wire`.  The
    context ships once per session as a fingerprint-addressed pickle
    bundle; chunk calls and their stats/span/coverage payloads travel
    per request.

**The virtual-worker determinism model.**  A pool of ``W`` virtual
workers assigns chunk ``i`` of a batch to worker ``i mod W`` —
statically, never by who finishes first.  Each virtual worker starts
from the same *bundle* (``pickle.loads(pickle.dumps(context))``), so
its rewrite-memo warmth is a pure function of the bundle and the chunk
subsequence it processes.  Chunk results are backend-independent
(they are merged in submission order); with static assignment and
bundle-cold workers the per-chunk counters (``cache_hits``,
``cache_misses``, ``rewrite_steps``, ``dispatch_hits``) become
backend-independent too: inline, fork and socket report identical
stats for the same ``workers`` count.  Two counters stay *ambient* —
``wall_time`` (timing) and ``interned_terms`` (growth of the
process-wide intern table, which depends on what else ran in the
worker process) — and are excluded from cross-backend identity gates.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import pickle
import socket as socketlib
import threading
from typing import Any, Sequence

__all__ = [
    "ExecutorBackend",
    "InlineBackend",
    "ForkBackend",
    "SocketBackend",
    "ExecutorBackendError",
    "ChunkError",
    "BACKEND_NAMES",
    "make_backend",
    "resolve_backend",
    "active_backend",
    "use_backend",
    "bundle_context",
    "parse_address",
]

#: The CLI vocabulary of ``--backend``.
BACKEND_NAMES = ("inline", "fork", "socket")


class ExecutorBackendError(RuntimeError):
    """A backend cannot be built or cannot serve the request."""


class ChunkError(RuntimeError):
    """A chunk failed in a worker and the failure could not be
    re-raised as its original exception type."""


def bundle_context(context: Any) -> bytes | None:
    """The context's pickle bundle, or ``None`` when it does not
    pickle (lambdas, open handles); callers then choose their
    fallback — copy-on-write inheritance for ``fork``, the live
    in-process loop for ``inline``, a hard error for ``socket``."""
    try:
        return pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


def bundle_fingerprint(bundle: bytes) -> str:
    """Content address of a context bundle (SHA-256 hex)."""
    return hashlib.sha256(bundle).hexdigest()


def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``, with a readable error."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ExecutorBackendError(
            f"worker address {text!r} is not of the form host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ExecutorBackendError(
            f"worker address {text!r} has a non-numeric port"
        ) from None
    return host, port


def _ship_exception(exc: BaseException) -> BaseException | str:
    """An exception in a form that survives the trip to the parent."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return f"{type(exc).__name__}: {exc}"


def _raise_shipped(shipped: BaseException | str) -> None:
    if isinstance(shipped, BaseException):
        raise shipped
    raise ChunkError(shipped)


def _order_outcomes(
    slots: list, total: int
) -> list[tuple[Any, Any]]:
    """Unpack ``("ok", outcome) | ("err", shipped)`` slots in global
    submission order, re-raising the earliest failure."""
    outcomes = []
    for index in range(total):
        slot = slots[index]
        if slot is None:
            raise ChunkError(
                f"chunk {index} was never executed (its worker "
                "stopped after an earlier failure)"
            )
        tag, value = slot
        if tag != "ok":
            _raise_shipped(value)
        outcomes.append(value)
    return outcomes


# ---------------------------------------------------------------------
# the backend interface
# ---------------------------------------------------------------------
class ExecutorBackend:
    """Where chunks run.  One instance is stateless and reusable; the
    per-``ParallelExecutor`` state lives in the pool it opens."""

    name = "abstract"

    def open_pool(self, workers: int, context: Any):
        """A pool of ``workers`` virtual workers bound to ``context``,
        or ``None`` to degrade to the executor's in-process loop over
        the live context (the historical fork-unavailable path)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------
# inline: virtual workers in the calling process
# ---------------------------------------------------------------------
class _InlinePending:
    """Chunks queued on an inline pool; they run at :meth:`wait` time
    (matching the historical collect-time semantics of the in-process
    path, which lets callers overlap their own work first)."""

    def __init__(self, contexts: list, payloads: Sequence[tuple]):
        self._contexts = contexts
        self._payloads = payloads

    def wait(self) -> list:
        from repro.parallel.executor import _run_chunk

        count = len(self._contexts)
        return [
            _run_chunk(payload, context=self._contexts[index % count])
            for index, payload in enumerate(self._payloads)
        ]


class _InlinePool:
    """W unpickled context copies, no processes."""

    def __init__(self, workers: int, bundle: bytes):
        self._contexts = [
            pickle.loads(bundle) for _ in range(workers)
        ]

    def submit(self, payloads: Sequence[tuple]) -> _InlinePending:
        return _InlinePending(self._contexts, payloads)

    def close(self) -> None:
        self._contexts = []


class InlineBackend(ExecutorBackend):
    """Chunks run in-process, one bundle copy per virtual worker, so
    the stats match ``fork``/``socket`` at the same worker count.  An
    unpicklable context degrades to the live-context loop."""

    name = "inline"

    def open_pool(self, workers: int, context: Any):
        bundle = bundle_context(context)
        if bundle is None:
            return None
        return _InlinePool(workers, bundle)


# ---------------------------------------------------------------------
# fork: one long-lived forked process per virtual worker
# ---------------------------------------------------------------------
def _fork_worker_main(conn, bundle: bytes | None) -> None:
    """Forked child: serve chunk batches over the pipe until EOF.

    With a bundle, the child replaces its inherited context slot with
    its own cold unpickled copy (the determinism model); without one
    (unpicklable context) it keeps the copy-on-write inherited live
    context.
    """
    from repro.parallel import executor as executor_module

    if bundle is not None:
        executor_module._CONTEXT = pickle.loads(bundle)
    while True:
        try:
            batch = conn.recv()
        except EOFError:
            break
        if batch is None:
            break
        outcomes = []
        for payload in batch:
            try:
                outcomes.append(
                    ("ok", executor_module._run_chunk(payload))
                )
            except BaseException as exc:
                outcomes.append(("err", _ship_exception(exc)))
            # A check leaves cyclic garbage behind (memo tables, term
            # graphs); freeing it before the next chunk keeps a
            # worker's peak memory at its largest chunk's, not at the
            # sum of its chunks'.
            gc.collect()
        try:
            conn.send(outcomes)
        except Exception as exc:
            # A result that does not pickle: report the batch as
            # failed rather than dying and stranding the parent.
            conn.send(
                [
                    ("err", f"chunk outcome not picklable: {exc}")
                    for _ in batch
                ]
            )
    conn.close()


def _spawn_fork_worker(mp_context, conn, bundle: bytes | None):
    """Create and start one worker process (module-level so tests can
    monkeypatch it to force the process-creation-failure path)."""
    process = mp_context.Process(
        target=_fork_worker_main, args=(conn, bundle), daemon=True
    )
    process.start()
    return process


class _ForkPool:
    """W forked worker processes, one duplex pipe each."""

    def __init__(self, members: list):
        self._members = members  # [(process, parent_conn)]
        self._pending: _ForkPending | None = None

    def submit(self, payloads: Sequence[tuple]) -> "_ForkPending":
        count = len(self._members)
        assignment: list[list[int]] = [[] for _ in range(count)]
        for index in range(len(payloads)):
            assignment[index % count].append(index)
        for worker, indices in enumerate(assignment):
            if indices:
                _, conn = self._members[worker]
                conn.send([payloads[index] for index in indices])
        self._pending = _ForkPending(
            self._members, assignment, len(payloads)
        )
        return self._pending

    def close(self) -> None:
        if self._pending is not None and not self._pending.done:
            # The caller raised before collecting its batch: nobody
            # will read the replies, so stop the workers now instead
            # of waiting for them to finish.
            for process, _ in self._members:
                process.terminate()
        for process, conn in self._members:
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
        for process, conn in self._members:
            try:
                conn.close()
            except OSError:
                pass
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5)
        self._members = []


class _ForkPending:
    """A submitted batch awaiting its per-worker replies."""

    def __init__(self, members, assignment, total: int):
        self._members = members
        self._assignment = assignment
        self._total = total
        self.done = False

    def wait(self) -> list:
        self.done = True
        slots: list = [None] * self._total
        for worker, indices in enumerate(self._assignment):
            if not indices:
                continue
            process, conn = self._members[worker]
            try:
                outcomes = conn.recv()
            except EOFError:
                raise ChunkError(
                    f"fork worker {worker} died before returning its "
                    f"{len(indices)} chunk(s)"
                ) from None
            for index, outcome in zip(indices, outcomes):
                slots[index] = outcome
        return _order_outcomes(slots, self._total)


class ForkBackend(ExecutorBackend):
    """One forked process per virtual worker with a pipe each and
    static chunk assignment (chunk ``i`` -> worker ``i mod W``).

    The context travels as a pickle bundle so every worker starts
    memo-cold and deterministic; an unpicklable context falls back to
    copy-on-write inheritance of the live parent context (results
    still deterministic — only the counters then depend on the
    parent's memo warmth).  Platforms without ``fork`` or failed
    process creation degrade to ``None`` (the executor's in-process
    live-context loop).
    """

    name = "fork"

    def open_pool(self, workers: int, context: Any):
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:
            return None
        bundle = bundle_context(context)
        members: list = []
        try:
            for _ in range(workers):
                parent_conn, child_conn = mp_context.Pipe()
                process = _spawn_fork_worker(
                    mp_context, child_conn, bundle
                )
                child_conn.close()
                members.append((process, parent_conn))
        except (ValueError, OSError):
            for process, conn in members:
                try:
                    conn.close()
                except OSError:
                    pass
                process.terminate()
                process.join(timeout=5)
            return None
        return _ForkPool(members)


# ---------------------------------------------------------------------
# socket: remote `repro worker` processes over TCP
# ---------------------------------------------------------------------
class _WorkerSession:
    """One bound session on a remote worker: hello, bundle, chunks.

    Each session is its own virtual worker — the remote end unpickles
    a fresh context per session, so determinism survives sessions
    sharing one worker process.
    """

    def __init__(self, sock, rfile, wfile, address: tuple[str, int]):
        self._sock = sock
        self._rfile = rfile
        self._wfile = wfile
        self.address = address

    @classmethod
    def connect(
        cls,
        address: tuple[str, int],
        fingerprint: str,
        bundle: bytes,
        timeout: float = 30.0,
    ) -> "_WorkerSession":
        from repro.parallel import wire

        host, port = address
        try:
            sock = socketlib.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise ExecutorBackendError(
                f"cannot reach worker at {host}:{port}: {exc}"
            ) from exc
        # Chunks may run long; only the handshake keeps a timeout.
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        session = cls(sock, rfile, wfile, address)
        try:
            reply = session._call(
                {"op": "hello", "version": wire.PROTOCOL_VERSION}
            )
            if reply.get("version") != wire.PROTOCOL_VERSION:
                raise ExecutorBackendError(
                    f"worker at {host}:{port} speaks protocol "
                    f"{reply.get('version')!r}, this client speaks "
                    f"{wire.PROTOCOL_VERSION}"
                )
            reply = session._call(
                {"op": "bind", "fingerprint": fingerprint}
            )
            if not reply.get("have"):
                session._call(
                    {
                        "op": "bundle",
                        "fingerprint": fingerprint,
                        "data": wire.encode_bytes(bundle),
                    }
                )
            sock.settimeout(None)
        except BaseException:
            session.close(polite=False)
            raise
        return session

    def _call(self, request: dict) -> dict:
        from repro.parallel import wire

        wire.send_frame(self._wfile, request)
        reply = wire.recv_frame(self._rfile)
        host, port = self.address
        if reply is None:
            raise ExecutorBackendError(
                f"worker at {host}:{port} closed the connection "
                f"during {request.get('op')!r}"
            )
        if not reply.get("ok"):
            raise ChunkError(
                f"worker at {host}:{port} rejected "
                f"{request.get('op')!r}: {reply.get('error')}"
            )
        return reply

    def run_chunk(
        self, payload: tuple, trace: bool, coverage: bool
    ) -> bytes:
        """Execute one ``(fn, index, arg)`` payload remotely and return
        the pickled outcome, undecoded: unpickling re-interns terms
        into process-wide tables, which only the thread that owns them
        may do (see :meth:`_SocketPending.wait`)."""
        from repro.parallel import wire

        fn, index, arg = payload
        reply = self._call(
            {
                "op": "chunk",
                "fn": f"{fn.__module__}:{fn.__qualname__}",
                "index": index,
                "arg": wire.encode_bytes(
                    pickle.dumps(arg, protocol=pickle.HIGHEST_PROTOCOL)
                ),
                "trace": trace,
                "coverage": coverage,
            }
        )
        return wire.decode_bytes(reply["outcome"])

    def interrupt(self) -> None:
        """Wake a sender thread blocked on this session's socket (the
        batch it serves was abandoned)."""
        try:
            self._sock.shutdown(socketlib.SHUT_RDWR)
        except OSError:
            pass

    def close(self, polite: bool = True) -> None:
        from repro.parallel import wire

        if polite:
            try:
                wire.send_frame(self._wfile, {"op": "bye"})
                wire.recv_frame(self._rfile)
            except (OSError, ConnectionError):
                pass
        for closer in (self._rfile, self._wfile, self._sock):
            try:
                closer.close()
            except OSError:
                pass


class _SocketPending:
    """Per-session sender threads working through their chunk lists.

    The threads only move bytes; the outcomes are unpickled here, in
    the thread that collects them.  Unpickling re-interns terms into
    the process-wide tables (``App.__new__`` checks the table, then
    sets it), which must not race with the caller's own checks.
    """

    def __init__(self, threads: list, slots: list, total: int):
        self._threads = threads
        self._slots = slots
        self._total = total
        self.done = False

    def wait(self) -> list:
        self.done = True
        for thread in self._threads:
            thread.join()
        return [
            pickle.loads(raw)
            for raw in _order_outcomes(self._slots, self._total)
        ]

    def abandon(self) -> None:
        """Let the sender threads finish without their outcomes (their
        sessions were interrupted)."""
        self.done = True
        for thread in self._threads:
            thread.join(5.0)


class _SocketPool:
    """W sessions sharded over the configured worker addresses."""

    def __init__(self, sessions: list):
        self._sessions = sessions
        self._pending: _SocketPending | None = None

    def submit(self, payloads: Sequence[tuple]) -> _SocketPending:
        from repro.obs.switch import SWITCH

        # The observability flags are captured at submission time and
        # shipped with every chunk request: remote workers cannot
        # inherit them the way forked children do.
        trace = SWITCH.tracer is not None
        coverage = SWITCH.coverage is not None
        count = len(self._sessions)
        assignment: list[list[int]] = [[] for _ in range(count)]
        for index in range(len(payloads)):
            assignment[index % count].append(index)
        slots: list = [None] * len(payloads)

        def drive(session: _WorkerSession, indices: list[int]) -> None:
            for index in indices:
                try:
                    outcome = session.run_chunk(
                        payloads[index], trace, coverage
                    )
                except BaseException as exc:
                    slots[index] = ("err", _ship_exception(exc))
                    return
                slots[index] = ("ok", outcome)

        threads = []
        for session, indices in zip(self._sessions, assignment):
            if not indices:
                continue
            thread = threading.Thread(
                target=drive, args=(session, indices), daemon=True
            )
            thread.start()
            threads.append(thread)
        self._pending = _SocketPending(threads, slots, len(payloads))
        return self._pending

    def close(self) -> None:
        abandoned = self._pending is not None and not self._pending.done
        if abandoned:
            # The caller raised before collecting its batch: wake the
            # sender threads (a polite bye would race them for the
            # replies on the same sockets) and drop the sessions.
            for session in self._sessions:
                session.interrupt()
            self._pending.abandon()
        for session in self._sessions:
            session.close(polite=not abandoned)
        self._sessions = []


class SocketBackend(ExecutorBackend):
    """Chunks run on remote ``repro worker`` processes over TCP.

    ``W`` virtual workers over ``M`` addresses open ``W`` sessions,
    round-robin over the addresses; each session binds its own fresh
    copy of the fingerprint-addressed context bundle, so any
    worker-process topology reports the same stats as ``inline`` and
    ``fork`` at the same ``workers`` count.

    The transport pickles arguments and results: point it only at
    workers you trust, on networks you trust (the shipped worker binds
    ``127.0.0.1`` by default).
    """

    name = "socket"

    def __init__(self, addresses: Sequence[str | tuple[str, int]]):
        parsed = []
        for address in addresses:
            if isinstance(address, str):
                parsed.append(parse_address(address))
            else:
                parsed.append((address[0], int(address[1])))
        if not parsed:
            raise ExecutorBackendError(
                "socket backend needs at least one worker address"
            )
        self.addresses: tuple[tuple[str, int], ...] = tuple(parsed)

    def open_pool(self, workers: int, context: Any):
        bundle = bundle_context(context)
        if bundle is None:
            raise ExecutorBackendError(
                "socket backend requires a picklable context "
                "(this context cannot be shipped to remote workers)"
            )
        fingerprint = bundle_fingerprint(bundle)
        sessions: list[_WorkerSession] = []
        try:
            for index in range(workers):
                address = self.addresses[index % len(self.addresses)]
                sessions.append(
                    _WorkerSession.connect(
                        address, fingerprint, bundle
                    )
                )
        except BaseException:
            for session in sessions:
                session.close(polite=False)
            raise
        return _SocketPool(sessions)


# ---------------------------------------------------------------------
# registry and the active-backend scope
# ---------------------------------------------------------------------
_FORK = ForkBackend()
_INLINE = InlineBackend()

#: The scope-active backend (``use_backend``); ``None`` = default fork.
_ACTIVE: ExecutorBackend | None = None


def make_backend(
    name: str, addresses: Sequence[str] | None = None
) -> ExecutorBackend:
    """Build a backend from its CLI name (and worker addresses)."""
    if name == "inline":
        return _INLINE
    if name == "fork":
        return _FORK
    if name == "socket":
        if not addresses:
            raise ExecutorBackendError(
                "the socket backend needs at least one worker "
                "address (--workers-addr HOST:PORT)"
            )
        return SocketBackend(addresses)
    raise ExecutorBackendError(
        f"unknown executor backend {name!r} "
        f"(expected one of: {', '.join(BACKEND_NAMES)})"
    )


def active_backend() -> ExecutorBackend:
    """The backend chunk dispatch currently resolves to."""
    return _ACTIVE if _ACTIVE is not None else _FORK


def resolve_backend(
    spec: "ExecutorBackend | str | None" = None,
) -> ExecutorBackend:
    """``None`` -> the active backend; a name -> the registry; an
    instance -> itself."""
    if spec is None:
        return active_backend()
    if isinstance(spec, str):
        return make_backend(spec)
    return spec


class use_backend:
    """Scope the active backend: every executor opened under the
    scope that does not name a backend explicitly uses this one.
    ``use_backend(None)`` is a no-op scope, so callers can thread an
    optional backend without branching."""

    def __init__(self, backend: "ExecutorBackend | str | None"):
        self._backend = (
            resolve_backend(backend) if backend is not None else None
        )
        self._saved: ExecutorBackend | None = None

    def __enter__(self) -> "ExecutorBackend | None":
        global _ACTIVE
        self._saved = _ACTIVE
        if self._backend is not None:
            _ACTIVE = self._backend
        return self._backend

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = self._saved
        self._saved = None
