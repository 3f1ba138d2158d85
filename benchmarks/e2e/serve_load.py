"""The serve workloads: ``repro serve bank`` driven over loopback.

One client connection drives a closed loop: ``serve-read`` keeps one
request outstanding, ``serve-write`` a window of 32.  Requests are
generated from the seed in segments of fixed size; before a segment is
sent, the same requests are replayed through an in-process
``make_runtime("bank")`` to get the expected replies, and after it the
parsed replies are compared with them.  One operation is one request.

The kernel of ``speed.py`` runs on the client's and the server's CPU
between segments, while the server is idle, and each segment's times
are scaled to the reference speed with the runs on either side of it.
"""

from __future__ import annotations

import functools
import json
import os
import random
import socket
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import (
    HERE,
    Child,
    HarnessError,
    Outcome,
    cpu_split,
    median,
    percentile,
)
from serve_host import SAMPLE_EVERY
from speed import kernel_seconds, scaled

APP = "bank"
ACCOUNTS = ("a1", "a2")
QUERIES = ("balance", "open")
UPDATES = ("open_account", "close_account", "deposit", "withdraw")
#: workload -> (share of queries, requests in flight)
SETTINGS = {"serve-read": (0.8, 1), "serve-write": (0.0, 32)}
#: Requests per segment: short enough for a median over dozens of
#: segments and for the host's speed to hold still over one, long
#: enough for 500 samples beyond each segment's p90.
SEGMENT = 5_000
QUICK_SEGMENT = 2_000
#: Segments sent and checked before the measured ones: the first
#: requests of a session warm the server's and the client's caches.
WARMUP_SEGMENTS = 1
#: Spawns whose spawn-to-ready times give setup_s.
SETUP_SPAWNS = 5
READY_TIMEOUT = 60.0
IO_TIMEOUT = 20.0


# ---------------------------------------------------------------------
# requests, the wire codec and the reference replies
# ---------------------------------------------------------------------
def make_stream(workload: str, rng: random.Random, count: int) -> list:
    """``count`` requests as ``(op, name, account)`` triples."""
    query_share = SETTINGS[workload][0]
    stream = []
    for _ in range(count):
        if rng.random() < query_share:
            stream.append(("query", rng.choice(QUERIES), rng.choice(ACCOUNTS)))
        else:
            stream.append(
                ("update", rng.choice(UPDATES), rng.choice(ACCOUNTS))
            )
    return stream


def encode(payload: dict) -> bytes:
    """One request on the wire.  With :func:`decode_reply`, the only
    code that knows the protocol's byte format."""
    return (json.dumps(payload) + "\n").encode("utf-8")


def decode_reply(line: bytes) -> dict:
    """One reply off the wire (``ValueError`` if it is not JSON)."""
    reply = json.loads(line)
    if not isinstance(reply, dict):
        raise ValueError("reply is not an object")
    return reply


def request_payload(item) -> dict:
    """The request object of one stream item."""
    op, name, account = item
    return {"op": op, op: name, "params": [account]}


@functools.cache
def wire_request(item) -> bytes:
    """One stream item on the wire.  A stream holds a dozen distinct
    items, so each is encoded once rather than per request."""
    return encode(request_payload(item))


def expected_replies(oracle, items) -> list[tuple]:
    """The fields each reply must carry, from the in-process runtime."""
    expected = []
    for op, name, account in items:
        if op == "update":
            result = oracle.execute(name, (account,))
            expected.append((True, result.accepted, result.seq))
        else:
            expected.append((True, oracle.query(name, (account,))))
    return expected


def observed(item, reply: dict) -> tuple:
    """The compared fields of one parsed reply."""
    if item[0] == "update":
        return (reply.get("ok"), reply.get("accepted"), reply.get("seq"))
    return (reply.get("ok"), reply.get("value"))


def expected_state(oracle) -> dict:
    """What the ``state`` op must answer."""
    return {
        "ok": True,
        "seq": oracle.seq,
        "cells": [
            [query, list(params), value]
            for (query, params), value in sorted(oracle.store.cells.items())
        ],
    }


# ---------------------------------------------------------------------
# the server process and the client
# ---------------------------------------------------------------------
class Server:
    """One spawned server; ``ready_s`` is spawn to ready line, and
    :meth:`Spawner.start` sets ``setup_s``, the same at the reference
    speed."""

    setup_s = 0.0

    def __init__(
        self,
        argv: list[str],
        port_file: Path,
        stderr: Path,
        data_dir: Path | None,
        trace_out: Path | None,
        cpus: set[int] | None,
    ):
        self.data_dir = data_dir
        self.trace_out = trace_out
        self.child = Child(argv, stderr, cpus)
        try:
            line = self.child.readline(READY_TIMEOUT)
            self.ready_s = time.perf_counter() - self.child.started
            if not line.startswith("serving "):
                raise HarnessError(f"unexpected ready line {line!r}")
            self.port = read_port(port_file)
        except BaseException:
            self.child.stop(timeout=0)
            raise

    def vm_hwm_mb(self) -> float:
        """The server's peak resident memory so far."""
        status = Path(f"/proc/{self.child.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise HarnessError("no VmHWM in the server's status")


def read_port(path: Path) -> int:
    """The port from a port file (written just after the ready line)."""
    deadline = time.monotonic() + READY_TIMEOUT
    while time.monotonic() < deadline:
        if path.exists():
            text = path.read_text()
            if text.endswith("\n"):
                return int(text)
        time.sleep(0.001)
    raise HarnessError(f"port file {path.name} was not written")


class Connection:
    """The client's one connection."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=IO_TIMEOUT
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        """Close the socket."""
        self.sock.close()

    def call(self, payload: dict) -> dict:
        """One request, one parsed reply."""
        _, lines, _ = self.drive([encode(payload)], 1)
        return decode_reply(lines[0])

    def drive(self, payloads: list[bytes], window: int):
        """Send ``payloads`` keeping ``window`` in flight; returns the
        per-request latencies (ns), the reply lines and the elapsed ns."""
        sock = self.sock
        clock = time.perf_counter_ns
        total = len(payloads)
        sent_at = [0] * total
        latencies = [0] * total
        lines: list[bytes] = []
        sent = done = 0
        buffer = self._buffer
        started = clock()
        while done < total:
            refill = min(done + window, total) - sent
            if refill > 0:
                now = clock()
                sock.sendall(b"".join(payloads[sent : sent + refill]))
                for index in range(sent, sent + refill):
                    sent_at[index] = now
                sent += refill
            chunk = sock.recv(1 << 18)
            if not chunk:
                raise HarnessError("server closed the connection")
            now = clock()
            buffer += chunk
            *complete, buffer = buffer.split(b"\n")
            for line in complete:
                latencies[done] = now - sent_at[done]
                lines.append(line)
                done += 1
        self._buffer = buffer
        return latencies, lines, clock() - started


# ---------------------------------------------------------------------
# one session: spawn-to-shutdown against one server
# ---------------------------------------------------------------------
@dataclass
class Session:
    """One server's measurements."""

    setup_s: float
    #: (ops/s, p50 ms, p90 ms) of each measured segment, scaled to the
    #: reference speed.
    segments: list[tuple[float, float, float]] = field(default_factory=list)
    #: Client latency (ns) of every sampled request, by request id.
    sampled: dict[int, int] = field(default_factory=dict)
    latency_ns: int = 0
    requests: int = 0
    updates: int = 0
    rejected: int = 0
    rss_mb: float = 0.0
    #: The server's own latency histograms (traced sessions).
    histograms: dict = field(default_factory=dict)
    journal_bytes: int = 0

    @property
    def ops_s(self) -> float:
        """Median requests per second over the segments."""
        return median(row[0] for row in self.segments)


class Spawner:
    """Starts servers in the scratch directory and kills any left.

    Servers run on ``cpus``; the host speed is taken on
    ``speed_cpus``, the client's and the server's CPUs.
    """

    def __init__(
        self,
        workload: str,
        workdir: Path,
        cpus: set[int] | None,
        speed_cpus: set[int] | None,
    ):
        self.workload = workload
        self.workdir = workdir
        self.cpus = cpus
        self.speed_cpus = speed_cpus
        self.count = 0
        self.live: list[Server] = []

    def kernel_seconds(self) -> float:
        """The host speed on the client's and the server's CPUs."""
        return kernel_seconds(self.speed_cpus)

    def start(self, traced: bool, data_dir: Path | None) -> Server:
        """Spawn ``repro serve`` (through the traced host when
        ``traced``) and wait until it is ready."""
        before = self.kernel_seconds()
        self.count += 1
        tag = f"server{self.count}"
        port_file = self.workdir / f"{tag}.port"
        trace_out = None
        entry = ["-m", "repro"]
        if traced:
            trace_out = self.workdir / f"{tag}.trace.json"
            entry = [str(HERE / "serve_host.py"), "--trace-out"]
            entry.append(str(trace_out))
        argv = [sys.executable, *entry, "serve", APP, "--allow-shutdown"]
        argv += ["--port-file", str(port_file)]
        if data_dir is not None:
            argv += ["--data-dir", str(data_dir)]
        server = Server(
            argv, port_file, self.workdir / f"{tag}.stderr", data_dir,
            trace_out, self.cpus,
        )
        self.live.append(server)
        server.setup_s = scaled(server.ready_s, before, self.kernel_seconds())
        return server

    def data_dir(self) -> Path | None:
        """A fresh journal directory for serve-write, else ``None``."""
        if self.workload != "serve-write":
            return None
        return self.workdir / f"data{self.count + 1}"

    def stop(self, server: Server, connection: Connection | None) -> None:
        """Shut a server down through the protocol (or SIGTERM)."""
        self.live.remove(server)
        try:
            if connection is not None:
                reply = connection.call({"op": "shutdown"})
                if not reply.get("ok"):
                    raise HarnessError(f"shutdown refused: {reply}")
            else:
                server.child.proc.terminate()
        finally:
            code = server.child.stop(timeout=60)
        if code != 0:
            raise HarnessError(f"server exited with code {code}")

    def kill_all(self) -> None:
        """Kill every server still running."""
        for server in self.live:
            server.child.stop(timeout=0)
        self.live.clear()


def run_session(
    spawner: Spawner,
    server: Server,
    rng: random.Random,
    deadline: float,
    min_segments: int,
    segment: int,
    outcome: Outcome,
    traced: bool = False,
) -> Session:
    """Drive one server with segments until ``deadline`` (a
    ``time.monotonic`` value) and at least ``min_segments`` after the
    warm-up ones, check every reply and the final state, then shut it
    down."""
    from repro.runtime.apps import make_runtime

    workload = spawner.workload
    window = SETTINGS[workload][1]
    oracle = make_runtime(APP)
    session = Session(setup_s=server.setup_s)
    connection = Connection(server.port)
    try:
        warmup = WARMUP_SEGMENTS
        before = spawner.kernel_seconds()
        while (
            warmup
            or len(session.segments) < min_segments
            or time.monotonic() < deadline
        ):
            items = make_stream(workload, rng, segment)
            expected = expected_replies(oracle, items)
            payloads = [wire_request(item) for item in items]
            outcome.attempted += len(items)
            try:
                latencies, lines, elapsed = connection.drive(payloads, window)
            except (OSError, HarnessError) as exc:
                outcome.fail(len(items), f"segment aborted: {exc}")
                raise HarnessError("connection lost") from exc
            after = spawner.kernel_seconds()
            if warmup:
                warmup -= 1
            else:
                session.segments.append(
                    (
                        len(items) / scaled(elapsed / 1e9, before, after),
                        scaled(percentile(latencies, 50) / 1e6, before, after),
                        scaled(percentile(latencies, 90) / 1e6, before, after),
                    )
                )
            before = after
            for index, (item, want, line) in enumerate(
                zip(items, expected, lines)
            ):
                try:
                    got = observed(item, decode_reply(line))
                except ValueError:
                    got = None
                if got != want:
                    outcome.fail(
                        1,
                        f"request {session.requests + index} {item}: "
                        f"expected {want}, got {got}",
                    )
            if traced:
                base = session.requests
                first = -base % SAMPLE_EVERY
                for index in range(first, len(items), SAMPLE_EVERY):
                    session.sampled[base + index] = latencies[index]
            session.requests += len(items)
            session.latency_ns += sum(latencies)
            session.updates += sum(1 for item in items if item[0] == "update")
            session.rejected += sum(
                1
                for item, want in zip(items, expected)
                if item[0] == "update" and not want[1]
            )
        check_state(connection, oracle, outcome, "final state")
        if traced:
            reply = connection.call({"op": "telemetry", "events": 0})
            session.histograms = reply.get("telemetry", {}).get(
                "histograms", {}
            )
        session.rss_mb = server.vm_hwm_mb()
        spawner.stop(server, connection)
    finally:
        connection.close()
    if server.data_dir is not None:
        journal = server.data_dir / "journal.jsonl"
        session.journal_bytes = journal.stat().st_size
        # Durability: a restart on the same journal must recover the
        # state every acknowledged write produced.
        restarted = spawner.start(False, server.data_dir)
        connection = Connection(restarted.port)
        try:
            check_state(connection, oracle, outcome, "state after restart")
            spawner.stop(restarted, connection)
        finally:
            connection.close()
    return session


def check_state(connection, oracle, outcome: Outcome, label: str) -> None:
    """The ``state`` op must equal the reference runtime's cells."""
    outcome.attempted += 1
    reply = connection.call({"op": "state"})
    if reply != expected_state(oracle):
        outcome.fail(1, f"{label} differs from the reference runtime")


# ---------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------
def run(workload, seed, seconds, trace, quick, workdir) -> Outcome:
    """Measure one serve workload: its set-up spawns, warm-up and
    measured segments take ``seconds`` of wall time, and the final
    checks and shutdown follow."""
    rng = random.Random(seed)
    segment = QUICK_SEGMENT if quick else SEGMENT
    min_segments = 1 if quick else 3
    outcome = Outcome()
    split = cpu_split()
    spawner = Spawner(
        workload, workdir, split and split[1], split and split[0] | split[1]
    )
    own_cpus = os.sched_getaffinity(0)
    if split is not None:
        os.sched_setaffinity(0, split[0])
    started = time.monotonic()
    try:
        if trace:
            # Half the time untraced, half traced: trace_overhead
            # compares the two.
            server = spawner.start(False, spawner.data_dir())
            plain = run_session(
                spawner, server, rng, started + seconds / 2, min_segments,
                segment, outcome,
            )
            host = spawner.start(True, spawner.data_dir())
            traced = run_session(
                spawner, host, rng, started + seconds, min_segments,
                segment, outcome, traced=True,
            )
            trace_data = json.loads(host.trace_out.read_text())
            outcome.layers = layers(trace_data, traced, plain)
            outcome.notes = attribution(trace_data, traced.histograms)
            setup = [plain.setup_s]
        else:
            setup = []
            for _ in range(0 if quick else SETUP_SPAWNS - 1):
                spare = spawner.start(False, spawner.data_dir())
                setup.append(spare.setup_s)
                spawner.stop(spare, None)
            server = spawner.start(False, spawner.data_dir())
            setup.append(server.setup_s)
            plain = run_session(
                spawner, server, rng, started + seconds, min_segments,
                segment, outcome,
            )
    except (HarnessError, OSError, ValueError) as exc:
        # The spawn, segment or shutdown that failed counts as one
        # failed operation (an aborted segment also failed its
        # requests).
        outcome.attempted += 1
        outcome.fail(1, str(exc))
        return outcome
    finally:
        spawner.kill_all()
        os.sched_setaffinity(0, own_cpus)
    outcome.metrics = {
        "setup_s": median(setup),
        "ops_s": plain.ops_s,
        "p50_ms": median(row[1] for row in plain.segments),
        "p90_ms": median(row[2] for row in plain.segments),
        "peak_rss_mb": plain.rss_mb,
    }
    return outcome


# ---------------------------------------------------------------------
# per-layer metrics from the host's trace
# ---------------------------------------------------------------------
#: Traced layers reported as ``<layer>_us``: the wrapped call's duration.
STAGES = (
    "runtime.server.handle",
    "runtime.server.decode",
    "runtime.server.encode",
    "runtime.service.execute",
    "runtime.service.query",
    "runtime.state.plan",
    "runtime.state.writes",
    "runtime.state.commit",
    "runtime.journal.append",
    "runtime.journal.flush",
    "obs.telemetry.observe",
)
#: Call counts with their own names in place of ``<base>.count``.
COUNT_NAMES = {
    "runtime.journal.flush_us": "runtime.journal.flushes",
    "obs.telemetry.observe_us": "obs.telemetry.observes",
}
#: Remainders: guard checking is execute's self time; transport is the
#: client's latency minus decode, handle and encode.
DERIVED = ("runtime.guard.check_us", "runtime.server.transport_us")
#: Request stages whose sum transport is the rest of.
SERVER_STAGES = (
    "runtime.server.decode",
    "runtime.server.handle",
    "runtime.server.encode",
)


def distribution(base: str, count: int, mean_ns: float, samples) -> dict:
    """The four numbers of one ``_us`` metric."""
    samples = list(samples)
    return {
        COUNT_NAMES.get(base, f"{base}.count"): count,
        f"{base}.mean": mean_ns / 1e3,
        f"{base}.p50": percentile(samples, 50) / 1e3,
        f"{base}.p99": percentile(samples, 99) / 1e3,
    }


def layers(trace: dict, traced: Session, plain: Session) -> dict:
    """Per-layer metrics of a traced session."""
    stats = trace["stats"]
    spans = trace["spans"]

    def stat(name, column):
        return stats.get(name, [0, 0, 0, 0])[column]

    durations: dict[str, list[int]] = {}
    child_ns = [0] * len(spans)
    stage_ns: dict[int, int] = {}
    for span in spans:
        if span is None:
            continue
        name, start, end, parent, request = span
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            child_ns[parent] += end - start
        if name in SERVER_STAGES:
            stage_ns[request] = stage_ns.get(request, 0) + end - start
    execute_self = [
        span[2] - span[1] - child_ns[index]
        for index, span in enumerate(spans)
        if span is not None and span[0] == "runtime.service.execute"
    ]
    transport = [
        latency - stage_ns[request]
        for request, latency in traced.sampled.items()
        if request in stage_ns
    ]

    result: dict[str, float] = {}
    for layer in STAGES:
        calls = stat(layer, 0)
        result.update(
            distribution(
                f"{layer}_us",
                calls,
                stat(layer, 1) / calls if calls else 0.0,
                durations.get(layer, ()),
            )
        )
    calls = stat("runtime.service.execute", 0)
    result.update(
        distribution(
            "runtime.guard.check_us",
            calls,
            stat("runtime.service.execute", 2) / calls if calls else 0.0,
            execute_self,
        )
    )
    stage_busy = sum(stat(layer, 1) for layer in SERVER_STAGES)
    result.update(
        distribution(
            "runtime.server.transport_us",
            traced.requests,
            (traced.latency_ns - stage_busy) / traced.requests,
            transport,
        )
    )
    for layer in (
        "runtime.startup.runtime_build",
        "runtime.startup.guard_build",
        "runtime.journal.recover",
    ):
        result[f"{layer}_s"] = stat(layer, 1) / 1e9
    result["runtime.service.reject_ratio"] = (
        traced.rejected / traced.updates if traced.updates else 0.0
    )
    accepted = traced.updates - traced.rejected
    result["runtime.journal.bytes_per_update"] = (
        traced.journal_bytes / accepted if accepted else 0.0
    )
    result["trace_overhead"] = plain.ops_s / traced.ops_s
    return result


#: Wrapped calls the server also times itself: layer -> the name (or
#: dotted prefix) of its own histograms, read through the
#: ``telemetry`` op.
SERVER_HISTOGRAMS = {
    "runtime.service.execute": "runtime.update",
    "runtime.service.query": "runtime.query",
}
#: The largest share by which a wrapped call may differ from the
#: server's own timing of it before the attribution counts as off.
AGREEMENT = 0.20


def attribution(trace: dict, histograms: dict) -> list[str]:
    """Compare each wrapped call of :data:`SERVER_HISTOGRAMS` with the
    server's own histograms of it.

    The server stops its clock before it calls ``Telemetry.observe``,
    so the wrapped duration is taken without the observe calls the
    call makes directly (those are wrapped too, so their spans say how
    long they took).  One line per call, as ``attribution ...``.
    """
    spans = trace["spans"]
    observe_ns = [0] * len(spans)
    for span in spans:
        if span is not None and span[0] == "obs.telemetry.observe":
            if span[3] >= 0:
                observe_ns[span[3]] += span[2] - span[1]
    lines = []
    for layer, prefix in SERVER_HISTOGRAMS.items():
        own = [
            span[2] - span[1] - observe_ns[index]
            for index, span in enumerate(spans)
            if span is not None and span[0] == layer
        ]
        picked = [
            histogram
            for name, histogram in histograms.items()
            if name == prefix or name.startswith(prefix + ".")
        ]
        count = sum(histogram["count"] for histogram in picked)
        if not own or not count:
            continue
        wrapped = sum(own) / len(own)
        server = sum(histogram["sum_ns"] for histogram in picked) / count
        share = wrapped / server - 1
        verdict = "within" if abs(share) <= AGREEMENT else "outside"
        lines.append(
            f"attribution {layer}: {wrapped / 1e3:.2f} us without "
            f"observe ({len(own)} spans) vs {server / 1e3:.2f} us in "
            f"{prefix}* ({count} calls): {share:+.0%}, {verdict} "
            f"{AGREEMENT:.0%}"
        )
    return lines
