"""Live telemetry for the serving stack: histograms, rates, events.

:mod:`repro.obs.tracer` observes *batch* verification runs — one span
tree per ``verify()``.  The long-running processes (``repro serve``,
``repro worker``, ``repro watch``) need the complementary view:
continuously accumulated, queryable, low-overhead aggregates.  This
module provides them in two classes:

:class:`LatencyHistogram`
    Log-bucketed latency distribution over ``time.perf_counter_ns``
    durations.  Bucket boundaries are **deterministic integer
    functions of the value alone** (four sub-buckets per power of
    two), so histograms built on different workers, processes, or
    machines merge exactly: merging is bucket-count addition, which
    is commutative and associative — per-worker histograms merged in
    submission order give the same buckets and percentiles for every
    worker count and executor backend.

:class:`Telemetry`
    A named registry of histograms, windowed rate counters, and a
    fixed-capacity ring of structured JSON-serializable events.  Any
    observed duration at or above the slow-op threshold auto-captures
    a ``slow`` event carrying the op name and its fields — admission
    decisions, journal fsync batches, SQL transactions, and worker
    chunks all funnel through :meth:`Telemetry.observe`, so the slow
    tail of each is inspectable without a tracer.

The active registry sits in the ``telemetry`` slot of
:data:`repro.obs.switch.SWITCH`, the switch the tracer and coverage
share: instrumentation points load the slot into a local and observe
only when it is not ``None``, so telemetry off costs one attribute
load and one branch per site (``benchmarks/bench_obs.py`` gates
telemetry *on* at <= 5% of the serving workload; off is strictly
cheaper).  ``with activate(telemetry=Telemetry()):`` turns it on for
a block.

Snapshots (:meth:`Telemetry.snapshot`) are what the runtime server's
and worker protocol's ``telemetry`` ops return and what ``repro top``
renders; :func:`repro.obs.export.prometheus_text` turns the same
snapshot into Prometheus text exposition.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator, Mapping

__all__ = ["LatencyHistogram", "Telemetry"]

#: Sub-buckets per power of two (resolution ~ +25% per bucket).
_SUBBUCKETS = 4

#: Default slow-op threshold in milliseconds.
DEFAULT_SLOW_MS = 100.0

#: Default event-ring capacity.
DEFAULT_EVENT_CAPACITY = 256

#: Rate-window resolution: per-second buckets, enough for a 60s rate.
_RATE_SECONDS = 70


def bucket_index(ns: int) -> int:
    """The deterministic bucket index of a duration in nanoseconds.

    For ``v >= 1`` with ``e = v.bit_length() - 1`` (so ``2**e <= v <
    2**(e+1)``), the value falls in sub-bucket ``(v - 2**e) * 4 >>
    e`` of exponent ``e`` — pure integer arithmetic, identical on
    every platform and process.  Durations below 1ns clamp to
    bucket 0.
    """
    if ns < 1:
        return 0
    e = ns.bit_length() - 1
    return (e << 2) + (((ns - (1 << e)) << 2) >> e)


def bucket_upper_ns(index: int) -> int:
    """The exclusive upper bound (ns) of bucket ``index``."""
    e = index >> 2
    return ((index & 3) + 5 << e) >> 2


class LatencyHistogram:
    """A mergeable log-bucketed latency histogram.

    Buckets are keyed by :func:`bucket_index`; the histogram also
    tracks the exact count, sum, and maximum, so means are exact and
    percentile estimates never exceed the observed maximum.

    Thread safety is the owner's concern (:class:`Telemetry` guards
    all access with its registry lock).
    """

    __slots__ = ("buckets", "count", "sum_ns", "max_ns")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum_ns = 0
        self.max_ns = 0

    def observe(self, ns: int) -> None:
        """Record one duration in nanoseconds."""
        ns = int(ns)
        if ns < 0:
            ns = 0
        index = bucket_index(ns)
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        self.sum_ns += ns
        if ns > self.max_ns:
            self.max_ns = ns

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in (bucket-count addition).

        Merging is commutative and associative, so any merge order
        over the same observations yields identical buckets,
        counts, and percentiles.
        """
        buckets = self.buckets
        for index, n in other.buckets.items():
            buckets[index] = buckets.get(index, 0) + n
        self.count += other.count
        self.sum_ns += other.sum_ns
        if other.max_ns > self.max_ns:
            self.max_ns = other.max_ns

    def percentile_ns(self, q: float) -> int:
        """A deterministic upper-bound estimate of the ``q``-th
        percentile (``0 < q <= 100``) in nanoseconds.

        The estimate is the upper bound of the bucket where the
        cumulative count crosses ``ceil(count * q / 100)``, clamped
        to the exact maximum — a function of the bucket counts
        alone, so merged histograms agree bucket-for-bucket.
        """
        if self.count == 0:
            return 0
        rank = -(-self.count * q // 100)  # ceil without floats
        if rank < 1:
            rank = 1
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                return min(bucket_upper_ns(index), self.max_ns)
        return self.max_ns  # pragma: no cover - rank <= count always

    def cumulative_buckets(self) -> Iterator[tuple[int, int]]:
        """Yield ``(upper_bound_ns, cumulative_count)`` in bound
        order (the Prometheus ``le`` series, before the ``+Inf``
        bucket the exporter appends)."""
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            yield bucket_upper_ns(index), cumulative

    def to_dict(self) -> dict:
        """The JSON/pickle-portable form (crosses worker wires)."""
        return {
            "count": self.count,
            "sum_ns": self.sum_ns,
            "max_ns": self.max_ns,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LatencyHistogram":
        """Rebuild a histogram serialized by :meth:`to_dict`."""
        built = cls()
        built.count = int(payload.get("count", 0))
        built.sum_ns = int(payload.get("sum_ns", 0))
        built.max_ns = int(payload.get("max_ns", 0))
        built.buckets = {
            int(index): int(n)
            for index, n in payload.get("buckets", {}).items()
        }
        return built

    def summary(self) -> dict:
        """The display form: count, mean, and p50/p90/p99/max in
        milliseconds (max is exact; percentiles are deterministic
        bucket upper bounds)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_ms": round(self.sum_ns / self.count / 1e6, 4),
            "p50_ms": round(self.percentile_ns(50) / 1e6, 4),
            "p90_ms": round(self.percentile_ns(90) / 1e6, 4),
            "p99_ms": round(self.percentile_ns(99) / 1e6, 4),
            "max_ms": round(self.max_ns / 1e6, 4),
        }

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, "
            f"max_ns={self.max_ns})"
        )


class _RateWindow:
    """One counter's total plus a ring of per-second sub-counts."""

    __slots__ = ("total", "_ring")

    def __init__(self) -> None:
        self.total = 0
        #: ``{int(second): count}``, pruned on write.
        self._ring: dict[int, int] = {}

    def inc(self, now: float, n: int) -> None:
        second = int(now)
        ring = self._ring
        ring[second] = ring.get(second, 0) + n
        self.total += n
        if len(ring) > _RATE_SECONDS:
            horizon = second - _RATE_SECONDS
            for stale in [s for s in ring if s < horizon]:
                del ring[stale]

    def rate(self, now: float, window: int) -> float:
        """Events per second over the trailing ``window`` seconds."""
        horizon = int(now) - window
        hits = sum(
            count
            for second, count in self._ring.items()
            if second > horizon
        )
        return hits / window


class _EventRing:
    """Fixed-capacity ring of structured event records."""

    __slots__ = ("_capacity", "_events", "_seq")

    def __init__(self, capacity: int):
        self._capacity = max(1, capacity)
        self._events: list[dict] = []
        self._seq = 0

    def push(self, record: dict) -> None:
        self._seq += 1
        record["seq"] = self._seq
        events = self._events
        events.append(record)
        if len(events) > self._capacity:
            del events[: len(events) - self._capacity]

    def tail(self, limit: int) -> list[dict]:
        """The newest ``limit`` events, oldest first."""
        if limit <= 0:
            return []
        return [dict(event) for event in self._events[-limit:]]


class Telemetry:
    """One process's (or server's) live telemetry registry.

    Args:
        slow_ms: durations at or above this threshold auto-capture a
            ``slow`` event with the op name and fields.
        event_capacity: structured events retained (ring buffer).
        clock: monotonic time source (injectable for tests).

    All mutation happens under one lock, so a single instance can be
    shared by the worker's session threads; :meth:`observe` is one
    lock acquisition covering the histogram update, the optional
    rate increment, and the slow-op capture.
    """

    def __init__(
        self,
        slow_ms: float = DEFAULT_SLOW_MS,
        event_capacity: int = DEFAULT_EVENT_CAPACITY,
        clock=time.monotonic,
    ):
        self.slow_ns = int(slow_ms * 1e6)
        self._clock = clock
        self._started = clock()
        self._lock = threading.Lock()
        self._histograms: dict[str, LatencyHistogram] = {}
        self._rates: dict[str, _RateWindow] = {}
        self._events = _EventRing(event_capacity)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def observe(
        self,
        name: str,
        ns: int,
        counter: str | None = None,
        **fields: Any,
    ) -> None:
        """Record one duration into histogram ``name``.

        ``counter`` additionally increments a rate counter under the
        same lock (the hot-path combined form).  A duration at or
        above the slow-op threshold captures a ``slow`` event
        carrying ``fields``.
        """
        now = self._clock()
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            histogram.observe(ns)
            if counter is not None:
                window = self._rates.get(counter)
                if window is None:
                    window = self._rates[counter] = _RateWindow()
                window.inc(now, 1)
            if ns >= self.slow_ns:
                self._push_event("slow", name, ns / 1e6, fields, now)

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to rate counter ``name``."""
        now = self._clock()
        with self._lock:
            window = self._rates.get(name)
            if window is None:
                window = self._rates[name] = _RateWindow()
            window.inc(now, n)

    def event(
        self,
        level: str,
        op: str,
        duration_ms: float | None = None,
        **fields: Any,
    ) -> None:
        """Record one structured event (``info``/``warn``/``slow``)."""
        now = self._clock()
        with self._lock:
            self._push_event(level, op, duration_ms, fields, now)

    def _push_event(
        self,
        level: str,
        op: str,
        duration_ms: float | None,
        fields: Mapping[str, Any],
        now: float,
    ) -> None:
        record: dict[str, Any] = {
            "uptime": round(now - self._started, 3),
            "level": level,
            "op": op,
        }
        if duration_ms is not None:
            record["duration_ms"] = round(duration_ms, 3)
        if fields:
            record["fields"] = dict(fields)
        self._events.push(record)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def uptime_seconds(self) -> float:
        """Seconds since this registry was created."""
        return self._clock() - self._started

    def histogram(self, name: str) -> LatencyHistogram | None:
        """A copy of histogram ``name`` (or ``None``)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                return None
            return LatencyHistogram.from_dict(histogram.to_dict())

    def snapshot(self, events: int = 32) -> dict:
        """The full JSON-serializable state: uptime, every histogram
        (raw buckets plus the :meth:`LatencyHistogram.summary`
        percentiles), every rate counter (total, 10s and 60s rates),
        and the newest ``events`` event records."""
        now = self._clock()
        with self._lock:
            histograms = {
                name: {
                    **histogram.summary(),
                    **histogram.to_dict(),
                }
                for name, histogram in sorted(self._histograms.items())
            }
            counters = {
                name: {
                    "total": window.total,
                    "rate_10s": round(window.rate(now, 10), 3),
                    "rate_60s": round(window.rate(now, 60), 3),
                }
                for name, window in sorted(self._rates.items())
            }
            recent = self._events.tail(events)
        return {
            "uptime_seconds": round(now - self._started, 3),
            "slow_ms": round(self.slow_ns / 1e6, 3),
            "histograms": histograms,
            "counters": counters,
            "events": recent,
        }
