"""Tests for :mod:`repro.obs.telemetry`: deterministic histogram
buckets, submission-order merge identity across worker counts and
executor backends, rate windows, the event ring, the slow-op capture,
and the telemetry slot of the one-branch switch."""

import pickle
import random

import pytest

from repro.obs.switch import SWITCH, activate
from repro.obs.telemetry import (
    LatencyHistogram,
    Telemetry,
    bucket_index,
    bucket_upper_ns,
)
from repro.parallel import ParallelExecutor
from repro.parallel.backends import make_backend
from repro.parallel.worker import WorkerServer

#: Fixed per-chunk duration sets (ns) with a wide dynamic range, so
#: bucket placement, percentiles, and merge order all get exercised.
_DURATION_CHUNKS = [
    [7, 130, 2_800, 61_000],
    [1, 2, 3, 999_999_999],
    [450_000, 450_001, 450_002],
    [88, 12_345_678, 3],
    [1_000_000, 2_000_000, 4_000_000, 8_000_000],
    [5, 5, 5, 5, 5],
]


def _histogram_chunk(context, durations):
    """Observe fixed durations; ship the histogram as a dict."""
    histogram = LatencyHistogram()
    for duration in durations:
        histogram.observe(duration)
    return histogram.to_dict(), {"items": len(durations)}


def _merged(results):
    """Merge per-chunk histogram dicts in submission order."""
    merged = LatencyHistogram()
    for payload in results:
        merged.merge(LatencyHistogram.from_dict(payload))
    return merged


class TestBucketScheme:
    def test_buckets_partition_values_from_4ns_up(self):
        # Above 4ns the sub-bucket arithmetic is exact: each value
        # falls strictly below its bucket's upper bound and at or
        # above the previous bucket's.
        random.seed(11)
        values = [random.randrange(4, 10**10) for _ in range(10_000)]
        values += [4, 5, 6, 7, 8, 1 << 40]
        for value in values:
            index = bucket_index(value)
            lower = bucket_upper_ns(index - 1) if index else 0
            assert lower <= value < bucket_upper_ns(index)

    def test_tiny_values_stay_within_their_bounds(self):
        # Below 4ns the shifts truncate, collapsing bound resolution;
        # the inclusive invariant still holds.
        for value in (1, 2, 3):
            assert value <= bucket_upper_ns(bucket_index(value))

    def test_bucket_bounds_are_non_decreasing(self):
        bounds = [bucket_upper_ns(i) for i in range(160)]
        assert bounds == sorted(bounds)

    def test_non_positive_durations_clamp_to_bucket_zero(self):
        assert bucket_index(0) == 0
        histogram = LatencyHistogram()
        histogram.observe(-5)
        assert histogram.max_ns == 0
        assert histogram.buckets == {0: 1}

    def test_indices_are_pure_functions_of_the_value(self):
        # Integer-only arithmetic: the same value always lands in the
        # same bucket — the property merge determinism rests on.
        for value in (1, 2, 1023, 1024, 1025, 10**9, (1 << 62) + 3):
            assert bucket_index(value) == bucket_index(value)


class TestHistogram:
    def test_percentiles_never_exceed_the_observed_max(self):
        histogram = LatencyHistogram()
        for value in (100, 200, 300_000):
            histogram.observe(value)
        assert histogram.percentile_ns(99) <= histogram.max_ns
        assert histogram.percentile_ns(100) == histogram.max_ns

    def test_percentile_of_uniform_data_is_within_one_bucket(self):
        histogram = LatencyHistogram()
        for value in range(1, 1001):
            histogram.observe(value * 1000)
        p50 = histogram.percentile_ns(50)
        # Bucket resolution is ~ +25%: the estimate must bracket the
        # true median from above within one bucket's width.
        assert 500_000 <= p50 <= 650_000

    def test_dict_roundtrip_and_pickle_survival(self):
        histogram = LatencyHistogram()
        for value in (5, 77, 3_000_000):
            histogram.observe(value)
        rebuilt = LatencyHistogram.from_dict(histogram.to_dict())
        assert rebuilt.to_dict() == histogram.to_dict()
        wired = pickle.loads(pickle.dumps(histogram.to_dict()))
        assert (
            LatencyHistogram.from_dict(wired).summary()
            == histogram.summary()
        )

    def test_empty_summary(self):
        assert LatencyHistogram().summary() == {"count": 0}
        assert LatencyHistogram().percentile_ns(99) == 0

    def test_merge_is_commutative(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for value in (10, 20, 30):
            a.observe(value)
        for value in (15, 2_000_000):
            b.observe(value)
        ab, ba = LatencyHistogram(), LatencyHistogram()
        ab.merge(a), ab.merge(b)
        ba.merge(b), ba.merge(a)
        assert ab.to_dict() == ba.to_dict()

    def test_cumulative_buckets_end_at_the_count(self):
        histogram = LatencyHistogram()
        for value in (1, 10, 100, 1000):
            histogram.observe(value)
        series = list(histogram.cumulative_buckets())
        assert series[-1][1] == histogram.count
        counts = [count for _, count in series]
        assert counts == sorted(counts)


class TestMergeDeterminism:
    """ISSUE 10: merging per-worker histograms in submission order
    yields identical buckets/percentiles at workers 1/4 and across
    inline/fork/socket backends."""

    @pytest.fixture(scope="class")
    def worker_servers(self):
        servers = [
            WorkerServer(module_prefixes=("repro.", "tests."))
            for _ in range(2)
        ]
        for server in servers:
            server.serve_in_thread()
        yield servers
        for server in servers:
            server.shutdown()

    def _run(self, backend, workers):
        with ParallelExecutor(
            workers, context={}, backend=backend
        ) as executor:
            results = executor.map(_histogram_chunk, _DURATION_CHUNKS)
        return _merged(results)

    def test_workers_1_and_4_merge_identically_inline(self):
        one = self._run("inline", 1)
        four = self._run("inline", 4)
        assert one.to_dict() == four.to_dict()
        assert one.summary() == four.summary()

    def test_backends_merge_identically(self, worker_servers):
        addresses = [server.address for server in worker_servers]
        socket_backend = make_backend("socket", addresses=addresses)
        merged = {
            name: self._run(backend, workers).to_dict()
            for name, backend, workers in [
                ("inline-1", "inline", 1),
                ("inline-4", "inline", 4),
                ("fork-4", "fork", 4),
                ("socket-4", socket_backend, 4),
            ]
        }
        assert merged["inline-1"] == merged["inline-4"]
        assert merged["inline-1"] == merged["fork-4"]
        assert merged["inline-1"] == merged["socket-4"]


class TestRatesAndEvents:
    def _telemetry(self, slow_ms=100.0):
        clock = {"now": 1000.0}
        telemetry = Telemetry(
            slow_ms=slow_ms, clock=lambda: clock["now"]
        )
        return telemetry, clock

    def test_rate_windows_with_injected_clock(self):
        telemetry, clock = self._telemetry()
        for second in range(20):
            clock["now"] = 1000.0 + second
            telemetry.inc("ops")
        snapshot = telemetry.snapshot()
        counter = snapshot["counters"]["ops"]
        assert counter["total"] == 20
        assert counter["rate_10s"] == 1.0
        # Only 20 of the 60 trailing seconds saw events.
        assert counter["rate_60s"] == pytest.approx(20 / 60, abs=0.01)

    def test_old_rate_buckets_expire(self):
        telemetry, clock = self._telemetry()
        telemetry.inc("ops")
        clock["now"] = 1000.0 + 3600
        telemetry.inc("ops")
        counter = telemetry.snapshot()["counters"]["ops"]
        assert counter["total"] == 2  # totals are monotone
        assert counter["rate_10s"] == pytest.approx(0.1)

    def test_slow_op_auto_captures_an_event(self):
        telemetry, _ = self._telemetry(slow_ms=1.0)
        telemetry.observe("fast.op", 500_000)  # 0.5ms: below
        telemetry.observe("slow.op", 5_000_000, update="deposit")
        events = telemetry.snapshot()["events"]
        assert len(events) == 1
        (event,) = events
        assert event["level"] == "slow"
        assert event["op"] == "slow.op"
        assert event["duration_ms"] == 5.0
        assert event["fields"] == {"update": "deposit"}

    def test_event_ring_is_bounded_and_ordered(self):
        telemetry = Telemetry(event_capacity=4)
        for index in range(10):
            telemetry.event("info", f"op{index}")
        events = telemetry.snapshot()["events"]
        assert [event["op"] for event in events] == [
            "op6", "op7", "op8", "op9",
        ]
        assert [event["seq"] for event in events] == [7, 8, 9, 10]
        assert telemetry.snapshot(events=2)["events"][0]["op"] == "op8"

    def test_snapshot_schema_and_json_serializability(self):
        import json

        telemetry, _ = self._telemetry()
        telemetry.observe(
            "runtime.update.deposit.admit",
            2_000_000,
            counter="runtime.updates.accepted",
        )
        snapshot = telemetry.snapshot()
        assert set(snapshot) == {
            "uptime_seconds",
            "slow_ms",
            "histograms",
            "counters",
            "events",
        }
        histogram = snapshot["histograms"][
            "runtime.update.deposit.admit"
        ]
        for key in ("count", "p50_ms", "p90_ms", "p99_ms", "max_ms",
                    "buckets", "sum_ns"):
            assert key in histogram
        json.dumps(snapshot)  # wire-safe

    def test_combined_observe_is_one_histogram_one_counter(self):
        telemetry, _ = self._telemetry()
        telemetry.observe("op", 1000, counter="ops")
        telemetry.observe("op", 2000, counter="ops")
        snapshot = telemetry.snapshot()
        assert snapshot["histograms"]["op"]["count"] == 2
        assert snapshot["counters"]["ops"]["total"] == 2


class TestSwitch:
    def test_disabled_by_default(self):
        assert SWITCH.telemetry is None

    def test_enable_disable_roundtrip(self):
        telemetry = Telemetry()
        with activate(telemetry=telemetry):
            assert SWITCH.telemetry is telemetry
        assert SWITCH.telemetry is None

    def test_activation_scopes_and_restores(self):
        outer, inner = Telemetry(), Telemetry()
        with activate(telemetry=outer):
            with activate(telemetry=inner):
                assert SWITCH.telemetry is inner
            assert SWITCH.telemetry is outer

    def test_activation_accepts_a_prebuilt_registry(self):
        mine = Telemetry()
        with activate(telemetry=mine) as switch:
            assert switch.telemetry is mine
            switch.telemetry.inc("x")
        assert SWITCH.telemetry is None
        assert mine.snapshot()["counters"]["x"]["total"] == 1
