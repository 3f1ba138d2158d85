"""Unit tests for the per-check statistics records and the engine
counter helpers the sweeps record on their spans."""

import json

from repro.obs.stats import VerificationStats, counter_delta, engine_counters


class _FakeEngine:
    def __init__(self, hits, misses, steps, dispatch=0):
        self.cache_hits = hits
        self.cache_misses = misses
        self.rewrite_steps = steps
        self.dispatch_hits = dispatch


class TestCounters:
    def test_engine_counters_sums_and_skips_none(self):
        counters = engine_counters(
            _FakeEngine(3, 1, 7, dispatch=4), None, _FakeEngine(2, 2, 0)
        )
        # interned_terms is a process-wide gauge, not a per-engine sum.
        assert counters.pop("interned_terms") >= 0
        assert counters == {
            "cache_hits": 5,
            "cache_misses": 3,
            "rewrite_steps": 7,
            "dispatch_hits": 4,
        }

    def test_counter_delta(self):
        before = engine_counters(_FakeEngine(3, 1, 7, dispatch=2))
        after = engine_counters(_FakeEngine(10, 4, 9, dispatch=5))
        delta = counter_delta(before, after, items=6)
        # No terms were built between the two snapshots.
        assert delta.pop("interned_terms") == 0
        assert delta == {
            "cache_hits": 7,
            "cache_misses": 3,
            "rewrite_steps": 2,
            "dispatch_hits": 3,
            "items": 6,
        }

    def test_counter_delta_clamps_interned_shrinkage(self):
        # A garbage collection between snapshots can shrink the intern
        # table; the reported growth never goes negative.
        before = {"interned_terms": 10}
        after = {"interned_terms": 4}
        assert counter_delta(before, after)["interned_terms"] == 0


class TestRecords:
    def test_of_check_reads_the_span_counters(self):
        record = VerificationStats.of_check(
            "explore",
            {
                "items": 9,
                "cache_hits": 16,
                "cache_misses": 6,
                "rewrite_steps": 50,
                "dispatch_hits": 3,
                "interned_terms": 2,
                "explore.states": 4,
            },
            wall_time=0.6,
        )
        assert record == VerificationStats(
            "explore",
            states_checked=9,
            cache_hits=16,
            cache_misses=6,
            rewrite_steps=50,
            dispatch_hits=3,
            interned_terms=2,
            wall_time=0.6,
        )
        assert record.cache_hit_rate == 16 / 22

    def test_of_check_without_counters_keeps_the_wall_time(self):
        record = VerificationStats.of_check("congruence", None, 0.25)
        assert record == VerificationStats("congruence", wall_time=0.25)

    def test_combine_keeps_parts(self):
        a = VerificationStats("explore", states_checked=125,
                              cache_hits=10, wall_time=1.0)
        b = VerificationStats("completeness", states_checked=50,
                              cache_misses=5, wall_time=0.5)
        bundle = VerificationStats.combine("verify", [a, b], workers=4)
        assert bundle.workers == 4
        assert bundle.states_checked == 175
        assert bundle.cache_hits == 10
        assert bundle.cache_misses == 5
        assert bundle.wall_time == 1.5
        assert [p.label for p in bundle.parts] == ["explore", "completeness"]

    def test_hit_rate_zero_when_untouched(self):
        assert VerificationStats("x").cache_hit_rate == 0.0


class TestSerialization:
    def test_to_dict_round_trips_through_json(self):
        record = VerificationStats.of_check("inclusion", {"items": 3}, 0.2)
        bundle = VerificationStats.combine("verify", [record], workers=2)
        loaded = json.loads(bundle.to_json())
        assert loaded["label"] == "verify"
        assert loaded["workers"] == 2
        assert loaded["parts"] == [record.to_dict()]
        assert loaded["parts"][0]["states_checked"] == 3
        assert "per_worker" not in loaded["parts"][0]

    def test_str_is_informative(self):
        text = str(VerificationStats("explore", workers=4,
                                     states_checked=125))
        assert "explore" in text
        assert "workers=4" in text
        assert "125" in text
