"""Tests for the metrics registry and its pipeline/tracer bridges."""

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.pipeline.check import CheckRun
from repro.pipeline.scheduler import NodeExecution, PipelineResult


def _result():
    """A two-check pipeline run, as the scheduler records it."""

    def execution(name, counters, wall_time):
        run = CheckRun(result=None, counters=counters, wall_time=wall_time)
        return NodeExecution(name, name, "ran", None, run, True)

    return PipelineResult(
        [
            execution(
                "explore",
                {"items": 25, "cache_hits": 100, "explore.states": 25},
                0.5,
            ),
            execution(
                "completeness",
                {"items": 273, "cache_hits": 10},
                0.25,
            ),
            NodeExecution("grammar", "grammar", "aborted", None, None, True),
        ],
        ("explore", "completeness", "grammar"),
        workers=2,
    )


class TestRegistryBasics:
    def test_inc_and_gauge(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.set_gauge("g", 1.5)
        assert registry.counters == {"a": 5}
        assert registry.gauges == {"g": 1.5}

    def test_merge_sums_counters_and_overwrites_gauges(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("n", 2)
        left.set_gauge("g", 1.0)
        right.inc("n", 3)
        right.inc("m", 1)
        right.set_gauge("g", 9.0)
        left.merge(right)
        assert left.counters == {"n": 5, "m": 1}
        assert left.gauges == {"g": 9.0}

    def test_merge_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.merge_counters({"steps": 7}, prefix="wgrammar.")
        assert registry.counters == {"wgrammar.steps": 7}

    def test_to_dict_and_json_are_sorted(self):
        registry = MetricsRegistry()
        registry.inc("zeta")
        registry.inc("alpha")
        payload = json.loads(registry.to_json())
        assert list(payload["counters"]) == ["alpha", "zeta"]
        assert set(payload) == {"counters", "gauges"}

    def test_str_renders_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.inc("hits", 3)
        registry.set_gauge("wall", 0.5)
        text = str(registry)
        assert "hits = 3" in text
        assert "wall = 0.5 (gauge)" in text


class TestStatsBridge:
    def test_record_verification_maps_the_flat_names(self):
        registry = MetricsRegistry()
        registry.record_verification(_result())
        assert registry.gauges["verify.wall_time"] == 0.75
        assert registry.gauges["verify.workers"] == 2

    def test_record_verification_adds_up_over_applications(self):
        registry = MetricsRegistry()
        registry.record_verification(_result())
        registry.record_verification(_result())
        assert registry.counters["check.explore.items"] == 50
        assert registry.gauges["check.explore.wall_time"] == 1.0
        assert registry.gauges["verify.wall_time"] == 1.5

    def test_record_verification_keeps_per_check_parts(self):
        registry = MetricsRegistry()
        registry.record_verification(_result())
        assert registry.counters == {
            "check.explore.items": 25,
            "check.explore.cache_hits": 100,
            "check.explore.explore.states": 25,
            "check.completeness.items": 273,
            "check.completeness.cache_hits": 10,
        }
        assert registry.gauges["check.explore.wall_time"] == 0.5
        assert registry.gauges["check.completeness.wall_time"] == 0.25
        # An aborted check has no run, hence no record.
        assert "check.grammar.wall_time" not in registry.gauges

    def test_record_kernel_gauges_the_intern_tables(self):
        from repro.logic.terms import intern_stats, intern_table_size

        registry = MetricsRegistry()
        registry.record_kernel()
        assert registry.gauges["kernel.intern_table.size"] == (
            intern_table_size()
        )
        detail = intern_stats()
        assert registry.gauges["kernel.intern_table.vars"] == (
            detail["vars"]
        )
        assert registry.gauges["kernel.intern_table.apps"] == (
            detail["apps"]
        )


class TestTracerBridge:
    def test_merge_tracer_folds_span_counter_totals(self):
        tracer = Tracer()
        tracer.count("loose", 1)
        with tracer.span("outer"):
            tracer.count("rewrite.evaluate.calls", 5)
            with tracer.span("inner"):
                tracer.count("rewrite.evaluate.calls", 2)
        registry = MetricsRegistry()
        registry.inc("rewrite.evaluate.calls", 1)
        registry.merge_tracer(tracer)
        assert registry.counters["rewrite.evaluate.calls"] == 8
        assert registry.counters["loose"] == 1
