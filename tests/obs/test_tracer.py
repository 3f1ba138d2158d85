"""Tests for the span tracer core: nesting, ordering, counters,
activation scoping, and the disabled fast path."""

import time

import pytest

from repro.obs.switch import SWITCH, activate
from repro.obs.tracer import NOOP_SPAN, Span, Tracer, count, span


class TestSpan:
    def test_duration_is_end_minus_start(self):
        recorded = Span("s", start=1.0)
        recorded.end = 3.5
        assert recorded.duration == pytest.approx(2.5)

    def test_open_span_has_zero_duration(self):
        assert Span("s").duration == 0.0

    def test_counters_accumulate(self):
        recorded = Span("s")
        recorded.count("hits")
        recorded.count("hits", 4)
        recorded.record({"hits": 5, "misses": 2})
        assert recorded.counters == {"hits": 10, "misses": 2}

    def test_roundtrip_through_dict(self):
        root = Span("root", {"app": "courses"})
        child = Span("child")
        child.count("items", 7)
        child.end = child.start + 0.25
        root.children.append(child)
        root.end = root.start + 1.0
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.name == "root"
        assert rebuilt.attrs == {"app": "courses"}
        assert rebuilt.start == root.start
        assert rebuilt.end == root.end
        assert [c.name for c in rebuilt.children] == ["child"]
        assert rebuilt.children[0].counters == {"items": 7}

    def test_walk_is_preorder(self):
        root = Span("a")
        b, c = Span("b"), Span("c")
        d = Span("d")
        b.children.append(d)
        root.children.extend([b, c])
        assert [s.name for s in root.walk()] == ["a", "b", "d", "c"]


class TestTracerNesting:
    def test_spans_nest_on_the_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [s.name for s in outer.children] == ["inner"]

    def test_sibling_order_is_creation_order(self):
        tracer = Tracer()
        with tracer.span("root"):
            for name in ("a", "b", "c"):
                with tracer.span(name):
                    pass
        assert [s.name for s in tracer.roots[0].children] == ["a", "b", "c"]

    def test_child_interval_is_contained_in_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            time.sleep(0.001)
            with tracer.span("inner") as inner:
                time.sleep(0.001)
            time.sleep(0.001)
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert outer.duration >= inner.duration

    def test_timestamps_are_monotonic_across_siblings(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.end <= second.start

    def test_count_lands_on_active_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.count("steps", 3)
            with tracer.span("inner") as inner:
                tracer.count("steps", 2)
        assert outer.counters == {"steps": 3}
        assert inner.counters == {"steps": 2}

    def test_count_without_open_span_goes_to_tracer(self):
        tracer = Tracer()
        tracer.count("loose", 2)
        assert tracer.counters == {"loose": 2}

    def test_counter_totals_sum_the_whole_trace(self):
        tracer = Tracer()
        tracer.count("n", 1)
        with tracer.span("a"):
            tracer.count("n", 2)
            with tracer.span("b"):
                tracer.count("n", 4)
        assert tracer.counter_totals() == {"n": 7}

    def test_graft_attaches_under_active_span(self):
        tracer = Tracer()
        imported = Span("chunk")
        with tracer.span("parent") as parent:
            tracer.graft(imported)
        assert parent.children == [imported]
        tracer.graft(Span("orphan"))
        assert [s.name for s in tracer.roots] == ["parent", "orphan"]


class TestModuleSwitch:
    def test_disabled_span_is_the_shared_noop(self):
        assert span("anything", key=1) is NOOP_SPAN
        with span("anything") as handle:
            handle.count("ignored")
            handle.record({"ignored": 2})

    def test_disabled_count_is_a_noop(self):
        count("nothing", 5)
        assert SWITCH.tracer is None

    def test_enable_routes_spans_to_the_tracer(self):
        tracer = Tracer()
        with activate(tracer):
            assert SWITCH.tracer is tracer
            with span("visible", depth=2):
                count("ticks", 3)
        assert [s.name for s in tracer.roots] == ["visible"]
        assert tracer.roots[0].attrs == {"depth": 2}
        assert tracer.roots[0].counters == {"ticks": 3}

    def test_disable_returns_the_active_tracer(self):
        # Leaving the scope turns tracing off again; the tracer keeps
        # what it recorded.
        tracer = Tracer()
        with activate(tracer) as switch:
            assert switch is SWITCH
            count("ticks")
        assert SWITCH.tracer is None
        assert tracer.counters == {"ticks": 1}

    def test_activate_restores_previous_state(self):
        outer, inner = Tracer(), Tracer()
        with activate(outer):
            with activate(inner):
                assert SWITCH.tracer is inner
            assert SWITCH.tracer is outer

    def test_activate_restores_disabled_state(self):
        with activate(Tracer()):
            assert SWITCH.tracer is not None
        assert SWITCH.tracer is None

    def test_activate_accepts_an_existing_tracer(self):
        mine = Tracer()
        with activate(mine):
            with span("recorded"):
                pass
        assert [s.name for s in mine.roots] == ["recorded"]

    def test_activate_reentered_with_distinct_tracers(self):
        outer, inner = Tracer(), Tracer()
        with activate(outer):
            with span("outer-span"):
                with activate(inner):
                    with span("inner-span"):
                        pass
                # Exiting the inner activation restores the outer
                # tracer with its span stack intact.
                assert SWITCH.tracer is outer
                assert outer.current is not None
                assert outer.current.name == "outer-span"
        assert [s.name for s in outer.walk()] == ["outer-span"]
        assert [s.name for s in inner.walk()] == ["inner-span"]
        assert SWITCH.tracer is None

    def test_activate_reentered_with_the_same_tracer(self):
        mine = Tracer()
        with activate(mine):
            with span("first"):
                with activate(mine):
                    # Same tracer, same live stack: new spans keep
                    # nesting under the open one.
                    with span("second"):
                        pass
                assert SWITCH.tracer is mine
        roots = [s.name for s in mine.roots]
        assert roots == ["first"]
        assert [s.name for s in mine.roots[0].children] == ["second"]
        # Every span closed despite the nested activation.
        for recorded in mine.walk():
            assert recorded.end is not None


class TestCapture:
    """A worker chunk's buffer: a fresh tracer activated around one
    ``chunk`` span (what the executor's chunk trampoline does)."""

    def test_capture_isolates_a_fresh_buffer(self):
        parent, chunk_tracer = Tracer(), Tracer()
        with activate(parent), parent.span("parent-open"):
            with activate(chunk_tracer), span("chunk", worker=3):
                assert SWITCH.tracer is chunk_tracer
                with span("work"):
                    count("items", 9)
            assert SWITCH.tracer is parent
        assert [s.name for s in chunk_tracer.roots] == ["chunk"]
        root = chunk_tracer.roots[0]
        assert root.attrs == {"worker": 3}
        assert root.end is not None
        assert [s.name for s in root.children] == ["work"]
        assert root.children[0].counters == {"items": 9}
        # The parent's own tree never saw the captured spans.
        assert [s.name for s in parent.walk()] == ["parent-open"]

    def test_capture_closes_spans_left_open(self):
        # A chunk that raises still closes its chunk span and hands
        # the parent's tracer back.
        parent, chunk_tracer = Tracer(), Tracer()
        with activate(parent):
            with pytest.raises(RuntimeError):
                with activate(chunk_tracer), span("chunk"):
                    with span("work"):
                        raise RuntimeError("chunk failed")
            assert SWITCH.tracer is parent
        assert [s.name for s in chunk_tracer.walk()] == ["chunk", "work"]
        for recorded in chunk_tracer.walk():
            assert recorded.end is not None
