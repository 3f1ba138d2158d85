"""Trace behaviour across the fork executor: buffers survive the
process boundary, merge deterministically, and cost nothing when off."""

import timeit

from repro.obs.switch import SWITCH, activate
from repro.obs.tracer import Tracer, count, span
from repro.parallel.executor import ParallelExecutor

#: Twelve values in three contiguous chunks.
_RANGES = [range(0, 4), range(4, 8), range(8, 12)]


def _square_chunk(context, index_range):
    """Module-level chunk fn (workers receive it by reference)."""
    with span("square", n=len(index_range)):
        total = 0
        for index in index_range:
            total += context[index] ** 2
            count("squares")
    return total, {"items": len(index_range)}


def _map(fn, context, args, workers):
    """Run one batch; return its results and per-chunk stats."""
    with ParallelExecutor(workers, context=context) as executor:
        results = executor.map(fn, args)
    return results, executor.worker_stats


def _run(workers):
    tracer = Tracer()
    with activate(tracer):
        results, stats = _map(
            _square_chunk, list(range(12)), _RANGES, workers
        )
    return tracer, results, stats


def _skeleton(tracer):
    """The trace without timings: (name, attrs, counters) preorder."""
    return [
        (recorded.name, tuple(sorted(recorded.attrs.items())),
         tuple(sorted(recorded.counters.items())))
        for recorded in tracer.walk()
    ]


class TestForkSurvival:
    def test_worker_buffers_come_back_across_fork(self):
        tracer, results, stats = _run(workers=3)
        assert results == [sum(i ** 2 for i in r) for r in _RANGES]
        chunks = [s for s in tracer.walk() if s.name == "chunk"]
        assert [c.attrs["worker"] for c in chunks] == [0, 1, 2]
        for chunk in chunks:
            assert chunk.end is not None
            assert [child.name for child in chunk.children] == ["square"]
            assert chunk.children[0].counters["squares"] == 4
            # The chunk fn's counter dict is folded onto the chunk span.
            assert chunk.counters["items"] == 4

    def test_worker_stats_carry_serialized_spans(self):
        _, _, stats = _run(workers=2)
        for record in stats:
            assert record.spans, "chunk should ship its span buffer"
            assert record.spans[0]["name"] == "chunk"
            # spans are transport-only: not part of the JSON record
            assert "spans" not in record.to_dict()

    def test_no_spans_shipped_when_tracing_is_off(self):
        _, stats = _map(_square_chunk, list(range(12)), _RANGES, 2)
        assert all(record.spans == () for record in stats)


class TestDeterministicMerge:
    def test_trace_skeleton_is_identical_for_any_worker_count(self):
        skeletons = []
        for workers in (0, 1, 2, 3):
            tracer = Tracer()
            with activate(tracer):
                _map(_square_chunk, list(range(12)), _RANGES, workers)
            skeletons.append(_skeleton(tracer))
        assert all(skeleton == skeletons[0] for skeleton in skeletons)

    def test_chunks_graft_under_the_parents_open_span(self):
        tracer = Tracer()
        with activate(tracer):
            with span("level", depth=1):
                _map(
                    _square_chunk,
                    list(range(6)),
                    [range(0, 3), range(3, 6)],
                    2,
                )
        (level,) = tracer.roots
        assert level.name == "level"
        assert [c.name for c in level.children] == ["chunk", "chunk"]
        assert [c.attrs["worker"] for c in level.children] == [0, 1]


class TestDisabledOverheadSmoke:
    """Loose sanity bounds; the enforced <=5% gate lives in
    benchmarks/check_obs_overhead.py."""

    def test_disabled_span_call_is_cheap(self):
        assert SWITCH.tracer is None
        per_call = min(
            timeit.repeat(
                "span('hot')",
                globals={"span": span},
                number=10_000,
                repeat=5,
            )
        ) / 10_000
        assert per_call < 5e-6  # five microseconds, very loose

    def test_disabled_guard_adds_little_to_a_tight_loop(self):
        switch = SWITCH
        assert switch.tracer is None

        def plain(work=2_000):
            total = 0
            for index in range(work):
                total += index
            return total

        def guarded(work=2_000):
            total = 0
            for index in range(work):
                tracer = switch.tracer
                if tracer is not None:
                    tracer.count("tick")
                total += index
            return total

        base = min(timeit.repeat(plain, number=50, repeat=5))
        with_guard = min(timeit.repeat(guarded, number=50, repeat=5))
        # The guard is one attribute load and branch per iteration of
        # a loop that does almost nothing else; on real workloads the
        # gate is 5%, here we only smoke-test the order of magnitude.
        assert with_guard < base * 3.0
