"""Tests for the process-backed chunk executor.

The chunk functions live at module level: the executor sends them to
workers by reference, like the verification layers' own chunk
functions.
"""

import os

import pytest

from repro.parallel import ParallelExecutor


def _square_chunk(context, arg):
    return arg * arg, {"items": 1}


def _context_chunk(context, arg):
    return (context["base"] + arg, os.getpid()), {"items": 1}


def _map(fn, context, args, workers):
    """Run one batch; return its results and per-chunk stats."""
    with ParallelExecutor(workers, context=context) as executor:
        results = executor.map(fn, args)
    return results, executor.worker_stats


def _counting_chunk(context, indices):
    total = sum(indices)
    return total, {
        "items": len(indices),
        "cache_hits": total,
        "rewrite_steps": 2 * len(indices),
    }


class TestInline:
    def test_workers_0_runs_in_process(self):
        with ParallelExecutor(0, context={"base": 0}) as executor:
            results = executor.map(_context_chunk, [3, 1, 2])
        assert [value for value, _pid in results] == [3, 1, 2]
        assert {pid for _value, pid in results} == {os.getpid()}
        assert [w.worker for w in executor.worker_stats] == [0, 1, 2]

    def test_map_outside_context_manager_rejected(self):
        executor = ParallelExecutor(1)
        with pytest.raises(RuntimeError):
            executor.map(_square_chunk, [1])


class TestForked:
    def test_workers_1_runs_beside_the_caller(self):
        # One virtual worker is a pool of one: the chunks run in
        # another process while the caller keeps working.
        with ParallelExecutor(1, context={"base": 0}) as executor:
            results = executor.map(_context_chunk, [3, 1, 2])
        assert [value for value, _pid in results] == [3, 1, 2]
        assert os.getpid() not in {pid for _value, pid in results}

    def test_results_preserve_argument_order(self):
        results, stats = _map(
            _square_chunk, None, list(range(16)), workers=4
        )
        assert results == [i * i for i in range(16)]
        assert [w.worker for w in stats] == list(range(16))

    def test_context_inherited_without_pickling(self):
        # The context holds a lambda — unpicklable, so reaching the
        # workers proves fork inheritance, not argument pickling.
        context = {"base": 100, "unpicklable": lambda: None}
        results, _ = _map(
            _context_chunk, context, [1, 2, 3], workers=2
        )
        values = [value for value, _pid in results]
        assert values == [101, 102, 103]

    def test_worker_stats_carry_chunk_counters(self):
        chunks = [range(0, 3), range(3, 5)]
        results, stats = _map(
            _counting_chunk, None, chunks, workers=2
        )
        assert results == [3, 7]
        assert [w.items for w in stats] == [3, 2]
        assert [w.cache_hits for w in stats] == [3, 7]
        assert [w.rewrite_steps for w in stats] == [6, 4]
        assert all(w.wall_time >= 0 for w in stats)

    def test_map_reusable_across_calls(self):
        with ParallelExecutor(2, context=None) as executor:
            first = executor.map(_square_chunk, [1, 2])
            second = executor.map(_square_chunk, [3])
        assert first == [1, 4]
        assert second == [9]
        assert len(executor.worker_stats) == 3
