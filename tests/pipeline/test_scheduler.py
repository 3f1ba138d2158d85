"""Scheduler policies: run-all vs fail-fast, statuses, summaries, and
the fan-out of independent checks beside the inline ones."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.parallel.backends import make_backend
from repro.parallel.executor import ParallelExecutor
from repro.parallel.worker import WorkerServer
from repro.pipeline.check import Check, CheckRun
from repro.pipeline.graph import CheckGraph
from repro.pipeline.scheduler import PipelineContext, Scheduler

RAN = []


def _passes(ctx, params):
    RAN.append("passes")
    return CheckRun(result=True)


def _fails(ctx, params):
    RAN.append("fails")
    return CheckRun(result=False)


def _later(ctx, params):
    RAN.append("later")
    return CheckRun(result=True)


def _graph():
    return CheckGraph(
        [
            Check(name="passes", title="always ok", run=_passes),
            Check(name="fails", title="always bad", run=_fails),
            Check(name="later", title="after the failure", run=_later),
        ]
    )


def _run(fail_fast):
    del RAN[:]
    scheduler = Scheduler(_graph(), fail_fast=fail_fast)
    return scheduler.run(PipelineContext(None))


class TestPolicies:
    def test_run_all_accumulates_failures(self):
        result = _run(fail_fast=False)
        assert not result.ok
        assert RAN == ["passes", "fails", "later"]
        statuses = {e.name: e.status for e in result.executions}
        assert statuses == {
            "passes": "ran",
            "fails": "ran",
            "later": "ran",
        }

    def test_fail_fast_stops_at_first_failure(self):
        result = _run(fail_fast=True)
        assert not result.ok
        assert RAN == ["passes", "fails"]
        statuses = {e.name: e.status for e in result.executions}
        assert statuses["later"] == "aborted"

    def test_summary_labels_outcomes(self):
        summary = _run(fail_fast=True).summary()
        assert "always ok" in summary
        assert "FAILED" in summary
        assert "aborted (fail-fast)" in summary

    def test_result_lookup(self):
        result = _run(fail_fast=False)
        assert result.result_of("passes") is True
        assert result.result_of("fails") is False
        assert result.result_of("missing", default="d") == "d"
        assert result.execution("passes").ok
        assert not result.execution("fails").ok


# ---------------------------------------------------------------------
# fan-out: submitted before the inline checks, reaped on failure
# ---------------------------------------------------------------------
#: Released by the tests so an in-process socket worker stops waiting.
_RELEASE = threading.Event()


def _fanned(ctx, params):
    RAN.append("fanned")
    return CheckRun(result=True)


def _naps(ctx, params):
    time.sleep(2.0)
    return CheckRun(result=True)


def _blocks(ctx, params):
    # In a forked worker nothing ever sets the event: only the pool's
    # abandon path ends this check early.
    _RELEASE.wait(timeout=60)
    return CheckRun(result=True)


def _explodes(ctx, params):
    raise RuntimeError("check exploded")


def _fanout_graph(fanned_runs, inline_runs):
    """Independent checks first (as in the framework graph), then the
    inline ones."""
    return CheckGraph(
        [
            Check(
                name=f"fanned-{index}",
                title="independent",
                run=run,
                fan_out=True,
            )
            for index, run in enumerate(fanned_runs)
        ]
        + [
            Check(name=f"inline-{index}", title="inline", run=run)
            for index, run in enumerate(inline_runs)
        ]
    )


def _run_fanout(graph, backend, workers=2):
    return Scheduler(graph).run(
        PipelineContext(None, workers=workers, backend=backend)
    )


@pytest.fixture()
def socket_backend():
    server = WorkerServer(module_prefixes=("repro.", "tests."))
    server.serve_in_thread()
    _RELEASE.clear()
    yield make_backend("socket", addresses=[server.address])
    _RELEASE.set()
    server.shutdown()


class TestFanOut:
    def test_fanout_is_submitted_before_the_inline_checks(
        self, monkeypatch
    ):
        submit = ParallelExecutor.map_async

        def recording(self, fn, args):
            RAN.append("submit")
            return submit(self, fn, args)

        monkeypatch.setattr(ParallelExecutor, "map_async", recording)
        del RAN[:]
        result = _run_fanout(
            _fanout_graph([_fanned, _fanned], [_passes, _later]),
            "inline",
        )
        assert result.ok
        # The inline backend runs its chunks at collect time, after
        # the inline loop; the submission still comes first.
        assert RAN == ["submit", "passes", "later", "fanned", "fanned"]

    def test_fanned_and_inline_checks_overlap(self):
        # workers=2: this process and one virtual worker.
        started = time.perf_counter()
        result = _run_fanout(_fanout_graph([_naps], [_naps]), "fork")
        elapsed = time.perf_counter() - started
        assert result.ok
        assert [e.status for e in result.executions] == ["ran"] * 2
        # One after the other, the two naps take four seconds.
        assert elapsed < 3.5

    @pytest.mark.parametrize("backend", ["fork", "inline"])
    def test_inline_failure_with_fanout_in_flight(self, backend):
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="check exploded"):
            _run_fanout(
                _fanout_graph([_blocks, _blocks], [_explodes]), backend
            )
        # Abandoned, not awaited: a polite close would wait five
        # seconds for the blocked workers before terminating them.
        assert time.perf_counter() - started < 4
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("backend", ["fork", "inline"])
    def test_fanned_failure_propagates_after_the_inline_checks(
        self, backend
    ):
        del RAN[:]
        with pytest.raises(RuntimeError, match="check exploded"):
            _run_fanout(
                _fanout_graph([_explodes, _fanned], [_passes, _later]),
                backend,
            )
        # The inline checks ran to the end before the batch was
        # collected and its failure re-raised.
        assert RAN[:2] == ["passes", "later"]
        assert multiprocessing.active_children() == []

    def test_inline_failure_with_socket_fanout_in_flight(
        self, socket_backend
    ):
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="check exploded"):
            _run_fanout(
                _fanout_graph([_blocks, _blocks], [_explodes]),
                socket_backend,
            )
        assert time.perf_counter() - started < 4
        # The worker outlives the abandoned session and serves the
        # next run once the blocked check returns.
        _RELEASE.set()
        del RAN[:]
        result = _run_fanout(
            _fanout_graph([_fanned, _fanned], [_passes]), socket_backend
        )
        assert result.ok
