"""The one switch: three slots, one scoped ``activate``, and the
exactly-once folding of per-check coverage at any worker count."""

import pytest

from repro.cli import APPLICATIONS
from repro.obs.coverage import CoverageRecorder
from repro.obs.switch import SWITCH, activate
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import Tracer
from repro.parallel.executor import _run_chunk


def _slots():
    return SWITCH.tracer, SWITCH.coverage, SWITCH.telemetry


class TestSlots:
    def test_exactly_three_slots_and_no_enabled_flag(self):
        assert type(SWITCH).__slots__ == ("tracer", "coverage", "telemetry")
        assert not hasattr(SWITCH, "enabled")
        assert _slots() == (None, None, None)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_activating_one_facility_leaves_the_others(self, slot):
        outer = (Tracer(), CoverageRecorder(), Telemetry())
        fresh = (Tracer(), CoverageRecorder(), Telemetry())
        name = ("tracer", "coverage", "telemetry")[slot]
        with activate(*outer):
            with activate(**{name: fresh[slot]}):
                expected = list(outer)
                expected[slot] = fresh[slot]
                assert _slots() == tuple(expected)
            assert _slots() == outer
        assert _slots() == (None, None, None)

    def test_activating_one_facility_from_off_leaves_the_others_off(self):
        recorder = CoverageRecorder()
        with activate(coverage=recorder):
            assert _slots() == (None, recorder, None)
        assert _slots() == (None, None, None)

    def test_none_leaves_an_active_tracer_in_place(self):
        tracer = Tracer()
        with activate(tracer):
            with activate(tracer=None) as switch:
                assert switch.tracer is tracer
            with activate(None, None, None):
                assert _slots() == (tracer, None, None)
            assert SWITCH.tracer is tracer
        assert SWITCH.tracer is None

    def test_yields_the_switch(self):
        with activate() as switch:
            assert switch is SWITCH


class TestNesting:
    def test_nested_scopes_restore_each_slot(self):
        outer = (Tracer(), CoverageRecorder(), Telemetry())
        middle = Tracer()
        inner = (Tracer(), CoverageRecorder(), Telemetry())
        with activate(*outer):
            with activate(middle):
                assert _slots() == (middle, outer[1], outer[2])
                with activate(*inner):
                    assert _slots() == inner
                assert _slots() == (middle, outer[1], outer[2])
            assert _slots() == outer
        assert _slots() == (None, None, None)

    def test_nested_scopes_restore_each_slot_on_an_exception(self):
        outer = (Tracer(), CoverageRecorder(), Telemetry())
        with activate(*outer):
            with pytest.raises(ZeroDivisionError):
                with activate(Tracer(), CoverageRecorder()):
                    with activate(telemetry=Telemetry()):
                        1 / 0
            assert _slots() == outer
        assert _slots() == (None, None, None)

    def test_an_exception_out_of_the_outermost_scope_turns_all_off(self):
        with pytest.raises(RuntimeError):
            with activate(Tracer(), CoverageRecorder(), Telemetry()):
                raise RuntimeError("boom")
        assert _slots() == (None, None, None)


def _record_one_dispatch(context, arg):
    SWITCH.coverage.record_dispatch("q", arg)
    return arg, {}


class TestChunkCoverage:
    def test_chunk_ships_an_unmerged_recorder(self):
        # In process (the executor's no-pool fallback) the trampoline
        # runs in the parent: the enclosing recorder must stay empty,
        # the executor merges the shipped payload once.
        run = CoverageRecorder()
        with activate(coverage=run):
            result, stats = _run_chunk(
                (_record_one_dispatch, 0, "c"), context=None
            )
            assert SWITCH.coverage is run
        assert result == "c"
        assert run.is_empty()
        assert stats.coverage["dispatch"] == {"q|c": 1}

    def test_chunk_ships_nothing_with_coverage_off(self):
        _, stats = _run_chunk((lambda context, arg: (arg, {}), 0, 1), None)
        assert stats.coverage is None
        assert stats.spans == ()


def _summed_check_payloads(result) -> CoverageRecorder:
    total = CoverageRecorder()
    for execution in result.executions:
        if execution.run is not None and execution.run.coverage:
            total.merge_payload(execution.run.coverage)
    return total


class TestExactlyOnceFolding:
    """Under coverage every check records into its own recorder; the
    run's recorder must hold each check's facts exactly once, whether
    the check ran inline (the scheduler folds it) or in a fork chunk
    (the chunk ships it, the executor folds it)."""

    @pytest.mark.parametrize(
        "workers, backend", [(1, None), (2, "fork"), (2, "inline")]
    )
    def test_run_recorder_is_the_sum_of_the_check_payloads(
        self, workers, backend
    ):
        framework = APPLICATIONS["courses"]()
        run, tracer = CoverageRecorder(), Tracer()
        with activate(tracer, run):
            result = framework.verify_pipeline(
                workers=workers, backend=backend
            )
        assert result.ok
        chunks = [s for s in tracer.walk() if s.name == "chunk"]
        # Induction and grammar fan out at two workers, one chunk each.
        assert len(chunks) == (0 if workers == 1 else 2)
        summed = _summed_check_payloads(result)
        assert run.dispatch and run.hyperrules and run.metanotions
        assert run.dispatch == summed.dispatch
        assert run.hyperrules == summed.hyperrules
        assert run.metanotions == summed.metanotions
        assert run.fire_sets() == summed.fire_sets()
