"""Proof coverage recorded on the compiled update plans.

While coverage records, every loop that applies compiled plans
(explore, the trace table, congruence, the induction step) records,
per cell, the equation of the dispatch entry the cell takes on the
source row, the pruned pure frame cells included.  By the lemma the
trace table rests on, that is the equation the rewrite engine fires
on the successor trace, so a default run must record exactly what a
run on the reference paths (``TraceAlgebra(packed=False)``) records:
the same Q- and U-equation fire sets, W-grammar usage, explore census
and report text, on the four applications and the sixteen courses
mutants, with no check leaving its fast path.
"""

import dataclasses

import pytest

from repro import obs
from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.plans import UpdatePlanner
from repro.algebraic.signature import AlgebraicSignature
from repro.algebraic.spec import AlgebraicSpec
from repro.cli import APPLICATIONS
from repro.core.framework import DesignFramework
from repro.logic import formulas as fm
from repro.logic.terms import Var
from repro.logic.sorts import STATE
from tests.applications.test_mutations import MUTANTS

APPS = ["courses", "library", "projects", "bank"]


def _recorded_run(framework):
    """``(recorder, report text, counters)`` of one covered run."""
    recorder = obs.CoverageRecorder()
    tracer = obs.Tracer()
    with obs.activate(tracer, recorder):
        report = framework.verify()
    return recorder, str(report), tracer.counter_totals()


def _facts(recorder):
    return (
        recorder.fire_sets(),
        recorder.u_fire_sets(),
        recorder.hyperrules,
        recorder.metanotions,
        recorder.explore,
    )


def _fallbacks(counters):
    return sorted(name for name in counters if "fallback." in name)


def _assert_same_as_reference(framework, monkeypatch):
    plans, text, counters = _recorded_run(framework)
    assert _fallbacks(counters) == []
    with monkeypatch.context() as patch:
        patch.setattr(
            DesignFramework,
            "algebra",
            lambda self: TraceAlgebra(self.algebraic, packed=False),
        )
        reference, reference_text, reference_counters = _recorded_run(
            framework
        )
    assert "explore.fallback.disabled" in reference_counters
    assert _facts(plans) == _facts(reference)
    assert text == reference_text
    return plans


class TestSameAsReference:
    @pytest.mark.parametrize("app", APPS)
    def test_four_applications(self, app, monkeypatch):
        recorder = _assert_same_as_reference(
            APPLICATIONS[app](), monkeypatch
        )
        assert recorder.fire_sets() and recorder.explore

    @pytest.mark.parametrize(
        "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
    )
    def test_courses_mutants(self, label, mutant, monkeypatch):
        framework = dataclasses.replace(
            APPLICATIONS["courses"](), algebraic=mutant
        )
        _assert_same_as_reference(framework, monkeypatch)


# ---------------------------------------------------------------------
# a pruned frame cell whose dispatch opens with a conditional entry
# ---------------------------------------------------------------------
def _guarded_frame_spec() -> AlgebraicSpec:
    """``q(c, touch(c', U))`` is the identity under two equations: one
    conditional on ``flag(U)``, then one unconditional.  Both write
    nothing, so the plan prunes every ``q`` cell of ``touch`` as a
    pure frame cell; ``flag`` turns true only after ``arm``."""
    signature = AlgebraicSignature()
    course = signature.add_parameter_sort("course")
    signature.add_parameter_values(course, ["c1", "c2"])
    signature.add_query("flag", [])
    signature.add_query("q", [course])
    signature.add_initial()
    signature.add_update("arm", [])
    signature.add_update("touch", [course])
    c, c2, u = Var("c", course), Var("c2", course), Var("U", STATE)
    initiate = signature.initial_term()
    armed = signature.apply_update("arm", u)
    touched = signature.apply_update("touch", c2, u)
    flag = lambda state: signature.apply_query("flag", state)
    q = lambda state: signature.apply_query("q", c, state)
    equations = (
        ConditionalEquation(flag(initiate), signature.false(), None, "f0"),
        ConditionalEquation(q(initiate), signature.false(), None, "q0"),
        ConditionalEquation(flag(armed), signature.true(), None, "f1"),
        ConditionalEquation(q(armed), q(u), None, "q1"),
        ConditionalEquation(flag(touched), flag(u), None, "f2"),
        ConditionalEquation(
            q(touched),
            q(u),
            fm.Equals(flag(u), signature.true()),
            "q2-guarded",
        ),
        ConditionalEquation(q(touched), q(u), None, "q2"),
    )
    return AlgebraicSpec(signature, equations)


def _explore_fires(spec, packed, max_depth=None):
    recorder = obs.CoverageRecorder()
    with obs.activate(coverage=recorder):
        TraceAlgebra(spec, packed=packed).explore(max_depth=max_depth)
    return recorder.fire_set("q", "touch")


class TestPrunedFrameCells:
    def test_the_cells_are_pruned_with_the_guard_first(self):
        spec = _guarded_frame_spec()
        plan = UpdatePlanner(spec).compile("touch", ("c1",))
        assert not any(query == "q" for (query, _), _ in plan.actions)
        frames = {cell: entries for cell, entries in plan.frames}
        entries = frames[("q", ("c1",))]
        assert [index for _, _, index in entries] == [5, 6]
        assert entries[0][0] is not None and entries[1][0] is None

    def test_both_equations_fire(self):
        spec = _guarded_frame_spec()
        assert _explore_fires(spec, packed=True) == {5, 6}
        assert _explore_fires(spec, packed=False) == {5, 6}

    def test_the_entry_that_fires_on_the_row_is_recorded(self):
        # One step from the initial state flag is still false: only the
        # unconditional equation fires, on either path.
        spec = _guarded_frame_spec()
        assert _explore_fires(spec, packed=True, max_depth=1) == {6}
        assert _explore_fires(spec, packed=False, max_depth=1) == {6}
