"""Tests for structured descriptions and equation synthesis — the
mechanized Section 4.2 methodology (experiment E11)."""

import itertools

import pytest

from repro.errors import SpecificationError
from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.completeness import check_sufficient_completeness
from repro.algebraic.description import (
    Effect,
    StructuredDescription,
    initial_equations,
    synthesize_equations,
)
from repro.algebraic.signature import AlgebraicSignature
from repro.applications.courses import (
    courses_algebraic,
    courses_descriptions,
    courses_signature,
    courses_synthesized,
)
from repro.logic.terms import Var


class TestValidation:
    def _signature(self):
        signature = AlgebraicSignature()
        course = signature.add_parameter_sort("course")
        signature.add_parameter_values(course, ["c1"])
        signature.add_query("offered", [course])
        signature.add_initial()
        signature.add_update("offer", [course])
        return signature, course

    def test_param_sorts_must_match_update(self):
        signature, course = self._signature()
        with pytest.raises(SpecificationError):
            synthesize_equations(
                signature,
                [
                    StructuredDescription(
                        update="offer",
                        params=(),
                        effects=(),
                    )
                ],
            )

    def test_effect_args_must_be_update_params(self):
        signature, course = self._signature()
        c = Var("c", course)
        stranger = Var("z", course)
        with pytest.raises(SpecificationError):
            synthesize_equations(
                signature,
                [
                    StructuredDescription(
                        update="offer",
                        params=(c,),
                        effects=(Effect("offered", (stranger,), True),),
                    )
                ],
            )

    def test_duplicate_description_rejected(self):
        signature, course = self._signature()
        c = Var("c", course)
        description = StructuredDescription(
            update="offer",
            params=(c,),
            effects=(Effect("offered", (c,), True),),
        )
        with pytest.raises(SpecificationError):
            synthesize_equations(signature, [description, description])

    def test_non_boolean_query_needs_initial_default(self):
        signature = AlgebraicSignature()
        course = signature.add_parameter_sort("course")
        signature.add_parameter_values(course, ["c1"])
        signature.add_query("pick", [], result_sort=course)
        signature.add_initial()
        with pytest.raises(SpecificationError):
            initial_equations(signature)
        equations = initial_equations(
            signature, defaults={"pick": signature.value(course, "c1")}
        )
        assert len(equations) == 1


class TestSynthesizedShape:
    def test_unconditional_effect_gives_one_equation(self):
        signature = courses_signature()
        equations = synthesize_equations(
            signature, courses_descriptions(signature)
        )
        offer_effects = [
            e
            for e in equations
            if e.label.startswith("synth:offered:offer:effect")
        ]
        assert len(offer_effects) == 1
        assert offer_effects[0].condition is None

    def test_guarded_effect_gives_pair(self):
        signature = courses_signature()
        equations = synthesize_equations(
            signature, courses_descriptions(signature)
        )
        cancel_effects = [
            e
            for e in equations
            if e.label.startswith("synth:offered:cancel:effect")
        ]
        assert len(cancel_effects) == 2
        conditions = {e.condition is None for e in cancel_effects}
        assert conditions == {False}

    def test_frame_equations_for_every_query_update_pair(self):
        signature = courses_signature()
        equations = synthesize_equations(
            signature, courses_descriptions(signature)
        )
        frames = [e for e in equations if e.label.endswith(":frame")]
        # 2 queries x 4 updates.
        assert len(frames) == 8

    def test_unaffected_query_frame_is_unconditional(self):
        signature = courses_signature()
        equations = synthesize_equations(
            signature, courses_descriptions(signature)
        )
        frame = next(
            e for e in equations if e.label == "synth:offered:enroll:frame"
        )
        assert frame.condition is None

    def test_affected_query_frame_is_guarded(self):
        signature = courses_signature()
        equations = synthesize_equations(
            signature, courses_descriptions(signature)
        )
        frame = next(
            e for e in equations if e.label == "synth:takes:enroll:frame"
        )
        assert frame.condition is not None


class TestE11Equivalence:
    """E11: the synthesized equations are observationally equivalent to
    the paper's hand-written ones on every trace."""

    def test_synthesized_spec_sufficiently_complete(self):
        report = check_sufficient_completeness(
            courses_synthesized(), depth=2
        )
        assert report.ok

    def test_snapshots_agree_on_all_short_traces(self):
        paper = TraceAlgebra(courses_algebraic())
        synthesized = TraceAlgebra(courses_synthesized())
        for trace in itertools.islice(paper.traces(2), 300):
            assert paper.snapshot(trace) == synthesized.snapshot(trace)

    def test_state_graphs_are_isomorphic(self):
        paper = TraceAlgebra(courses_algebraic()).explore()
        synthesized = TraceAlgebra(courses_synthesized()).explore()
        assert set(paper.states) == set(synthesized.states)
        assert {
            (t.source, t.update, t.params, t.target)
            for t in paper.transitions
        } == {
            (t.source, t.update, t.params, t.target)
            for t in synthesized.transitions
        }
