"""Tests for the 1st->2nd refinement bundle (Section 4.4), with
failure-injected specifications for the negative paths."""

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.description import (
    Effect,
    StructuredDescription,
    initial_equations,
    synthesize_equations,
)
from repro.algebraic.spec import AlgebraicSpec
from repro.applications.courses import (
    courses_descriptions,
    courses_information,
    courses_information_carriers,
    courses_signature,
)
from repro.refinement import first_second
from repro.refinement.first_second import (
    check_refinement,
    check_static_consistency,
    check_transition_consistency,
)


@pytest.fixture(scope="module")
def info():
    return courses_information()


@pytest.fixture(scope="module")
def carriers():
    return courses_information_carriers()


def broken_cancel_spec() -> AlgebraicSpec:
    """The courses spec with cancel's precondition REMOVED: cancelling
    a taken course now succeeds, violating the static constraint."""
    signature = courses_signature()
    descriptions = courses_descriptions(signature)
    fixed = []
    for description in descriptions:
        if description.update == "cancel":
            description = StructuredDescription(
                update="cancel",
                params=description.params,
                precondition=None,  # the injected fault
                effects=description.effects,
                doc="BROKEN: cancel without checking enrollments",
            )
        fixed.append(description)
    equations = initial_equations(signature) + synthesize_equations(
        signature, fixed
    )
    return AlgebraicSpec(signature, tuple(equations), name="broken cancel")


def dropping_enroll_spec() -> AlgebraicSpec:
    """The courses spec with an extra 'drop' update that removes a
    student's only enrollment — violating the transition constraint
    while preserving the static one."""
    signature = courses_signature()
    student = signature.logic.sort("student")
    course = signature.logic.sort("course")
    from repro.logic.terms import Var

    s = Var("s", student)
    c = Var("c", course)
    signature.add_update("drop", [student, course])
    descriptions = courses_descriptions(signature) + [
        StructuredDescription(
            update="drop",
            params=(s, c),
            precondition=None,
            effects=(Effect("takes", (s, c), False),),
            doc="drop an enrollment unconditionally",
        )
    ]
    equations = initial_equations(signature) + synthesize_equations(
        signature, descriptions
    )
    return AlgebraicSpec(signature, tuple(equations), name="with drop")


class TestPositive:
    def test_full_bundle_on_paper_example(self, info, carriers):
        from repro.applications.courses import courses_algebraic

        report = check_refinement(
            info, carriers, TraceAlgebra(courses_algebraic())
        )
        assert report.ok
        assert report.correct
        assert report.completeness.ok
        assert report.static.ok
        assert report.inclusion.ok
        assert report.transitions.ok
        text = str(report)
        assert "(a)" in text and "(d)" in text


class TestStaticViolation:
    def test_broken_cancel_detected(self, info, carriers):
        from repro.refinement.interpretation import Interpretation

        algebra = TraceAlgebra(broken_cancel_spec())
        interpretation = Interpretation.homonym(info, algebra.signature)
        report = check_static_consistency(
            info, carriers, algebra, interpretation
        )
        assert not report.ok
        assert report.violations

    @pytest.mark.slow
    def test_broken_cancel_full_check(self, info, carriers):
        algebra = TraceAlgebra(broken_cancel_spec())
        report = check_refinement(info, carriers, algebra)
        assert not report.static.ok
        assert not report.correct
        assert report.static.violations
        # The witness trace must actually cancel a taken course.
        trace, axiom = report.static.violations[0]
        assert "cancel" in str(trace)


class TestTransitionViolation:
    def test_drop_update_breaks_transition_constraint(
        self, info, carriers
    ):
        algebra = TraceAlgebra(dropping_enroll_spec())
        report = check_refinement(info, carriers, algebra)
        # Static consistency still holds (dropping never creates an
        # orphan enrollment)...
        assert report.static.ok
        # ...but the never-drop-to-zero transition constraint fails.
        assert not report.transitions.ok
        assert not report.correct
        violated = {t.update for t, _ in report.transitions.violations}
        assert violated == {"drop"}


class TestTransitionConsistencyDirect:
    def test_paper_example_all_edges_pass(self, info, carriers):
        from repro.applications.courses import courses_algebraic

        algebra = TraceAlgebra(courses_algebraic())
        from repro.refinement.interpretation import Interpretation

        interpretation = Interpretation.homonym(info, algebra.signature)
        report = check_transition_consistency(
            info, carriers, algebra, interpretation
        )
        assert report.ok
        assert report.transitions_checked == 400


class TestTransitionPairMemo:
    def test_one_check_per_endpoint_pair(
        self, info, carriers, monkeypatch
    ):
        from repro import obs
        from repro.applications.courses import courses_algebraic
        from repro.refinement.interpretation import Interpretation

        pairs = []
        original = first_second._edge_violations

        def counting(*args):
            transition = args[-1]
            pairs.append((transition.source, transition.target))
            return original(*args)

        monkeypatch.setattr(first_second, "_edge_violations", counting)
        algebra = TraceAlgebra(courses_algebraic())
        interpretation = Interpretation.homonym(info, algebra.signature)
        tracer = obs.Tracer()
        with obs.activate(tracer):
            report = check_transition_consistency(
                info, carriers, algebra, interpretation
            )
        counters = tracer.counter_totals()
        assert report.ok
        assert report.transitions_checked == 400
        assert len(pairs) == len(set(pairs)) == 101
        assert counters["transitions.edges"] == 400
        assert counters["transitions.edge_checks"] == 101
