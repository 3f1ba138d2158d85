"""Tests for sufficient completeness (Section 4.4a), including
failure-injected specifications."""

from repro.algebraic.completeness import (
    _UNCOVERED_CAP,
    check_coverage,
    check_sufficient_completeness,
    check_termination,
)
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.signature import AlgebraicSignature
from repro.algebraic.spec import AlgebraicSpec
from repro.applications.courses import courses_algebraic
from repro.logic import formulas as fm
from repro.logic.sorts import STATE
from repro.logic.terms import Var


def _c1_only_spec():
    """Conditions only cover ``c = c1``: evaluating ``q(c2,
    touch(...))`` finds no applicable equation."""
    signature, c, u = _tiny()
    course = signature.logic.sort("course")
    touched = signature.apply_update("touch", c, u)
    only_c1 = fm.Equals(c, signature.value(course, "c1"))
    equations = (
        ConditionalEquation(
            signature.apply_query("q", c, signature.initial_term()),
            signature.false(),
        ),
        ConditionalEquation(
            signature.apply_query("r", c, signature.initial_term()),
            signature.false(),
        ),
        ConditionalEquation(
            signature.apply_query("q", c, touched),
            signature.true(),
            only_c1,
        ),
        ConditionalEquation(
            signature.apply_query("r", c, touched),
            signature.false(),
        ),
    )
    return AlgebraicSpec(signature, equations)


def _tiny():
    signature = AlgebraicSignature()
    course = signature.add_parameter_sort("course")
    signature.add_parameter_values(course, ["c1", "c2"])
    signature.add_query("q", [course])
    signature.add_query("r", [course])
    signature.add_initial()
    signature.add_update("touch", [course])
    course_sort = course
    c = Var("c", course_sort)
    u = Var("U", STATE)
    return signature, c, u


class TestTermination:
    def test_paper_spec_is_structural(self):
        report = check_termination(courses_algebraic())
        assert report.ok
        assert report.structural
        assert "terminating" in str(report)

    def test_circular_spec_detected(self):
        signature, c, u = _tiny()
        touched = signature.apply_update("touch", c, u)
        equations = (
            ConditionalEquation(
                signature.apply_query("q", c, signature.initial_term()),
                signature.false(),
            ),
            ConditionalEquation(
                signature.apply_query("r", c, signature.initial_term()),
                signature.false(),
            ),
            ConditionalEquation(
                signature.apply_query("q", c, touched),
                signature.apply_query("r", c, touched),
            ),
            ConditionalEquation(
                signature.apply_query("r", c, touched),
                signature.apply_query("q", c, touched),
            ),
        )
        report = check_termination(AlgebraicSpec(signature, equations))
        assert not report.ok
        assert report.cycles
        assert not report.structural
        assert "circular" in str(report)

    def test_non_decreasing_but_acyclic_is_accepted(self):
        # q on touch refers to r on the unreduced state; r always
        # reduces.  No cycle, so termination still certified.
        signature, c, u = _tiny()
        touched = signature.apply_update("touch", c, u)
        equations = (
            ConditionalEquation(
                signature.apply_query("q", c, signature.initial_term()),
                signature.false(),
            ),
            ConditionalEquation(
                signature.apply_query("r", c, signature.initial_term()),
                signature.false(),
            ),
            ConditionalEquation(
                signature.apply_query("q", c, touched),
                signature.apply_query("r", c, touched),
            ),
            ConditionalEquation(
                signature.apply_query("r", c, touched),
                signature.true(),
            ),
        )
        report = check_termination(AlgebraicSpec(signature, equations))
        assert report.ok
        assert not report.structural
        assert report.non_decreasing_calls

    def test_condition_calls_analyzed_too(self):
        signature, c, u = _tiny()
        touched = signature.apply_update("touch", c, u)
        condition = fm.Equals(
            signature.apply_query("q", c, touched), signature.true()
        )
        equations = (
            ConditionalEquation(
                signature.apply_query("q", c, touched),
                signature.true(),
                condition,
            ),
        )
        report = check_termination(AlgebraicSpec(signature, equations))
        assert not report.ok


class TestCoverage:
    def test_paper_spec_covered(self):
        report = check_coverage(courses_algebraic(), depth=2)
        assert report.ok
        assert report.traces_checked > 0

    def test_missing_constructor_reported(self):
        signature, c, u = _tiny()
        equations = (
            ConditionalEquation(
                signature.apply_query("q", c, signature.initial_term()),
                signature.false(),
            ),
            ConditionalEquation(
                signature.apply_query("r", c, signature.initial_term()),
                signature.false(),
            ),
            ConditionalEquation(
                signature.apply_query(
                    "r", c, signature.apply_update("touch", c, u)
                ),
                signature.false(),
            ),
        )
        report = check_coverage(
            AlgebraicSpec(signature, equations), depth=1
        )
        assert not report.ok
        assert ("q", "touch") in report.missing_constructors

    def test_non_exhaustive_conditions_reported(self):
        report = check_coverage(_c1_only_spec(), depth=1)
        assert not report.ok
        assert report.uncovered
        assert "gaps" in str(report)

    def test_scan_stops_at_the_gap_cap(self):
        report = check_coverage(_c1_only_spec(), depth=2)
        assert not report.ok
        assert len(report.uncovered) == _UNCOVERED_CAP
        # Seven traces reach depth 2; the tenth gap turns up on the
        # fifth, and the scan stops there.
        assert report.traces_checked == 5


class TestCombined:
    def test_paper_spec_sufficiently_complete(self):
        report = check_sufficient_completeness(
            courses_algebraic(), depth=2
        )
        assert report.ok
        assert "sufficiently complete" in str(report)

    def test_combined_failure(self):
        signature, c, u = _tiny()
        equations = (
            ConditionalEquation(
                signature.apply_query("q", c, signature.initial_term()),
                signature.false(),
            ),
        )
        report = check_sufficient_completeness(
            AlgebraicSpec(signature, equations), depth=1
        )
        assert not report.ok
        assert "NOT sufficiently complete" in str(report)
