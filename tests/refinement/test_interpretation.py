"""Tests for interpretations I and the induced structure map M."""

import pytest

from repro.errors import RefinementError
from repro.logic.sorts import STATE
from repro.logic.terms import Var
from repro.refinement.interpretation import (
    Interpretation,
    PredicateInterpretation,
)


class TestPredicateInterpretation:
    def test_boolean_term_required(self, courses_spec):
        signature = courses_spec.signature
        sigma = Var("sigma", STATE)
        with pytest.raises(RefinementError):
            PredicateInterpretation((), sigma, sigma)

    def test_state_var_sort_checked(self, courses_spec):
        signature = courses_spec.signature
        course = signature.logic.sort("course")
        x = Var("x", course)
        term = signature.apply_query("offered", x, Var("sigma", STATE))
        with pytest.raises(RefinementError):
            PredicateInterpretation((x,), Var("sigma", course), term)

    def test_unexpected_free_vars_rejected(self, courses_spec):
        signature = courses_spec.signature
        course = signature.logic.sort("course")
        sigma = Var("sigma", STATE)
        stray = Var("stray", course)
        term = signature.apply_query("offered", stray, sigma)
        with pytest.raises(RefinementError):
            PredicateInterpretation((), sigma, term)


class TestHomonym:
    def test_builds_for_courses(self, courses_info, courses_spec):
        interpretation = Interpretation.homonym(
            courses_info, courses_spec.signature
        )
        assert set(interpretation.predicate_names) == {"offered", "takes"}

    def test_missing_query_rejected(self, courses_info):
        from repro.algebraic.signature import AlgebraicSignature

        bare = AlgebraicSignature()
        with pytest.raises(
            RefinementError,
            match="no query named 'offered' for the homonym "
            "interpretation",
        ):
            Interpretation.homonym(courses_info, bare)

    def test_query_lookup_bug_propagates(self, courses_info, monkeypatch):
        from repro.applications.courses import courses_algebraic

        signature = courses_algebraic().signature

        def broken(name):
            raise RuntimeError("query lookup bug")

        monkeypatch.setattr(signature, "query", broken)
        with pytest.raises(RuntimeError, match="query lookup bug"):
            Interpretation.homonym(courses_info, signature)

    def test_uncovered_predicate_lookup_raises(
        self, courses_info, courses_spec
    ):
        interpretation = Interpretation.homonym(
            courses_info, courses_spec.signature
        )
        with pytest.raises(RefinementError):
            interpretation.of("ghost")


class TestRealization:
    def test_realize_matches_query(
        self, courses_info, courses_spec, courses_algebra
    ):
        interpretation = Interpretation.homonym(
            courses_info, courses_spec.signature
        )
        trace = courses_algebra.apply(
            "offer", "c1", trace=courses_algebra.initial_trace()
        )
        assert interpretation.realize(
            courses_algebra, "offered", ("c1",), trace
        )
        assert not interpretation.realize(
            courses_algebra, "offered", ("c2",), trace
        )

    def test_structure_of_trace(
        self, courses_info, courses_carriers, courses_spec, courses_algebra
    ):
        interpretation = Interpretation.homonym(
            courses_info, courses_spec.signature
        )
        trace = courses_algebra.apply(
            "enroll",
            "s1",
            "c1",
            trace=courses_algebra.apply(
                "offer", "c1", trace=courses_algebra.initial_trace()
            ),
        )
        structure = interpretation.structure_of_trace(
            courses_info, courses_carriers, courses_algebra, trace
        )
        assert structure.relation("offered") == {("c1",)}
        assert structure.relation("takes") == {("s1", "c1")}
