"""Tests for the syntactic extension of I to wffs (Section 4.3):
mapping temporal L1 formulas into L2 + the reachability predicate F."""

import pytest

from repro.logic import formulas as fm
from repro.logic.sorts import STATE
from repro.logic.terms import Var
from repro.refinement.first_second import (
    REACHABILITY_PREDICATE,
    translate_axiom,
)
from repro.refinement.interpretation import Interpretation


@pytest.fixture(scope="module")
def interpretation():
    from repro.applications.courses import (
        courses_algebraic,
        courses_information,
    )

    return Interpretation.homonym(
        courses_information(), courses_algebraic().signature
    )


@pytest.fixture(scope="module")
def info():
    from repro.applications.courses import courses_information

    return courses_information()


class TestAtomTranslation:
    def test_db_atom_becomes_equality(self, interpretation, info):
        static = info.static_constraints[0]
        translated = translate_axiom(interpretation, static)
        # No Atom over db-predicates survives; they become Equals.
        for sub in translated.subformulas():
            if isinstance(sub, fm.Atom):
                assert sub.predicate.name == "F"
        equalities = [
            sub
            for sub in translated.subformulas()
            if isinstance(sub, fm.Equals)
        ]
        assert equalities

    def test_free_state_variable_is_sigma(self, interpretation, info):
        static = info.static_constraints[0]
        translated = translate_axiom(interpretation, static)
        free = translated.free_vars()
        assert free == frozenset({Var("sigma", STATE)})


class TestModalTranslation:
    def test_box_becomes_forall_over_f(self, interpretation, info):
        transition = info.transition_constraints[0]
        translated = translate_axiom(interpretation, transition)
        f_atoms = [
            sub
            for sub in translated.subformulas()
            if isinstance(sub, fm.Atom) and sub.predicate.name == "F"
        ]
        # The constraint has two nested boxes.
        assert len(f_atoms) == 2
        assert REACHABILITY_PREDICATE.arg_sorts == (STATE, STATE)

    def test_box_shape(self, interpretation, info):
        # [](P) at sigma  ->  forall sigma1. F(sigma, sigma1) -> P'.
        transition = info.transition_constraints[0]
        translated = translate_axiom(interpretation, transition)
        foralls = [
            sub
            for sub in translated.subformulas()
            if isinstance(sub, fm.Forall) and sub.var.sort == STATE
        ]
        assert len(foralls) == 2
        outer = foralls[0]
        assert isinstance(outer.body, fm.Implies)
        assert isinstance(outer.body.lhs, fm.Atom)
        assert outer.body.lhs.predicate.name == "F"

    def test_diamond_becomes_exists(self, interpretation, info):
        signature = info.signature
        from repro.logic.parser import parse_formula

        diamond = parse_formula(
            "<>exists c:course. offered(c)",
            signature,
            allow_modal=True,
        )
        translated = translate_axiom(interpretation, diamond)
        assert isinstance(translated, fm.Exists)
        assert translated.var.sort == STATE
        assert isinstance(translated.body, fm.And)

    def test_fresh_state_variables_distinct(self, interpretation, info):
        transition = info.transition_constraints[0]
        translated = translate_axiom(interpretation, transition)
        state_vars = {
            sub.var.name
            for sub in translated.subformulas()
            if isinstance(sub, (fm.Forall, fm.Exists))
            and sub.var.sort == STATE
        }
        assert len(state_vars) == 2
