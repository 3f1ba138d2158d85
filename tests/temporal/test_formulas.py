"""Tests for the temporal extension's formula nodes, including the
duality property []P == ~<>~P."""

from hypothesis import given, strategies as st

from repro.logic import formulas as fm
from repro.logic.signature import PredicateSymbol, Signature
from repro.logic.sorts import Sort
from repro.logic.structures import Structure
from repro.logic.terms import Var
from repro.temporal.formulas import (
    Necessarily,
    Possibly,
    is_modal,
    modal_depth,
    necessity_as_dual,
)
from repro.temporal.kripke import KripkeUniverse
from repro.temporal.semantics import satisfies_temporal

COURSE = Sort("course")
OFFERED = PredicateSymbol("offered", (COURSE,), db=True)
C = Var("c", COURSE)
ATOM = fm.Atom(OFFERED, (C,))
CLOSED_ATOM = fm.Exists(C, ATOM)


class TestNodes:
    def test_free_vars_pass_through(self):
        assert Possibly(ATOM).free_vars() == frozenset({C})
        assert Necessarily(ATOM).free_vars() == frozenset({C})

    def test_str(self):
        assert str(Possibly(CLOSED_ATOM)) == "<>(exists c:course. offered(c))"
        assert str(Necessarily(fm.TRUE)) == "[]true"

    def test_subformulas(self):
        kinds = [
            type(s).__name__ for s in Possibly(fm.Not(ATOM)).subformulas()
        ]
        assert kinds == ["Possibly", "Not", "Atom"]


class TestClassification:
    def test_is_modal_detects_nested_operator(self):
        formula = fm.Forall(C, fm.Implies(ATOM, Possibly(ATOM)))
        assert is_modal(formula)

    def test_non_modal(self):
        assert not is_modal(fm.Forall(C, ATOM))

    def test_modal_depth(self):
        assert modal_depth(ATOM) == 0
        assert modal_depth(Possibly(ATOM)) == 1
        assert modal_depth(Necessarily(Possibly(ATOM))) == 2
        assert modal_depth(fm.And(Possibly(ATOM), ATOM)) == 1


class TestDuality:
    def test_rewrites_box(self):
        result = necessity_as_dual(Necessarily(CLOSED_ATOM))
        assert result == fm.Not(Possibly(fm.Not(CLOSED_ATOM)))

    def test_recurses_under_connectives(self):
        formula = fm.And(Necessarily(fm.TRUE), Possibly(fm.FALSE))
        result = necessity_as_dual(formula)
        assert not any(
            isinstance(s, Necessarily) for s in result.subformulas()
        )

    @given(st.integers(0, 255), st.sampled_from([0, 1, 2, 3]))
    def test_duality_is_semantic_identity(self, relation_bits, start):
        # Over random 2-course universes with random accessibility,
        # []P and ~<>~P agree at every state.
        signature = Signature(sorts=[COURSE])
        signature.add_predicate_symbol(OFFERED)
        carriers = {COURSE: ["c1", "c2"]}
        states = [
            Structure(signature, carriers, relations={"offered": rel})
            for rel in [
                set(),
                {("c1",)},
                {("c2",)},
                {("c1",), ("c2",)},
            ]
        ]
        edges = [
            (states[i], states[j])
            for i in range(4)
            for j in range(4)
            if relation_bits >> (i * 4 + j) & 1
        ]
        universe = KripkeUniverse(states, edges)
        formula = Necessarily(CLOSED_ATOM)
        dual = necessity_as_dual(formula)
        assert satisfies_temporal(
            universe, states[start], formula
        ) == satisfies_temporal(universe, states[start], dual)
