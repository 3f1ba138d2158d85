"""Tests for NNF/prenex transformations, including property-based
semantic-equivalence checks over random formulas and structures."""

from hypothesis import given, settings, strategies as st

from repro.logic import formulas as fm
from repro.logic.semantics import satisfies
from repro.logic.signature import Signature
from repro.logic.sorts import Sort
from repro.logic.structures import Structure
from repro.logic.terms import Var
from repro.logic.transformations import (
    is_nnf,
    is_prenex,
    to_nnf,
    to_prenex,
)

THING = Sort("thing")


def _signature():
    sig = Signature(sorts=[THING])
    sig.add_predicate("p", [THING], db=True)
    sig.add_predicate("q", [THING, THING], db=True)
    return sig


SIG = _signature()
X = Var("x", THING)
Y = Var("y", THING)
P_X = fm.Atom(SIG.predicate("p"), (X,))
Q_XY = fm.Atom(SIG.predicate("q"), (X, Y))


def formula_strategy():
    atoms = st.sampled_from(
        [P_X, Q_XY, fm.Equals(X, Y), fm.TRUE, fm.FALSE]
    )

    def extend(children):
        return st.one_of(
            st.builds(fm.Not, children),
            st.builds(fm.And, children, children),
            st.builds(fm.Or, children, children),
            st.builds(fm.Implies, children, children),
            st.builds(fm.Iff, children, children),
            st.builds(lambda b: fm.Forall(X, b), children),
            st.builds(lambda b: fm.Exists(Y, b), children),
        )

    return st.recursive(atoms, extend, max_leaves=8)


def structure_strategy():
    values = ("a", "b")
    return st.builds(
        lambda p_rows, q_rows: Structure(
            SIG,
            {THING: values},
            relations={"p": p_rows, "q": q_rows},
        ),
        st.sets(st.sampled_from([("a",), ("b",)])),
        st.sets(
            st.sampled_from(
                [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
            )
        ),
    )


VALUATIONS = st.fixed_dictionaries(
    {X: st.sampled_from(("a", "b")), Y: st.sampled_from(("a", "b"))}
)


class TestNNF:
    def test_implication_expanded(self):
        result = to_nnf(fm.Implies(P_X, Q_XY))
        assert result == fm.Or(fm.Not(P_X), Q_XY)

    def test_negated_forall_flips(self):
        result = to_nnf(fm.Not(fm.Forall(X, P_X)))
        assert result == fm.Exists(X, fm.Not(P_X))

    def test_double_negation_removed(self):
        assert to_nnf(fm.Not(fm.Not(P_X))) == P_X

    def test_de_morgan(self):
        result = to_nnf(fm.Not(fm.And(P_X, Q_XY)))
        assert result == fm.Or(fm.Not(P_X), fm.Not(Q_XY))

    @settings(max_examples=100, deadline=None)
    @given(formula_strategy())
    def test_output_is_nnf(self, formula):
        assert is_nnf(to_nnf(formula))

    @settings(max_examples=100, deadline=None)
    @given(formula_strategy(), structure_strategy(), VALUATIONS)
    def test_nnf_preserves_semantics(self, formula, structure, valuation):
        assert satisfies(structure, formula, dict(valuation)) == satisfies(
            structure, to_nnf(formula), dict(valuation)
        )


class TestPrenex:
    def test_simple_pull(self):
        formula = fm.And(fm.Forall(X, P_X), fm.TRUE)
        result = to_prenex(formula)
        assert isinstance(result, fm.Forall)

    def test_colliding_binders_renamed(self):
        # (forall x. p(x)) & (exists x. p(x)): the second binder must
        # be renamed, not merged.
        formula = fm.And(fm.Forall(X, P_X), fm.Exists(X, P_X))
        result = to_prenex(formula)
        assert is_prenex(result)
        binders = []
        node = result
        while isinstance(node, (fm.Forall, fm.Exists)):
            binders.append(node.var.name)
            node = node.body
        assert len(binders) == len(set(binders)) == 2

    @settings(max_examples=100, deadline=None)
    @given(formula_strategy())
    def test_output_is_prenex(self, formula):
        assert is_prenex(to_prenex(formula))

    @settings(max_examples=100, deadline=None)
    @given(formula_strategy(), structure_strategy(), VALUATIONS)
    def test_prenex_preserves_semantics(
        self, formula, structure, valuation
    ):
        assert satisfies(structure, formula, dict(valuation)) == satisfies(
            structure, to_prenex(formula), dict(valuation)
        )

    def test_free_variables_preserved(self):
        formula = fm.And(fm.Exists(Y, Q_XY), P_X)
        result = to_prenex(formula)
        assert result.free_vars() == formula.free_vars()

    def test_regression_binder_does_not_capture_sibling_free_var(self):
        # (forall x. p(x)) | p(x_free): pulling the binder over the
        # right disjunct must rename it, not capture the free x.
        formula = fm.Or(fm.Forall(X, P_X), P_X)
        result = to_prenex(formula)
        structure = Structure(
            SIG, {THING: ["a", "b"]}, relations={"p": {("a",)}}
        )
        assert satisfies(structure, formula, {X: "a"})
        assert satisfies(structure, result, {X: "a"})
        assert X in result.free_vars()
