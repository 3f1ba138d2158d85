"""Property-based tests of the denotational semantics: the defining
laws of m hold for *randomly generated* statements, not just
hand-picked ones."""

from hypothesis import given, settings, strategies as st

from repro.logic import formulas as fm
from repro.logic.signature import PredicateSymbol
from repro.logic.sorts import Sort
from repro.rpr.ast import (
    Delete,
    IfThen,
    IfThenElse,
    Insert,
    RelationDecl,
    Schema,
    Seq,
    Skip,
    Star,
    Test,
    Union,
    ValueLiteral,
    While,
    desugar,
)
from repro.rpr.semantics import DatabaseState, run

THINGS = Sort("Things")
VALUES = ("t1", "t2")
DOMAINS = {THINGS: VALUES}
R = PredicateSymbol("R", (THINGS,))
S = PredicateSymbol("S", (THINGS,))

SCHEMA = Schema(
    (RelationDecl("R", (THINGS,)), RelationDecl("S", (THINGS,))),
    (),
)


def _lit(value):
    return ValueLiteral(value, THINGS)


def _formula_strategy():
    atoms = st.sampled_from(
        [
            fm.Atom(R, (_lit("t1"),)),
            fm.Atom(R, (_lit("t2"),)),
            fm.Atom(S, (_lit("t1"),)),
            fm.TRUE,
            fm.FALSE,
        ]
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(fm.Not, children),
            st.builds(fm.And, children, children),
            st.builds(fm.Or, children, children),
        ),
        max_leaves=4,
    )


def _statement_strategy(max_depth=3):
    base = st.one_of(
        st.just(Skip()),
        st.builds(Insert, st.just("R"), st.tuples(st.sampled_from(
            [_lit("t1"), _lit("t2")]))),
        st.builds(Delete, st.just("R"), st.tuples(st.sampled_from(
            [_lit("t1"), _lit("t2")]))),
        st.builds(Insert, st.just("S"), st.tuples(st.just(_lit("t1")))),
        st.builds(Test, _formula_strategy()),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.builds(Seq, children, children),
            st.builds(Union, children, children),
            st.builds(IfThen, _formula_strategy(), children),
            st.builds(
                IfThenElse, _formula_strategy(), children, children
            ),
            st.builds(Star, children),
        ),
        max_leaves=2 ** max_depth,
    )


STATES = st.builds(
    lambda r, s: DatabaseState.make({"R": r, "S": s}),
    st.sets(st.sampled_from([("t1",), ("t2",)])),
    st.sets(st.sampled_from([("t1",), ("t2",)])),
)


class TestSemanticsLaws:
    @settings(max_examples=60, deadline=None)
    @given(_statement_strategy(), _statement_strategy(), STATES)
    def test_union_is_image_union(self, p, q, state):
        assert run(Union(p, q), state, SCHEMA, DOMAINS) == run(
            p, state, SCHEMA, DOMAINS
        ) | run(q, state, SCHEMA, DOMAINS)

    @settings(max_examples=60, deadline=None)
    @given(_statement_strategy(), _statement_strategy(), STATES)
    def test_seq_is_image_composition(self, p, q, state):
        composed = frozenset(
            final
            for middle in run(p, state, SCHEMA, DOMAINS)
            for final in run(q, middle, SCHEMA, DOMAINS)
        )
        assert run(Seq(p, q), state, SCHEMA, DOMAINS) == composed

    @settings(max_examples=40, deadline=None)
    @given(_statement_strategy(2), STATES)
    def test_star_contains_identity_and_is_idempotent(self, p, state):
        image = run(Star(p), state, SCHEMA, DOMAINS)
        assert state in image
        # star is a closure: iterating from any reached state stays
        # inside the image.
        again = frozenset(
            final
            for middle in image
            for final in run(Star(p), middle, SCHEMA, DOMAINS)
        )
        assert again == image

    @settings(max_examples=60, deadline=None)
    @given(_statement_strategy(), STATES)
    def test_desugaring_preserves_meaning(self, p, state):
        assert run(p, state, SCHEMA, DOMAINS) == run(
            desugar(p, SCHEMA), state, SCHEMA, DOMAINS
        )

    @settings(max_examples=60, deadline=None)
    @given(_formula_strategy(), _statement_strategy(), STATES)
    def test_if_then_else_laws(self, condition, p, state):
        # if C then p else p  ==  p
        both = IfThenElse(condition, p, p)
        assert run(both, state, SCHEMA, DOMAINS) == run(
            p, state, SCHEMA, DOMAINS
        )

    @settings(max_examples=60, deadline=None)
    @given(_formula_strategy(), STATES)
    def test_test_partitions(self, condition, state):
        # P? u (~P)?  behaves as skip.
        partitioned = Union(Test(condition), Test(fm.Not(condition)))
        assert run(partitioned, state, SCHEMA, DOMAINS) == frozenset(
            {state}
        )

    @settings(max_examples=30, deadline=None)
    @given(_formula_strategy(), _statement_strategy(2), STATES)
    def test_while_exits_with_condition_false(
        self, condition, body, state
    ):
        from repro.rpr.semantics import satisfies

        loop = While(condition, body)
        for final in run(loop, state, SCHEMA, DOMAINS):
            assert not satisfies(condition, final, DOMAINS)


class TestInsertDeleteLaws:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(VALUES), STATES)
    def test_insert_then_delete_removes(self, value, state):
        program = Seq(Insert("R", (_lit(value),)), Delete("R", (_lit(value),)))
        (result,) = run(program, state, SCHEMA, DOMAINS)
        assert (value,) not in result.relation("R")

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(VALUES), STATES)
    def test_insert_idempotent(self, value, state):
        once = run(Insert("R", (_lit(value),)), state, SCHEMA, DOMAINS)
        twice = run(
            Seq(Insert("R", (_lit(value),)), Insert("R", (_lit(value),))),
            state,
            SCHEMA,
            DOMAINS,
        )
        assert once == twice

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(VALUES), STATES)
    def test_insert_only_touches_target_relation(self, value, state):
        (result,) = run(Insert("R", (_lit(value),)), state, SCHEMA, DOMAINS)
        assert result.relation("S") == state.relation("S")
