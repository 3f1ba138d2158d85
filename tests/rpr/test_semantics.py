"""Tests for the denotational semantics: the six defining clauses of
m (Section 5.1.2) plus the algebraic laws relating them, checked both
pointwise (via run) and on materialized relations."""

import pytest

from repro.errors import ExecutionError
from repro.logic import formulas as fm
from repro.logic.signature import PredicateSymbol
from repro.logic.sorts import Sort
from repro.logic.terms import Var
from repro.rpr.ast import (
    Assign,
    Insert,
    RelAssign,
    RelationalTerm,
    ScalarDecl,
    Schema,
    Seq,
    Skip,
    Star,
    Test,
    Union,
)
from repro.rpr.semantics import (
    DatabaseState,
    all_states,
    initial_state,
    run,
    run_proc,
    statement_relation,
)

THINGS = Sort("Things")
R_DECL = PredicateSymbol("R", (THINGS,))
X = Var("x", THINGS)
R_ATOM = fm.Atom(R_DECL, (X,))
R_HAS_A = fm.Exists(X, R_ATOM)

DOMAINS = {THINGS: ("t1", "t2")}


@pytest.fixture()
def schema():
    from repro.rpr.ast import RelationDecl

    return Schema(
        (RelationDecl("R", (THINGS,)),),
        (),
        (ScalarDecl("counter", THINGS),),
    )


@pytest.fixture()
def empty(schema):
    return initial_state(schema, scalars={"counter": "t1"})


def insert_t(value):
    from repro.rpr.ast import ValueLiteral

    return Insert("R", (ValueLiteral(value, THINGS),))


class TestDatabaseState:
    def test_make_normalizes(self):
        a = DatabaseState.make({"R": [("t1",), ("t2",)]})
        b = DatabaseState.make({"R": {("t2",), ("t1",)}})
        assert a == b
        assert hash(a) == hash(b)

    def test_missing_relation_raises(self):
        state = DatabaseState.make({"R": []})
        with pytest.raises(ExecutionError):
            state.relation("S")

    def test_with_scalar(self):
        state = DatabaseState.make({}, {"x": 1})
        assert state.with_scalar("x", 2).scalar("x") == 2
        with pytest.raises(ExecutionError):
            state.with_scalar("y", 0)

    def test_initial_state_requires_scalar_values(self, schema):
        with pytest.raises(ExecutionError):
            initial_state(schema)


class TestMeaningClauses:
    def test_assign_clause(self, schema, empty):
        from repro.rpr.ast import ValueLiteral

        result = run(
            Assign("counter", ValueLiteral("t2", THINGS)),
            empty,
            schema,
            DOMAINS,
        )
        assert result == {empty.with_scalar("counter", "t2")}

    def test_relassign_clause(self, schema, empty):
        # R := {x / x = x} fills the relation with the whole domain.
        term = RelationalTerm((X,), fm.Equals(X, X))
        (result,) = run(RelAssign("R", term), empty, schema, DOMAINS)
        assert result.relation("R") == {("t1",), ("t2",)}

    def test_test_clause(self, schema, empty):
        assert run(Test(fm.TRUE), empty, schema, DOMAINS) == {empty}
        assert run(Test(R_HAS_A), empty, schema, DOMAINS) == frozenset()

    def test_union_clause(self, schema, empty):
        result = run(
            Union(insert_t("t1"), insert_t("t2")), empty, schema, DOMAINS
        )
        assert len(result) == 2

    def test_seq_clause(self, schema, empty):
        (result,) = run(
            Seq(insert_t("t1"), insert_t("t2")), empty, schema, DOMAINS
        )
        assert result.relation("R") == {("t1",), ("t2",)}

    def test_star_clause_reflexive(self, schema, empty):
        result = run(Star(insert_t("t1")), empty, schema, DOMAINS)
        assert empty in result
        assert len(result) == 2

    def test_star_reaches_fixpoint(self, schema, empty):
        body = Union(insert_t("t1"), insert_t("t2"))
        result = run(Star(body), empty, schema, DOMAINS)
        # {}, {t1}, {t2}, {t1,t2}.
        assert len(result) == 4


class TestAlgebraicLaws:
    """m(p u q) = m(p) ∪ m(q), m(p ; q) = m(p) ∘ m(q), and star as the
    reflexive-transitive closure — checked on materialized relations
    over the full universe (the paper's actual definitions)."""

    def universe(self, schema):
        return list(
            all_states(schema, DOMAINS, scalar_values={"counter": ("t1",)})
        )

    def test_union_is_set_union(self, schema):
        universe = self.universe(schema)
        p, q = insert_t("t1"), insert_t("t2")
        m_union = statement_relation(
            Union(p, q), schema, DOMAINS, universe
        )
        m_p = statement_relation(p, schema, DOMAINS, universe)
        m_q = statement_relation(q, schema, DOMAINS, universe)
        assert m_union == m_p | m_q

    def test_seq_is_composition(self, schema):
        universe = self.universe(schema)
        p, q = insert_t("t1"), insert_t("t2")
        m_seq = statement_relation(Seq(p, q), schema, DOMAINS, universe)
        m_p = statement_relation(p, schema, DOMAINS, universe)
        m_q = statement_relation(q, schema, DOMAINS, universe)
        composed = {
            (a, c) for a, b in m_p for b2, c in m_q if b == b2
        }
        assert m_seq == composed

    def test_star_is_reflexive_transitive_closure(self, schema):
        universe = self.universe(schema)
        p = insert_t("t1")
        m_star = statement_relation(Star(p), schema, DOMAINS, universe)
        m_p = statement_relation(p, schema, DOMAINS, universe)
        closure = {(a, a) for a in universe}
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for b2, c in m_p:
                    if b == b2 and (a, c) not in closure:
                        closure.add((a, c))
                        changed = True
        assert m_star == closure

    def test_test_is_identity_on_satisfying_states(self, schema):
        universe = self.universe(schema)
        m_test = statement_relation(
            Test(R_HAS_A), schema, DOMAINS, universe
        )
        assert all(a == b for a, b in m_test)
        assert all(("t1",) in a.relation("R") or ("t2",) in a.relation("R")
                   for a, _ in m_test)


class TestProcMeaning:
    def test_run_proc_binds_parameters(self, courses_schema):
        domains = {
            Sort("Students"): ("s1",),
            Sort("Courses"): ("c1",),
        }
        state = initial_state(courses_schema)
        (after,) = run_proc(
            courses_schema, "offer", ("c1",), state, domains
        )
        assert after.relation("OFFERED") == {("c1",)}

    def test_run_proc_arity_checked(self, courses_schema):
        domains = {Sort("Students"): ("s1",), Sort("Courses"): ("c1",)}
        state = initial_state(courses_schema)
        with pytest.raises(ExecutionError):
            run_proc(courses_schema, "offer", (), state, domains)

    def test_blocked_if_then_is_noop_not_stuck(self, courses_schema):
        domains = {Sort("Students"): ("s1",), Sort("Courses"): ("c1",)}
        state = initial_state(courses_schema)
        (after,) = run_proc(
            courses_schema, "enroll", ("s1", "c1"), state, domains
        )
        assert after == state


class TestDesugarMemo:
    """Derived statements are expanded once per schema
    (:meth:`Schema.expansion`)."""

    def _top_level_desugars(self, monkeypatch) -> list:
        """Record the statements ``desugar`` is called on from outside
        itself (its recursion into sub-statements is not a call)."""
        from repro.rpr import ast

        calls = []
        depth = [0]
        original = ast.desugar

        def counting(statement, schema):
            if depth[0] == 0:
                calls.append(statement)
            depth[0] += 1
            try:
                return original(statement, schema)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(ast, "desugar", counting)
        return calls

    def test_each_derived_statement_once_per_schema(self, monkeypatch):
        from repro.applications.courses import (
            courses_algebraic,
            courses_schema_source,
        )
        from repro.refinement.second_third import check_refinement
        from repro.rpr.parser import parse_schema

        calls = self._top_level_desugars(monkeypatch)
        schema = parse_schema(courses_schema_source())
        spec = courses_algebraic()
        assert check_refinement(spec, schema).ok
        first = len(calls)
        # 401 procedure runs reach the derived statements again and
        # again; each is expanded once.
        assert first == len({id(s) for s in calls}) > 0
        assert check_refinement(spec, schema).ok
        assert len(calls) == first
        # Another schema (equal, but another object) expands its own.
        other = parse_schema(courses_schema_source())
        assert other == schema
        assert check_refinement(spec, other).ok
        assert len(calls) == 2 * first

    def test_schemas_share_no_entries(self):
        from repro.applications.courses import courses_schema_source
        from repro.rpr.parser import parse_schema

        schemas = [parse_schema(courses_schema_source()) for _ in "ab"]
        domains = {
            sort: ("c1", "c2") for sort in schemas[0].sorts
        }
        for schema in schemas:
            state = initial_state(schema)
            run_proc(schema, "offer", ("c1",), state, domains)
        first, second = (schema._expansions for schema in schemas)
        assert first and second
        assert not set(first) & set(second)
        for memo in (first, second):
            for key, (statement, _) in memo.items():
                # The entry keeps its statement alive under its id.
                assert key == id(statement)

    def test_unreached_bad_insert_does_not_raise(self, schema, empty):
        from repro.errors import SpecificationError

        bad = Insert("R", (X, X))  # R has one column
        never = Seq(Test(fm.FalseF()), bad)
        valuation = {X: "t1"}
        assert run(never, empty, schema, DOMAINS, valuation) == frozenset()
        assert not schema._expansions
        # Reached, it raises every time: errors are not stored.
        for _ in range(2):
            with pytest.raises(SpecificationError, match="arity"):
                run(Seq(Skip(), bad), empty, schema, DOMAINS, valuation)
        assert not schema._expansions

    def test_copies_start_empty(self, schema, empty):
        import copy
        import pickle

        run(Insert("R", (X,)), empty, schema, DOMAINS, {X: "t1"})
        assert schema._expansions
        for clone in (copy.copy(schema), pickle.loads(pickle.dumps(schema))):
            assert clone == schema
            assert clone._expansions == {}
