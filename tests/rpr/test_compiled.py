"""The compiled RPR against its reference semantics.

:func:`compile_proc`, :func:`compile_statement` and
:func:`compile_formula` must compute what :func:`run_proc`, :func:`run`
and :func:`satisfies` compute: the same images on every procedure,
reachable state and argument tuple of the shipped applications (and of
three faulty courses schemas), the same query realizations, and the
same error, of the same type and message, at the point the interpreter
raises it, never at compile time.
"""

import itertools

import pytest
from hypothesis import given, settings

from repro.cli import APPLICATIONS
from repro.errors import ExecutionError, RefinementError, SpecificationError
from repro.logic import formulas as fm
from repro.logic.signature import FunctionSymbol, PredicateSymbol
from repro.logic.sorts import Sort
from repro.logic.terms import App, Var
from repro.refinement.second_third import (
    InducedStructure,
    QueryRealization,
    RepresentationMap,
)
from repro.rpr.ast import (
    Assign,
    IfThen,
    Insert,
    ProcDecl,
    RelAssign,
    RelationDecl,
    RelationalTerm,
    ScalarDecl,
    ScalarRef,
    Schema,
    Seq,
    Skip,
    Test,
    Union,
    ValueLiteral,
)
from repro.rpr.parser import parse_schema
from repro.rpr.semantics import (
    compile_formula,
    compile_proc,
    compile_statement,
    initial_state,
    run,
    run_proc,
    satisfies,
)
from repro.temporal.formulas import Necessarily
from tests.refinement.test_second_third import (
    BLOCKING_OFFER,
    BROKEN_CANCEL,
    NONDETERMINISTIC,
)
from tests.rpr.test_semantics_properties import (
    DOMAINS as LAW_DOMAINS,
    SCHEMA as LAW_SCHEMA,
    STATES,
    _statement_strategy,
)

APPS = ["courses", "library", "projects", "bank"]


def _outcome(evaluate):
    """A value, or the type and message of the error raised."""
    try:
        return ("value", evaluate())
    except Exception as exc:  # compared, never swallowed
        return ("raised", type(exc), str(exc))


def _environment(valuation, slots):
    return [*valuation.values(), *[None] * (next(slots) - len(valuation))]


def compiled_run(statement, state, schema, domains, valuation=None):
    """``run`` by a closure compiled from ``statement``."""
    valuation = dict(valuation or {})
    slots = itertools.count(len(valuation))
    closure = compile_statement(
        statement,
        schema,
        domains,
        {var: index for index, var in enumerate(valuation)},
        slots,
    )
    env = _environment(valuation, slots)
    return lambda: closure(state, env)


def compiled_satisfies(formula, state, domains, valuation=None):
    """``satisfies`` by a closure compiled from ``formula``."""
    valuation = dict(valuation or {})
    slots = itertools.count(len(valuation))
    closure = compile_formula(
        formula,
        domains,
        {var: index for index, var in enumerate(valuation)},
        slots,
    )
    env = _environment(valuation, slots)
    return lambda: closure(state, env)


def _induced(framework):
    spec = framework.algebraic
    rep_map = framework.representation or RepresentationMap.homonym(
        spec.signature, framework.schema
    )
    return InducedStructure(spec.signature, framework.schema, rep_map)


def _compare_procedures(schema, domains, states):
    compared = 0
    for proc in schema.procs:
        runner = compile_proc(schema, proc.name, domains)
        spaces = [domains[var.sort] for var in proc.params]
        for args in itertools.product(*spaces):
            for state in states:
                assert _outcome(lambda: runner(args, state)) == _outcome(
                    lambda: run_proc(schema, proc.name, args, state, domains)
                )
                compared += 1
    return compared


# ---------------------------------------------------------------------
# differential: every procedure, state and argument tuple
# ---------------------------------------------------------------------
class TestProceduresMatchRunProc:
    @pytest.mark.parametrize("app", APPS)
    def test_shipped_applications(self, app):
        framework = APPLICATIONS[app]()
        induced = _induced(framework)
        states = induced.reachable_states()
        compared = _compare_procedures(
            framework.schema, induced.domains, states
        )
        assert compared >= len(framework.schema.procs) * len(states)

    @pytest.mark.parametrize(
        "source", [BROKEN_CANCEL, BLOCKING_OFFER, NONDETERMINISTIC],
        ids=["broken-cancel", "blocking-offer", "nondeterministic"],
    )
    def test_faulty_courses_schemas(self, source):
        # The faulty procedures run on the correct schema's states.
        induced = _induced(APPLICATIONS["courses"]())
        states = induced.reachable_states()
        schema = parse_schema(source)
        assert _compare_procedures(schema, induced.domains, states)

    def test_nondeterministic_offer_has_two_successors(self):
        induced = _induced(APPLICATIONS["courses"]())
        schema = parse_schema(NONDETERMINISTIC)
        state = induced.initial()
        offer = compile_proc(schema, "offer", induced.domains)
        assert len(offer(("c1",), state)) == 2

    def test_wrong_argument_count_and_unknown_procedure(self):
        framework = APPLICATIONS["courses"]()
        induced = _induced(framework)
        schema, domains = framework.schema, induced.domains
        state = induced.initial()
        runner = compile_proc(schema, "offer", domains)
        assert _outcome(lambda: runner((), state)) == _outcome(
            lambda: run_proc(schema, "offer", (), state, domains)
        )
        with pytest.raises(SpecificationError, match="undeclared proc"):
            compile_proc(schema, "ghost", domains)

    @settings(max_examples=80, deadline=None)
    @given(_statement_strategy(), STATES)
    def test_random_statements(self, statement, state):
        assert _outcome(
            compiled_run(statement, state, LAW_SCHEMA, LAW_DOMAINS)
        ) == _outcome(lambda: run(statement, state, LAW_SCHEMA, LAW_DOMAINS))


class TestRealizationsMatchSatisfies:
    @pytest.mark.parametrize("app", APPS)
    def test_every_query_state_and_parameter_tuple(self, app):
        framework = APPLICATIONS[app]()
        induced = _induced(framework)
        signature = framework.algebraic.signature
        compared = 0
        for state in induced.reachable_states():
            for query in signature.queries:
                spaces = [
                    signature.domain(sort) for sort in query.arg_sorts[:-1]
                ]
                for params in itertools.product(*spaces):
                    assert _outcome(
                        lambda: induced._realize_compiled(
                            query.name, params, state
                        )
                    ) == _outcome(
                        lambda: induced._realize(query.name, params, state)
                    )
                    compared += 1
        assert compared

    def test_non_functional_realization(self):
        framework = APPLICATIONS["courses"]()
        spec, schema = framework.algebraic, framework.schema
        rep_map = RepresentationMap.homonym(spec.signature, schema)
        offered = rep_map.realization("offered")
        rep_map.query_map["offered"] = QueryRealization(
            offered.variables,
            offered.formula,
            Var("m", offered.variables[0].sort),
        )
        induced = InducedStructure(spec.signature, schema, rep_map)
        state = induced.initial()
        compiled = _outcome(
            lambda: induced._realize_compiled("offered", ("c1",), state)
        )
        assert compiled == _outcome(
            lambda: induced._realize("offered", ("c1",), state)
        )
        assert compiled[1] is RefinementError
        assert "not functional" in compiled[2]


# ---------------------------------------------------------------------
# errors: the interpreter's, where the interpreter raises them
# ---------------------------------------------------------------------
THINGS = Sort("Things")
OTHERS = Sort("Others")
GHOSTS = Sort("Ghosts")
DOMAINS = {THINGS: ("t1", "t2"), OTHERS: ("o1",)}
R = PredicateSymbol("R", (THINGS,))
X = Var("x", THINGS)
Y = Var("y", OTHERS)
T1 = ValueLiteral("t1", THINGS)
T2 = ValueLiteral("t2", THINGS)
#: An atom whose evaluation raises: its variable is never bound.
BOOM = fm.Atom(R, (Var("ghost", THINGS),))
UNBOUND = ("raised", ExecutionError, "unbound variable ghost in RPR evaluation")

SCHEMA = Schema(
    (RelationDecl("R", (THINGS,)),),
    (ProcDecl("touch", (X,), Insert("R", (X,))),),
    (ScalarDecl("counter", THINGS),),
)


@pytest.fixture()
def state():
    return initial_state(SCHEMA, {"counter": "t1"})


def _statement(statement, state, valuation=None):
    """The compiled and the interpreted outcome of running a statement
    (compiling it raises nothing)."""
    compiled = compiled_run(statement, state, SCHEMA, DOMAINS, valuation)
    return _outcome(compiled), _outcome(
        lambda: run(statement, state, SCHEMA, DOMAINS, valuation)
    )


def _formula(formula, state, valuation=None):
    compiled = compiled_satisfies(formula, state, DOMAINS, valuation)
    return _outcome(compiled), _outcome(
        lambda: satisfies(formula, state, DOMAINS, valuation)
    )


class TestErrorsRaiseWhenReached:
    def test_unbound_variable(self, state):
        compiled, reference = _statement(Test(BOOM), state)
        assert compiled == reference == UNBOUND

    def test_unsupported_term(self, state):
        term = App(FunctionSymbol("f", (), THINGS), ())
        compiled, reference = _formula(fm.Atom(R, (term,)), state)
        assert compiled == reference
        assert compiled[1:] == (ExecutionError, "unsupported RPR term: f")

    def test_unsupported_formula(self, state):
        compiled, reference = _formula(Necessarily(fm.TRUE), state)
        assert compiled == reference
        assert compiled[1] is ExecutionError
        assert compiled[2].startswith("unsupported formula in RPR")

    def test_sort_without_domain(self, state):
        ghost = Var("g", GHOSTS)
        for formula in (fm.Forall(ghost, fm.TRUE), fm.Exists(ghost, fm.TRUE)):
            compiled, reference = _formula(formula, state)
            assert compiled == reference
            assert compiled[1:] == (ExecutionError, "no domain for sort Ghosts")
        relational = RelAssign("R", RelationalTerm((ghost,), fm.TRUE))
        compiled, reference = _statement(relational, state)
        assert compiled == reference
        assert compiled[2] == "no domain for sort Ghosts"

    def test_undeclared_relation_after_the_term(self, state):
        ghost = RelAssign("GHOST", RelationalTerm((X,), fm.TRUE))
        compiled, reference = _statement(ghost, state)
        assert compiled == reference
        assert compiled[1:] == (
            SpecificationError, "undeclared relation 'GHOST'",
        )
        # The term is evaluated first: its error wins.
        failing = RelAssign("GHOST", RelationalTerm((X,), BOOM))
        compiled, reference = _statement(failing, state)
        assert compiled == reference == UNBOUND

    def test_sort_mismatch_after_the_term(self, state):
        other = RelAssign("R", RelationalTerm((Y,), fm.TRUE))
        compiled, reference = _statement(other, state)
        assert compiled == reference
        assert compiled[1:] == (
            ExecutionError, "relational assignment to R: sort mismatch",
        )
        failing = RelAssign("R", RelationalTerm((Y,), BOOM))
        compiled, reference = _statement(failing, state)
        assert compiled == reference == UNBOUND

    def test_undeclared_scalar(self, state):
        for statement in (
            Assign("ghost", T1),
            Assign("counter", ScalarRef("ghost", THINGS)),
        ):
            compiled, reference = _statement(statement, state)
            assert compiled == reference
            assert compiled[1:] == (
                ExecutionError, "state has no scalar 'ghost'",
            )

    def test_wrong_arity_insert_in_a_branch_never_taken(self, state):
        bad = Insert("R", (T1, T2))
        untaken = Seq(Test(fm.FALSE), bad)
        compiled, reference = _statement(untaken, state)
        assert compiled == reference == ("value", frozenset())
        # Reached, it raises on every run: desugar errors are not
        # stored.
        closure = compiled_run(Seq(Test(fm.TRUE), bad), state, SCHEMA, DOMAINS)
        for _ in range(2):
            with pytest.raises(SpecificationError, match="arity 1, got 2"):
                closure()
        # An if expands as a whole, so the interpreter raises even when
        # its condition is false; the compiled closure raises then too.
        compiled, reference = _statement(IfThen(fm.FALSE, bad), state)
        assert compiled == reference
        assert compiled[1] is SpecificationError


# ---------------------------------------------------------------------
# evaluation order: as satisfies and run evaluate
# ---------------------------------------------------------------------
class TestEvaluationOrder:
    @pytest.mark.parametrize(
        "formula,expected",
        [
            (fm.And(fm.FALSE, BOOM), ("value", False)),
            (fm.Or(fm.TRUE, BOOM), ("value", True)),
            (fm.Implies(fm.FALSE, BOOM), ("value", True)),
            (fm.Iff(fm.TRUE, BOOM), UNBOUND),
            (fm.And(fm.TRUE, BOOM), UNBOUND),
            (fm.Or(fm.FALSE, BOOM), UNBOUND),
        ],
        ids=["and", "or", "implies", "iff", "and-reached", "or-reached"],
    )
    def test_connectives(self, formula, expected, state):
        compiled, reference = _formula(formula, state)
        assert compiled == reference == expected

    def test_quantifiers_iterate_in_order_and_stop(self, state):
        # With t1 first, each quantifier is decided before its body
        # reaches BOOM; with t2 first, BOOM would raise.
        exists = fm.Exists(X, fm.Or(fm.Equals(X, T1), BOOM))
        forall = fm.Forall(X, fm.And(fm.Equals(X, T2), BOOM))
        for formula, value in ((exists, True), (forall, False)):
            compiled, reference = _formula(formula, state)
            assert compiled == reference == ("value", value)

    def test_union_runs_both_sides(self, state):
        both = Union(Insert("R", (T1,)), Insert("R", (T2,)))
        compiled, reference = _statement(both, state)
        assert compiled == reference
        assert len(compiled[1]) == 2
        compiled, reference = _statement(Union(Skip(), Test(BOOM)), state)
        assert compiled == reference == UNBOUND

    def test_inner_quantifier_shadows_outer(self, state):
        # exists x. (x = t1 & (exists x. x = t2) & x = t1): the inner
        # binder must not clobber the outer one.
        formula = fm.Exists(
            X,
            fm.And(
                fm.And(fm.Equals(X, T1), fm.Exists(X, fm.Equals(X, T2))),
                fm.Equals(X, T1),
            ),
        )
        compiled, reference = _formula(formula, state)
        assert compiled == reference == ("value", True)

    def test_tuple_variable_shadows_parameter(self, state):
        # R := {(x) / x = t2 | R(x)} under the parameter x = t1: the
        # tuple variable hides the parameter inside the term only.
        assign = Seq(
            RelAssign(
                "R",
                RelationalTerm(
                    (X,), fm.Or(fm.Equals(X, T2), fm.Atom(R, (X,)))
                ),
            ),
            Insert("R", (X,)),
        )
        compiled, reference = _statement(assign, state, {X: "t1"})
        assert compiled == reference
        (after,) = compiled[1]
        assert after.relation("R") == {("t1",), ("t2",)}
