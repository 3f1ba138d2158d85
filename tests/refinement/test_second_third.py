"""Tests for the 2nd->3rd refinement (Sections 5.3-5.4), including a
faulty schema that must be caught."""

import pytest

from repro import obs
from repro.errors import ExecutionError, RefinementError
from repro.applications.courses import (
    courses_algebraic,
    courses_schema_source,
)
from repro.logic import formulas as fm
from repro.logic.sorts import Sort
from repro.logic.terms import Var
from repro.refinement import second_third
from repro.refinement.second_third import (
    InducedStructure,
    QueryRealization,
    RepresentationMap,
    check_agreement,
    check_refinement,
)
from repro.rpr.parser import parse_schema
from repro.rpr.semantics import DatabaseState, run_proc


@pytest.fixture(scope="module")
def spec():
    return courses_algebraic()


@pytest.fixture(scope="module")
def schema():
    return parse_schema(courses_schema_source())


BROKEN_CANCEL = courses_schema_source().replace(
    "if ~exists s: Students. TAKES(s, c)\n    then delete OFFERED(c)",
    "delete OFFERED(c)",
)

NONDETERMINISTIC = courses_schema_source().replace(
    "proc offer(c) =\n    insert OFFERED(c)",
    "proc offer(c) =\n    (insert OFFERED(c) | skip)",
)

BLOCKING_OFFER = courses_schema_source().replace(
    "proc offer(c) =\n    insert OFFERED(c)",
    "proc offer(c) =\n    OFFERED(c)?",
)


def _induced(spec, schema) -> InducedStructure:
    return InducedStructure(
        spec.signature,
        schema,
        RepresentationMap.homonym(spec.signature, schema),
    )


def _counting_run_proc(monkeypatch) -> list:
    """Record the ``(proc, args, state)`` of every procedure run the
    induced structure makes."""
    runs = []
    original = InducedStructure._run_compiled

    def counting(self, name, args, state):
        runs.append((name, args, state))
        return original(self, name, args, state)

    monkeypatch.setattr(InducedStructure, "_run_compiled", counting)
    return runs


# ---------------------------------------------------------------------
# the interpreters the compiled, numbered N(U) replaces
# ---------------------------------------------------------------------
def interpreted_run(self, proc, params, state):
    """``InducedStructure._run_compiled`` answered by ``run_proc``."""
    return run_proc(self.schema, proc, params, state, self._domains)


def interpreted_equation(induced, equation, param_vars, state_vars):
    """``_compile_equation`` answered by ``holds``/``eval_term``.  The
    sweep's environment holds state ids; the interpreters get the
    states they number, and a state-sorted side's value goes back to
    the sweep as its id."""
    frame = [*param_vars, *state_vars]

    def valuation(env):
        values = dict(zip(frame, env))
        for var in state_vars:
            values[var] = induced._states[values[var]]
        return values

    def side(term):
        def evaluate(env):
            value = induced.eval_term(term, valuation(env))
            if isinstance(value, DatabaseState):
                return induced._number(value)
            return value

        return evaluate

    condition = None
    if equation.condition is not None:

        def condition(env):
            return induced.holds(equation.condition, valuation(env))

    return condition, side(equation.lhs), side(equation.rhs), 0


def interpret_n_of_u(patch):
    """Run the Section 5.4 sweep on the interpreters: ``holds`` and
    ``eval_term`` for the equations, ``run_proc`` for every procedure
    run and ``_realize`` for every query realization."""
    patch.setattr(second_third, "_compile_equation", interpreted_equation)
    patch.setattr(InducedStructure, "_run_compiled", interpreted_run)
    patch.setattr(
        InducedStructure, "_realize_compiled", InducedStructure._realize
    )


class TestRepresentationMap:
    def test_homonym_builds(self, spec, schema):
        rep_map = RepresentationMap.homonym(spec.signature, schema)
        assert set(rep_map.query_map) == {"offered", "takes"}
        assert rep_map.proc_for("enroll") == "enroll"
        assert rep_map.initial_proc == "initiate"

    def test_missing_relation_rejected(self, spec):
        other = parse_schema(
            "schema OFFERED(Courses);"
            " proc initiate() = OFFERED := {} end-schema"
        )
        with pytest.raises(RefinementError):
            RepresentationMap.homonym(spec.signature, other)

    def test_uncovered_query_lookup(self, spec, schema):
        rep_map = RepresentationMap.homonym(spec.signature, schema)
        with pytest.raises(RefinementError):
            rep_map.realization("ghost")


class TestInducedStructure:
    def test_initial_state_is_empty(self, spec, schema):
        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        state = induced.initial()
        assert state.relation("OFFERED") == frozenset()
        assert state.relation("TAKES") == frozenset()

    def test_state_of_trace_runs_procs(self, spec, schema):
        from repro.algebraic.algebra import TraceAlgebra

        algebra = TraceAlgebra(spec)
        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        trace = algebra.apply(
            "enroll",
            "s1",
            "c1",
            trace=algebra.apply(
                "offer", "c1", trace=algebra.initial_trace()
            ),
        )
        state = induced.state_of_trace(trace)
        assert state.relation("TAKES") == {("s1", "c1")}

    def test_eval_query_via_k(self, spec, schema):
        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        state = induced.initial()
        opened = induced.apply_update("offer", ("c1",), state)
        assert induced.eval_query("offered", ("c1",), opened) is True
        assert induced.eval_query("offered", ("c2",), opened) is False

    def test_reachable_states_count(self, spec, schema):
        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        assert len(induced.reachable_states()) == 25

    def test_nondeterministic_schema_rejected(self, spec):
        bad = parse_schema(NONDETERMINISTIC)
        with pytest.raises(RefinementError, match="deterministic"):
            InducedStructure(
                spec.signature,
                bad,
                RepresentationMap.homonym(spec.signature, bad),
            )


class TestInducedStructureMemo:
    def test_each_proc_instance_runs_once(
        self, spec, schema, monkeypatch
    ):
        runs = _counting_run_proc(monkeypatch)
        tracer = obs.Tracer()
        with obs.activate(tracer):
            report = check_refinement(spec, schema)
        counters = tracer.counter_totals()
        assert report.ok
        # The initial procedure, then 16 update instances on each of
        # the 25 reachable states.
        assert len(runs) == len(set(runs)) == 1 + 25 * 16
        assert counters["second_third.proc_runs"] == len(runs)
        assert counters["second_third.proc_memo_hits"] > len(runs)

    def test_memo_lasts_one_instance(self, spec, schema, monkeypatch):
        runs = _counting_run_proc(monkeypatch)
        for _ in range(2):
            _induced(spec, schema).initial()
        assert len(runs) == 2

    def test_blocking_procedure_raises_every_time(
        self, spec, monkeypatch
    ):
        induced = _induced(spec, parse_schema(BLOCKING_OFFER))
        state = induced.initial()
        runs = _counting_run_proc(monkeypatch)
        for _ in range(2):
            with pytest.raises(ExecutionError, match="blocks"):
                induced.apply_update("offer", ("c1",), state)
        assert len(runs) == 2

    def test_non_functional_realization_raises_every_time(
        self, spec, schema, monkeypatch
    ):
        rep_map = RepresentationMap.homonym(spec.signature, schema)
        offered = rep_map.realization("offered")
        # An unconstrained result variable: never exactly one value.
        rep_map.query_map["offered"] = QueryRealization(
            offered.variables,
            offered.formula,
            Var("m", offered.variables[0].sort),
        )
        induced = InducedStructure(spec.signature, schema, rep_map)
        state = induced.initial()
        realized = []
        original = InducedStructure._realize_compiled

        def counting(self, *args):
            realized.append(args)
            return original(self, *args)

        monkeypatch.setattr(InducedStructure, "_realize_compiled", counting)
        for _ in range(2):
            with pytest.raises(RefinementError, match="not functional"):
                induced.eval_query("offered", ("c1",), state)
        assert len(realized) == 2


class TestQuantifierDomains:
    def test_unknown_sort_is_a_refinement_error(self, spec, schema):
        induced = _induced(spec, schema)
        condition = fm.Forall(Var("g", Sort("ghost")), fm.TrueF())
        with pytest.raises(
            RefinementError,
            match="condition quantifies over non-parameter sort ghost",
        ):
            induced.holds(condition, {})

    def test_domain_bug_propagates(self, schema, monkeypatch):
        spec = courses_algebraic()
        induced = _induced(spec, schema)

        def broken(sort):
            raise RuntimeError("domain lookup bug")

        monkeypatch.setattr(spec.signature, "domain", broken)
        course = spec.signature.logic.sort("course")
        condition = fm.Forall(Var("c", course), fm.TrueF())
        with pytest.raises(RuntimeError, match="domain lookup bug"):
            induced.holds(condition, {})


class TestRefinementCheck:
    def test_paper_schema_refines(self, spec, schema):
        report = check_refinement(spec, schema)
        assert report.ok
        assert report.states_checked == 25
        assert "correctly refines" in str(report)

    def test_broken_cancel_schema_caught(self, spec):
        bad = parse_schema(BROKEN_CANCEL)
        report = check_refinement(spec, bad)
        assert not report.ok
        assert report.failures
        labels = {f.equation.label for f in report.failures}
        # The violated equations are cancel's (6a in the paper).
        assert any("eq6" in label for label in labels)
        assert "does NOT refine" in str(report)

    def test_initiate_equation_checked_once(self, spec, schema):
        """An equation without a state variable is checked at the
        initial state only: a false ``initiate`` equation fails once
        per parameter instance, and the sweep goes on to check every
        other equation."""
        from repro.algebraic.equations import ConditionalEquation
        from repro.algebraic.spec import AlgebraicSpec

        eq1 = next(e for e in spec.equations if e.label == "eq1")
        flipped = ConditionalEquation(
            eq1.lhs, spec.signature.true(), None, "eq1-flipped"
        )
        mutant = AlgebraicSpec(
            spec.signature,
            tuple(flipped if e is eq1 else e for e in spec.equations),
        )
        report = check_refinement(mutant, schema)
        assert not report.ok
        assert [
            (f.equation.label, f.valuation) for f in report.failures
        ] == [("eq1-flipped", (("c", "c1"),)), ("eq1-flipped", (("c", "c2"),))]
        initial = _induced(spec, schema).initial()
        assert all(f.state == initial for f in report.failures)
        assert report.instances_checked == 2506
        assert check_refinement(spec, schema).instances_checked == 2506

    def test_agreement_on_paper_schema(self, spec, schema):
        from repro.algebraic.algebra import TraceAlgebra

        report = check_agreement(TraceAlgebra(spec), schema, depth=2)
        assert report.ok

    @pytest.mark.slow
    def test_agreement_catches_broken_schema(self, spec):
        from repro.algebraic.algebra import TraceAlgebra

        bad = parse_schema(BROKEN_CANCEL)
        # Exposing the fault needs offer -> enroll -> cancel: depth 3.
        report = check_agreement(
            TraceAlgebra(spec), bad, depth=3, max_traces=6_000
        )
        assert not report.ok


# ---------------------------------------------------------------------
# the compiled equation closures mirror eval_term / holds
# ---------------------------------------------------------------------
def _outcome(evaluate):
    """A value, or the type and message of the error raised."""
    try:
        return ("value", evaluate())
    except Exception as exc:  # compared, never swallowed
        return ("raised", type(exc), str(exc))


def _compiled_outcome(closure, env):
    return _outcome(lambda: closure(list(env)))


class TestClosuresMatchInterpreter:
    @pytest.mark.parametrize(
        "app", ["courses", "library", "projects", "bank"]
    )
    def test_every_equation_state_and_instantiation(self, app):
        import itertools

        from repro.cli import APPLICATIONS

        framework = APPLICATIONS[app]()
        spec = framework.algebraic
        rep_map = framework.representation or RepresentationMap.homonym(
            spec.signature, framework.schema
        )
        induced = InducedStructure(
            spec.signature, framework.schema, rep_map
        )
        # The reference runs every procedure with run_proc and every
        # realization with _realize, in rows of its own.
        reference = InducedStructure(
            spec.signature, framework.schema, rep_map
        )
        reference._run_compiled = interpreted_run.__get__(reference)
        reference._realize_compiled = reference._realize
        reachable = induced._reachable(100_000)
        compared = 0
        for equation in spec.equations:
            state_vars, param_vars, spaces = second_third._equation_frame(
                spec, equation
            )
            condition, lhs, rhs, width = second_third._compile_equation(
                induced, equation, param_vars, state_vars
            )
            for sid in reachable:
                for values in itertools.product(*spaces):
                    valuation = dict(zip(param_vars, values))
                    if state_vars:
                        valuation[state_vars[0]] = induced._states[sid]
                    env = [*values, *[sid] * len(state_vars)]
                    env += [None] * width
                    if condition is not None:
                        assert _compiled_outcome(condition, env) == (
                            _outcome(
                                lambda: reference.holds(
                                    equation.condition, valuation
                                )
                            )
                        )
                    for side, term in ((lhs, equation.lhs),
                                       (rhs, equation.rhs)):
                        compiled = _compiled_outcome(side, env)
                        if equation.is_u_equation and compiled[0] == "value":
                            compiled = ("value", induced._states[compiled[1]])
                        assert compiled == _outcome(
                            lambda: reference.eval_term(term, valuation)
                        )
                    compared += 1
        assert compared > len(spec.equations)


class TestClosureSemantics:
    """Corner cases of the compiled closures, each against the
    interpreter."""

    def _condition(self, induced, condition, scope=None, env=None):
        from itertools import count

        scope = dict(scope or {})
        closure = induced.compile_condition(
            condition, scope, count(len(scope))
        )
        return _compiled_outcome(
            closure, (env or []) + [None] * 8
        ), _outcome(
            lambda: induced.holds(
                condition, dict(zip(scope, env or []))
            )
        )

    def test_unknown_sort_raises_when_reached(self, spec, schema):
        induced = _induced(spec, schema)
        condition = fm.Forall(Var("g", Sort("ghost")), fm.TrueF())
        compiled, reference = self._condition(induced, condition)
        assert compiled == reference
        assert compiled[1] is RefinementError
        assert "non-parameter sort ghost" in compiled[2]

    def test_domain_bug_propagates(self, schema, monkeypatch):
        spec = courses_algebraic()
        induced = _induced(spec, schema)
        course = spec.signature.logic.sort("course")
        condition = fm.Forall(Var("c", course), fm.TrueF())
        closure = induced.compile_condition(
            condition, {}, iter(range(1))
        )

        def broken(sort):
            raise RuntimeError("domain lookup bug")

        monkeypatch.setattr(spec.signature, "domain", broken)
        with pytest.raises(RuntimeError, match="domain lookup bug"):
            closure([None])
        with pytest.raises(RuntimeError, match="domain lookup bug"):
            induced.holds(condition, {})

    def test_unsupported_constructs_raise_when_reached(self, spec, schema):
        from repro.logic.signature import PredicateSymbol

        induced = _induced(spec, schema)
        course = spec.signature.logic.sort("course")
        c = Var("c", course)
        atom = fm.Atom(PredicateSymbol("ghost", (course,)), (c,))
        for condition in (atom, fm.Equals(Var("unbound", course), c)):
            # Compiling succeeds; evaluating raises the interpreter's
            # error.
            compiled, reference = self._condition(
                induced, condition, {c: 0}, ["c1"]
            )
            assert compiled == reference
            assert compiled[1] is RefinementError
        # Never reached: a short-circuited branch does not raise.
        guarded = fm.And(fm.FalseF(), atom)
        assert self._condition(induced, guarded, {c: 0}, ["c1"]) == (
            ("value", False),
            ("value", False),
        )

    def test_shadowing_is_lexical(self, spec, schema):
        induced = _induced(spec, schema)
        signature = spec.signature
        course = signature.logic.sort("course")
        c = Var("c", course)
        c1 = signature.value(course, "c1")
        c2 = signature.value(course, "c2")
        # exists c. (c = c1 & (exists c. c = c2) & c = c1): the inner
        # binder must not clobber the outer one.
        condition = fm.Exists(
            c,
            fm.And(
                fm.And(fm.Equals(c, c1), fm.Exists(c, fm.Equals(c, c2))),
                fm.Equals(c, c1),
            ),
        )
        compiled, reference = self._condition(induced, condition)
        assert compiled == reference == ("value", True)
        # A parameter c shadowed by a quantifier, then visible again.
        outer = fm.And(
            fm.Forall(c, fm.Or(fm.Equals(c, c1), fm.Equals(c, c2))),
            fm.Equals(c, c2),
        )
        compiled, reference = self._condition(
            induced, outer, {c: 0}, ["c2"]
        )
        assert compiled == reference == ("value", True)

    def test_connective_terms_evaluate_every_argument(
        self, spec, schema
    ):
        signature = spec.signature
        course = signature.logic.sort("course")
        sigma = Var("sigma", signature.logic.sort("state"))
        offered = signature.apply_query(
            "offered", signature.value(course, "c1"), sigma
        )
        # and(False, offered(c1, sigma)): a connective *term* still
        # evaluates its second argument.
        conjunction = signature.and_(signature.false(), offered)
        calls = {"compiled": 0, "interpreted": 0}
        for mode in calls:
            induced = _induced(spec, schema)
            original = induced._query

            def counting(*args, mode=mode, original=original):
                calls[mode] += 1
                return original(*args)

            induced._query = counting
            state = induced.initial()
            if mode == "compiled":
                closure = induced.compile_term(conjunction, {sigma: 0})
                value = closure([induced._number(state)])
            else:
                value = induced.eval_term(conjunction, {sigma: state})
            assert value is False
        assert calls == {"compiled": 1, "interpreted": 1}

    def test_arguments_evaluate_in_interpreter_order(self, spec, schema):
        induced = _induced(spec, schema)
        signature = spec.signature
        course = signature.logic.sort("course")
        state = Var("U", signature.logic.sort("state"))
        # Both the parameter and the state are unbound: the state is
        # evaluated first, so its name is the one reported.
        term = signature.apply_query("offered", Var("c", course), state)
        compiled = _compiled_outcome(induced.compile_term(term, {}), [])
        reference = _outcome(lambda: induced.eval_term(term, {}))
        assert compiled == reference
        assert compiled[2] == "unbound variable U"
