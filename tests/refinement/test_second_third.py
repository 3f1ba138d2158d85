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
    """Record the ``(proc, args, state)`` of every ``run_proc`` call
    the induced structure makes."""
    runs = []
    original = second_third.run_proc

    def counting(schema, name, args, state, domains):
        runs.append((name, args, state))
        return original(schema, name, args, state, domains)

    monkeypatch.setattr(second_third, "run_proc", counting)
    return runs


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
        self, spec, schema
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
        for _ in range(2):
            with pytest.raises(RefinementError, match="not functional"):
                induced.eval_query("offered", ("c1",), state)


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
