"""The shared table of depth-bounded traces and their observation rows.

The rows built by plans equal the reference semantics (one
``evaluate_cells`` batch per trace, breadth-first), the reference
builds the table wherever the plans cannot, a depth-d reader reads
exactly the breadth-first prefix, and (a) coverage and agreement
report from the table exactly what they report on their own loops.
"""

import pytest

from repro import obs
from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.completeness import check_sufficient_completeness
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.rewriting import RewriteEngine
from repro.algebraic.signature import AlgebraicSignature
from repro.algebraic.spec import AlgebraicSpec
from repro.algebraic.tracetable import build_trace_table, evaluate_rows
from repro.cli import APPLICATIONS
from repro.errors import EvaluationError
from repro.logic.sorts import STATE
from repro.logic.terms import App, Var
from repro.refinement.second_third import check_agreement
from tests.algebraic.test_completeness import _c1_only_spec
from tests.algebraic.test_observation import (
    _gap_after_set_spec,
    _history_dependent_spec,
)
from tests.applications.test_mutations import MUTANTS

APPS = list(APPLICATIONS)


@pytest.fixture(scope="module")
def frameworks():
    return {app: APPLICATIONS[app]() for app in APPS}


def _build(algebra, depth):
    """The table and the ``traces.*`` counters its build fired."""
    tracer = obs.Tracer()
    with obs.activate(tracer):
        table = build_trace_table(algebra, depth)
    path = sorted(
        name
        for name in tracer.counter_totals()
        if name.startswith("traces.")
    )
    return table, path


def _assert_reference(table, spec, depth, fuel=None):
    """Traces and rows equal the breadth-first reference build on a
    fresh algebra with the same fuel."""
    algebra = TraceAlgebra(spec, fuel=fuel)
    reference = list(evaluate_rows(algebra, algebra.traces(depth)))
    assert list(zip(table.traces, table.rows)) == reference
    # The same interned terms, and the same value types.
    for trace, (expected, _) in zip(table.traces, reference):
        assert trace is expected
    for row, (_, expected) in zip(table.rows, reference):
        if row is not None:
            assert list(map(type, row)) == list(map(type, expected))


def _overflow_spec() -> AlgebraicSpec:
    """In the plan fragment, with a specification error two updates
    deep: ``n`` counts ``inc`` updates through an interpreted successor
    that raises above the top level, so the closure applying ``inc``
    to the row of ``inc(initiate)`` raises first."""
    signature = AlgebraicSignature()
    level = signature.add_parameter_sort("level")
    signature.add_parameter_values(level, ["l0", "l1"])

    def succ(value):
        if value == "l1":
            raise EvaluationError("no level above l1")
        return "l1"

    succ_symbol = signature.add_parameter_function(
        "succ", [level], level, succ
    )
    signature.add_query("n", [], result_sort=level)
    signature.add_initial()
    signature.add_update("inc", [])
    u = Var("U", STATE)
    n = lambda s: signature.apply_query("n", s)
    succ_of = lambda term: App(succ_symbol, (term,))
    equations = (
        ConditionalEquation(
            n(signature.initial_term()), signature.value(level, "l0")
        ),
        ConditionalEquation(
            n(signature.apply_update("inc", u)), succ_of(n(u))
        ),
    )
    return AlgebraicSpec(signature, equations, name="overflow")


class TestPlansEqualTheReference:
    @pytest.mark.parametrize(
        "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
    )
    def test_courses_mutants(self, label, mutant):
        table, path = _build(TraceAlgebra(mutant), 2)
        assert path == ["traces.by_plans"]
        _assert_reference(table, mutant, 2)

    @pytest.mark.parametrize("app", APPS)
    def test_one_unit_of_fuel(self, app, frameworks):
        # Each cell fires one equation over its parent's memoized
        # cells, so the breadth-first reference needs no more fuel.
        spec = frameworks[app].algebraic
        table, path = _build(TraceAlgebra(spec, fuel=1), 2)
        assert path == ["traces.by_plans"]
        assert None not in table.rows
        _assert_reference(table, spec, 2, fuel=1)

    def test_successors_are_the_childrens_rows(self, frameworks):
        algebra = frameworks["projects"].algebra()
        table = build_trace_table(algebra, 2)
        width = table.width
        shallow = 1 + width
        assert set(table.successors) == set(table.rows[:shallow])
        for index in range(shallow):
            children = table.rows[1 + index * width : 1 + (index + 1) * width]
            assert table.successors[table.rows[index]] == children


class TestFallbacks:
    def test_outside_the_fragment(self):
        spec = _history_dependent_spec()
        table, path = _build(TraceAlgebra(spec), 2)
        assert path == ["traces.fallback.outside_fragment"]
        assert table.successors == {}
        _assert_reference(table, spec, 2)

    def test_dispatch_gap_one_update_beyond_the_table(self):
        spec = _gap_after_set_spec()
        table, path = _build(TraceAlgebra(spec), 1)
        assert path == ["traces.by_plans"]
        assert None not in table.rows
        table, path = _build(TraceAlgebra(spec), 2)
        assert path == ["traces.fallback.dispatch_gap"]
        assert None in table.rows
        _assert_reference(table, spec, 2)

    def test_spec_error_raised_by_a_closure(self):
        spec = _overflow_spec()
        table, path = _build(TraceAlgebra(spec), 1)
        assert path == ["traces.by_plans"]
        table, path = _build(TraceAlgebra(spec), 2)
        assert path == ["traces.fallback.spec_error"]
        assert table.rows == (("l0",), ("l1",), None)
        _assert_reference(table, spec, 2)


class TestRows:
    @pytest.mark.parametrize("app", APPS)
    def test_rows_equal_a_per_trace_batch(self, app, frameworks):
        spec = frameworks[app].algebraic
        for depth in (0, 1, 2):
            table, path = _build(TraceAlgebra(spec), depth)
            assert path == ["traces.by_plans"]
            _assert_reference(table, spec, depth)
        # And a batch per trace on an engine of its own.
        reference = RewriteEngine(spec)
        observations = table.algebra.observations
        for trace, row in zip(table.traces, table.rows):
            assert row == tuple(
                reference.evaluate_cells(trace, observations)
            )

    def test_failed_batch_is_marked(self):
        spec = _c1_only_spec()
        table, path = _build(TraceAlgebra(spec), 1)
        # initiate evaluates; touch(c2, initiate) has a coverage gap,
        # so the plans run out and the reference marks the row.
        assert path == ["traces.fallback.dispatch_gap"]
        assert table.rows[0] is not None
        assert None in table.rows
        _assert_reference(table, spec, 1)

    def test_items_and_rewrite_work_recorded(self, frameworks):
        # By plans, only the initial row is evaluated.
        algebra = frameworks["courses"].algebra()
        tracer = obs.Tracer()
        with obs.activate(tracer):
            table = build_trace_table(algebra, 2)
        counters = tracer.counter_totals()
        assert counters["items"] == len(table.traces) == 273
        assert counters["traces.by_plans"] == 1
        assert counters["rewrite.evaluate.calls"] == len(
            algebra.observations
        )

    def test_items_and_rewrite_work_recorded_on_the_reference(
        self, frameworks, monkeypatch
    ):
        algebra = frameworks["courses"].algebra()
        monkeypatch.setattr(algebra, "packed_explorer", lambda: None)
        tracer = obs.Tracer()
        with obs.activate(tracer):
            table = build_trace_table(algebra, 2)
        counters = tracer.counter_totals()
        assert counters["items"] == len(table.traces) == 273
        assert counters["traces.fallback.outside_fragment"] == 1
        assert counters["rewrite.evaluate.calls"] == 273 * len(
            algebra.observations
        )

    def test_the_initial_row_is_shared_with_exploration(self, frameworks):
        algebra = frameworks["projects"].algebra()
        algebra.explore()
        tracer = obs.Tracer()
        with obs.activate(tracer):
            build_trace_table(algebra, 2)
        counters = tracer.counter_totals()
        assert "algebra.snapshots" not in counters
        assert "rewrite.evaluate.calls" not in counters

    def test_nothing_built_under_coverage_or_unpacked(self, frameworks):
        spec = frameworks["courses"].algebraic
        with obs.activate(coverage=obs.CoverageRecorder()):
            assert build_trace_table(TraceAlgebra(spec), 1) is None
        assert build_trace_table(TraceAlgebra(spec, packed=False), 1) is None


class TestPrefix:
    def test_depth_one_reader_reads_the_prefix(self, frameworks):
        algebra = frameworks["courses"].algebra()
        table = build_trace_table(algebra, 2)
        width = sum(1 for _ in algebra.update_instances())
        entries = table.entries(algebra, 1)
        assert len(entries) == 1 + width
        assert [trace for trace, _ in entries] == list(algebra.traces(1))
        assert [row for _, row in entries] == list(table.rows[: 1 + width])
        assert len(table.entries(algebra, 0)) == 1
        assert len(table.entries(algebra, 2)) == len(table.traces)

    def test_deeper_or_foreign_readers_are_refused(self, frameworks):
        algebra = frameworks["courses"].algebra()
        table = build_trace_table(algebra, 1)
        assert table.entries(algebra, 2) is None
        assert table.entries(frameworks["courses"].algebra(), 1) is None


class TestReadersMatchTheirOwnLoops:
    @pytest.mark.parametrize("app", APPS)
    def test_completeness(self, app, frameworks):
        framework = frameworks[app]
        table = build_trace_table(framework.algebra(), 2)
        alone = check_sufficient_completeness(framework.algebraic, depth=2)
        shared = check_sufficient_completeness(
            framework.algebraic, depth=2, table=table
        )
        assert str(shared) == str(alone)
        assert shared.coverage.traces_checked == len(table.traces)

    def test_completeness_redoes_failed_rows(self):
        spec = _c1_only_spec()
        table = build_trace_table(TraceAlgebra(spec), 2)
        tracer = obs.Tracer()
        with obs.activate(tracer):
            shared = check_sufficient_completeness(spec, depth=2, table=table)
        alone = check_sufficient_completeness(spec, depth=2)
        assert not shared.ok
        assert str(shared) == str(alone)
        assert tracer.counter_totals()["completeness.cell_fallbacks"] >= 1

    @pytest.mark.parametrize("app", APPS)
    def test_agreement(self, app, frameworks):
        framework = frameworks[app]
        algebra = framework.algebra()
        table = build_trace_table(algebra, 2)
        tracer = obs.Tracer()
        with obs.activate(tracer):
            shared = check_agreement(
                algebra,
                framework.schema,
                framework.representation,
                depth=2,
                table=table,
            )
        alone = check_agreement(
            framework.algebra(),
            framework.schema,
            framework.representation,
            depth=2,
        )
        assert shared == alone
        assert str(shared) == str(alone)
        # The rows came from the table: no level-2 evaluation here.
        assert "rewrite.evaluate.calls" not in tracer.counter_totals()
