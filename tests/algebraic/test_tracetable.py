"""The shared table of depth-bounded traces and their observation rows.

The rows are the reference semantics (one ``evaluate_cells`` batch
per trace), a depth-d reader reads exactly the breadth-first prefix,
and (a) coverage and agreement report from the table exactly what
they report on their own loops.
"""

import pytest

from repro import obs
from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.completeness import check_sufficient_completeness
from repro.algebraic.rewriting import RewriteEngine
from repro.algebraic.tracetable import build_trace_table
from repro.cli import APPLICATIONS
from repro.refinement.second_third import check_agreement
from tests.algebraic.test_completeness import _c1_only_spec

APPS = list(APPLICATIONS)


@pytest.fixture(scope="module")
def frameworks():
    return {app: APPLICATIONS[app]() for app in APPS}


class TestRows:
    @pytest.mark.parametrize("app", ["courses", "bank"])
    def test_rows_equal_a_per_trace_batch(self, app, frameworks):
        algebra = frameworks[app].algebra()
        table = build_trace_table(algebra, 2)
        reference = RewriteEngine(algebra.spec)
        assert list(table.traces) == list(algebra.traces(2))
        for trace, row in zip(table.traces, table.rows):
            assert row == tuple(
                reference.evaluate_cells(trace, algebra.observations)
            )

    def test_failed_batch_is_marked(self):
        algebra = TraceAlgebra(_c1_only_spec())
        table = build_trace_table(algebra, 1)
        # initiate evaluates; touch(c2, initiate) has a coverage gap.
        assert table.rows[0] is not None
        assert None in table.rows

    def test_items_and_rewrite_work_recorded(self, frameworks):
        algebra = frameworks["courses"].algebra()
        tracer = obs.Tracer()
        with obs.activate(tracer):
            table = build_trace_table(algebra, 2)
        counters = tracer.counter_totals()
        assert counters["items"] == len(table.traces) == 273
        assert counters["rewrite.evaluate.calls"] == 273 * len(
            algebra.observations
        )

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
