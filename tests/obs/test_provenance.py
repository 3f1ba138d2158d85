"""Provenance records and minimal counterexample rendering."""

import pytest

from repro.cli import APPLICATIONS
from repro.core.framework import DesignFramework
from repro.obs.coverage import CoverageRecorder
from repro.obs.switch import activate
from repro.obs.provenance import (
    counterexamples_of,
    minimal_witnesses,
    pipeline_provenance,
    render_counterexample,
    render_failures,
    trace_updates,
)
from repro.pipeline.nodes import build_framework_graph
from tests.refinement.test_first_second import broken_cancel_spec


def _broken_framework() -> DesignFramework:
    """Courses with the cancel equations dropping the axiom guard —
    every downstream consistency check fails with real witnesses."""
    from repro.applications import courses

    return DesignFramework.from_sources(
        information=courses.courses_information(),
        algebraic=broken_cancel_spec(),
        schema_source=courses.courses_schema_source(),
        carriers=courses.courses_information_carriers(),
        name="broken-cancel",
    )


def _deepest_witness(graph):
    """A longest witness trace of the explored graph."""
    return max(graph.states.values(), key=lambda t: len(trace_updates(t)))


# ---------------------------------------------------------------------
# trace peeling and rendering
# ---------------------------------------------------------------------
class TestTracePeeling:
    def test_trace_updates_peels_initial_first(self):
        framework = APPLICATIONS["courses"]()
        result = framework.verify_pipeline(only=["explore"])
        graph = result.result_of("explore")
        witness = _deepest_witness(graph)
        steps = trace_updates(witness)
        assert steps
        # The outermost application is the *last* update; peeling
        # reverses into application order.
        assert steps[-1][0] == witness.symbol.name
        for update, params in steps:
            assert isinstance(update, str)
            assert all(isinstance(p, str) for p in params)

    def test_render_counterexample_shows_state_sequence(self):
        framework = APPLICATIONS["courses"]()
        result = framework.verify_pipeline(only=["explore"])
        graph = result.result_of("explore")
        witness = _deepest_witness(graph)
        rendered = render_counterexample(witness, framework.algebra())
        lines = rendered.splitlines()
        assert lines[0].strip().startswith("initiate")
        assert all(line.strip().startswith("->") for line in lines[1:])
        # With an algebra every line carries a snapshot rendering.
        assert "{" in lines[-1]
        # Without one, only the update names appear.
        bare = render_counterexample(witness)
        assert "{" not in bare

    def test_spec_error_degrades_the_snapshot_line(self, monkeypatch):
        from repro.errors import IncompletenessError

        framework = APPLICATIONS["courses"]()
        graph = framework.verify_pipeline(only=["explore"]).result_of(
            "explore"
        )
        algebra = framework.algebra()

        def incomplete(trace):
            raise IncompletenessError("no equation applies")

        monkeypatch.setattr(algebra, "snapshot", incomplete)
        witness = _deepest_witness(graph)
        assert render_counterexample(witness, algebra) == (
            render_counterexample(witness)
        )

    def test_bug_while_rendering_a_snapshot_propagates(self, monkeypatch):
        framework = APPLICATIONS["courses"]()
        graph = framework.verify_pipeline(only=["explore"]).result_of(
            "explore"
        )
        algebra = framework.algebra()

        def broken(trace):
            raise RuntimeError("snapshot bug")

        monkeypatch.setattr(algebra, "snapshot", broken)
        with pytest.raises(RuntimeError, match="snapshot bug"):
            render_counterexample(_deepest_witness(graph), algebra)

    def test_bug_in_the_graph_provider_propagates(self):
        from repro.refinement.first_second import (
            TransitionConsistencyReport,
        )

        failed = TransitionConsistencyReport(ok=False, transitions_checked=1)

        def broken():
            raise RuntimeError("graph provider bug")

        with pytest.raises(RuntimeError, match="graph provider bug"):
            render_failures({"transitions": failed}, graph_provider=broken)

    def test_minimal_witnesses_picks_shortest(self):
        rendered = ["a\nb\nc", "x", "m\nn"]
        picked, dropped = minimal_witnesses(rendered)
        assert picked == ["x"]
        assert dropped == 2
        picked3, dropped3 = minimal_witnesses(rendered, limit=3)
        assert picked3 == ["x", "m\nn", "a\nb\nc"]
        assert dropped3 == 0


# ---------------------------------------------------------------------
# counterexample extraction
# ---------------------------------------------------------------------
class TestCounterexamples:
    def test_passing_reports_have_no_witnesses(self):
        framework = APPLICATIONS["courses"]()
        result = framework.verify_pipeline()
        assert result.ok
        for name in result.selection:
            assert (
                counterexamples_of(name, result.result_of(name)) == []
            )

    def test_static_violations_render_as_traces(self):
        framework = _broken_framework()
        result = framework.verify_pipeline()
        assert not result.ok
        witnesses = counterexamples_of(
            "static",
            result.result_of("static"),
            algebra=framework.algebra(),
        )
        assert witnesses
        assert all("fails after the trace" in w for w in witnesses)
        assert all("initiate" in w for w in witnesses)

    def test_render_failures_one_minimal_block_per_check(self):
        framework = _broken_framework()
        result = framework.verify_pipeline()
        text = render_failures(
            {name: result.result_of(name) for name in result.selection},
            algebra=framework.algebra(),
            graph_provider=lambda: result.result_of("explore"),
        )
        assert text is not None
        assert "[static] minimal counterexample:" in text
        assert "[inclusion] minimal counterexample:" in text
        assert "more counterexample" in text
        # One witness per failing check: each block shows exactly one
        # trace (a single "initiate" line).
        for block in text.split("\n\n"):
            assert block.count("fails after the trace") <= 1

    def test_render_failures_none_when_green(self):
        framework = APPLICATIONS["courses"]()
        result = framework.verify_pipeline()
        assert (
            render_failures(
                {
                    name: result.result_of(name)
                    for name in result.selection
                }
            )
            is None
        )


# ---------------------------------------------------------------------
# provenance records
# ---------------------------------------------------------------------
def _provenance_of(framework, **kwargs):
    recorder = CoverageRecorder()
    with activate(coverage=recorder):
        result = framework.verify_pipeline(**kwargs)
    graph = build_framework_graph()
    return pipeline_provenance(
        framework, result, graph, algebra=framework.algebra()
    )


class TestPipelineProvenance:
    def test_records_cover_every_execution(self):
        framework = APPLICATIONS["courses"]()
        records = _provenance_of(framework)
        names = [record["name"] for record in records]
        assert "explore" in names
        assert "completeness" in names
        for record in records:
            assert record["ok"] is True
            assert record["aborted"] is False
            assert len(record["fingerprint"]) == 64
            assert record["coverage_digest"] is not None
            assert "witnesses" not in record

    def test_params_exclude_workers(self):
        framework = APPLICATIONS["courses"]()
        for record in _provenance_of(framework, workers=2):
            assert "workers" not in record["params"]

    def test_records_identical_across_worker_counts(self):
        serial = _provenance_of(APPLICATIONS["courses"]())
        forked = _provenance_of(APPLICATIONS["courses"](), workers=2)
        assert serial == forked

    def test_failure_records_carry_minimal_witnesses(self):
        framework = _broken_framework()
        records = _provenance_of(framework)
        static = next(r for r in records if r["name"] == "static")
        assert static["ok"] is False
        assert 1 <= len(static["witnesses"]) <= 3
        assert static["witnesses_dropped"] >= 0
        assert "fails after the trace" in static["witnesses"][0]
