"""Proof-coverage recorder: recording, merging, documents."""

import json

from repro.algebraic.spec import AlgebraicSpec
from repro.cli import APPLICATIONS
from repro.obs.coverage import (
    CoverageRecorder,
    coverage_digest,
    coverage_document,
    coverage_json,
    invariant_payload,
    payload_digest,
    state_graph_census,
)
from repro.obs.switch import SWITCH, activate


def _sample_recorder() -> CoverageRecorder:
    recorder = CoverageRecorder()
    recorder.record_dispatch("offered", "offer")
    recorder.record_dispatch("offered", "offer")
    recorder.record_fire("offered", "offer", 0)
    recorder.record_fire("offered", "cancel", 2)
    recorder.record_u_fire("enroll", 5)
    recorder.record_hyperrule("schema")
    recorder.record_metanotion("IDENT")
    recorder.record_explore({"states": 3, "levels": []})
    return recorder


# ---------------------------------------------------------------------
# recorder mechanics
# ---------------------------------------------------------------------
class TestRecorder:
    def test_empty(self):
        recorder = CoverageRecorder()
        assert recorder.is_empty()
        recorder.record_dispatch("q", "c")
        assert not recorder.is_empty()

    def test_payload_roundtrip(self):
        recorder = _sample_recorder()
        payload = recorder.to_payload()
        rebuilt = CoverageRecorder.from_payload(payload)
        assert rebuilt.to_payload() == payload
        # Sets serialize as sorted lists, counts as ints.
        assert payload["dispatch"]["offered|offer"] == 2
        assert payload["fired"]["offered|offer"] == [0]

    def test_payload_is_json_portable(self):
        payload = _sample_recorder().to_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_merge_sums_counts_and_unions_sets(self):
        left = _sample_recorder()
        right = CoverageRecorder()
        right.record_dispatch("offered", "offer")
        right.record_fire("offered", "offer", 1)
        right.record_hyperrule("schema")
        left.merge(right)
        assert left.dispatch[("offered", "offer")] == 3
        assert left.fire_set("offered", "offer") == {0, 1}
        assert left.hyperrules["schema"] == 2

    def test_merge_is_commutative(self):
        a, b = _sample_recorder(), CoverageRecorder()
        b.record_dispatch("takes", "enroll")
        b.record_fire("offered", "offer", 7)
        ab, ba = CoverageRecorder(), CoverageRecorder()
        ab.merge(a)
        ab.merge(b)
        ba.merge(b)
        ba.merge(a)
        assert ab.to_payload() == ba.to_payload()

    def test_merge_payload_equals_merge(self):
        direct, via_payload = CoverageRecorder(), CoverageRecorder()
        sample = _sample_recorder()
        direct.merge(sample)
        via_payload.merge_payload(sample.to_payload())
        assert direct.to_payload() == via_payload.to_payload()

    def test_first_explore_census_wins(self):
        recorder = CoverageRecorder()
        recorder.record_explore({"states": 1})
        recorder.record_explore({"states": 99})
        assert recorder.explore == {"states": 1}


class TestFireSetAPI:
    def test_fire_sets_are_defensive_copies(self):
        recorder = _sample_recorder()
        fires = recorder.fire_set("offered", "offer")
        assert fires == frozenset({0})
        assert recorder.fire_sets()[("offered", "offer")] == fires
        assert recorder.u_fire_set("enroll") == frozenset({5})
        assert recorder.u_fire_sets()["enroll"] == frozenset({5})
        # Mutating a returned mapping never touches the recorder.
        recorder.fire_sets().clear()
        assert recorder.fire_set("offered", "offer") == frozenset({0})

    def test_unknown_pair_is_empty(self):
        recorder = _sample_recorder()
        assert recorder.fire_set("nope", "nothing") == frozenset()
        assert recorder.u_fire_set("nothing") == frozenset()


# ---------------------------------------------------------------------
# the switch's coverage slot
# ---------------------------------------------------------------------
class TestSwitch:
    def test_enable_disable(self):
        assert SWITCH.coverage is None
        recorder = CoverageRecorder()
        with activate(coverage=recorder):
            assert SWITCH.coverage is recorder
        assert SWITCH.coverage is None

    def test_activate_restores_prior_state(self):
        recorder = CoverageRecorder()
        with activate(coverage=recorder) as switch:
            assert switch.coverage is recorder
            switch.coverage.record_dispatch("q", "c")
        assert SWITCH.coverage is None
        assert recorder.dispatch == {("q", "c"): 1}

    def test_activate_is_reentrant(self):
        outer, inner = CoverageRecorder(), CoverageRecorder()
        with activate(coverage=outer):
            with activate(coverage=inner):
                SWITCH.coverage.record_dispatch("q", "c")
            # The outer recorder is active again, untouched by the
            # inner scope.
            assert SWITCH.coverage is outer
            assert outer.is_empty()
        assert inner.dispatch == {("q", "c"): 1}
        assert SWITCH.coverage is None

    def test_capture_merges_into_enclosing(self):
        # The scheduler's per-check scope: a fresh recorder, folded
        # into the enclosing one by the scope's owner.
        run, check = CoverageRecorder(), CoverageRecorder()
        with activate(coverage=run):
            with activate(coverage=check):
                SWITCH.coverage.record_dispatch("q", "c")
            assert run.is_empty()
            run.merge(check)
        assert check.dispatch == {("q", "c"): 1}
        assert run.dispatch == {("q", "c"): 1}

    def test_capture_no_merge_keeps_facts_isolated(self):
        # The executor's chunk scope: the fresh recorder is shipped,
        # never merged into the enclosing one on the way out.
        run, chunk = CoverageRecorder(), CoverageRecorder()
        with activate(coverage=run):
            with activate(coverage=chunk):
                SWITCH.coverage.record_dispatch("q", "c")
        assert chunk.dispatch == {("q", "c"): 1}
        assert run.is_empty()


# ---------------------------------------------------------------------
# instrumentation points: engine, explorer, recognizer
# ---------------------------------------------------------------------
class TestInstrumentation:
    def test_engine_records_dispatch_and_fires(self):
        framework = APPLICATIONS["courses"]()
        recorder = CoverageRecorder()
        with activate(coverage=recorder):
            result = framework.verify_pipeline(only=["completeness"])
        assert result.ok
        assert recorder.dispatch
        assert recorder.fire_sets()
        # Fired indices name actual Q-equations of the spec.
        spec = framework.algebraic
        for indices in recorder.fire_sets().values():
            for index in indices:
                assert spec.equations[index].is_q_equation

    def test_disabled_records_nothing(self):
        framework = APPLICATIONS["courses"]()
        result = framework.verify_pipeline(only=["completeness"])
        assert result.ok
        assert SWITCH.coverage is None
        run = result.execution("completeness").run
        assert run.coverage is None

    def test_selection_scopes_coverage(self):
        framework = APPLICATIONS["courses"]()
        recorder = CoverageRecorder()
        with activate(coverage=recorder):
            framework.verify_pipeline(only=["grammar"])
        # Grammar-only runs touch the recognizer but never the
        # rewrite engine or the explorer.
        assert recorder.hyperrules
        assert recorder.metanotions
        assert not recorder.dispatch
        assert recorder.explore is None

    def test_recognizer_counts_ignore_memo_warmth(self):
        payloads = []
        for _ in range(2):
            framework = APPLICATIONS["courses"]()
            recorder = CoverageRecorder()
            with activate(coverage=recorder):
                framework.verify_pipeline(only=["grammar"])
            payloads.append(recorder.to_payload())
        assert payloads[0]["hyperrules"] == payloads[1]["hyperrules"]
        assert payloads[0]["metanotions"] == payloads[1]["metanotions"]

    def test_explore_census_recorded_once(self):
        framework = APPLICATIONS["courses"]()
        recorder = CoverageRecorder()
        with activate(coverage=recorder):
            result = framework.verify_pipeline()
        assert result.ok
        census = recorder.explore
        assert census is not None
        graph = result.result_of("explore")
        assert census["states"] == len(graph.states)
        assert census["transitions"] == len(graph.transitions)


# ---------------------------------------------------------------------
# the census
# ---------------------------------------------------------------------
class TestCensus:
    def test_census_shape(self):
        framework = APPLICATIONS["courses"]()
        result = framework.verify_pipeline(only=["explore"])
        graph = result.result_of("explore")
        census = state_graph_census(graph)
        assert census["states"] == len(graph.states)
        assert census["truncated"] is False
        levels = census["levels"]
        assert levels[0] == {
            "depth": 0,
            "frontier": 1,
            "transitions": levels[0]["transitions"],
            "cumulative_states": 1,
        }
        # Frontier sizes partition the state set.
        assert sum(level["frontier"] for level in levels) == len(
            graph.states
        )
        # Per-level transition counts partition the edge set.
        assert sum(level["transitions"] for level in levels) == len(
            graph.transitions
        )
        # The cumulative column is the running frontier sum.
        running = 0
        for level in levels:
            running += level["frontier"]
            assert level["cumulative_states"] == running

    def test_census_deterministic(self):
        censuses = []
        for _ in range(2):
            framework = APPLICATIONS["courses"]()
            result = framework.verify_pipeline(only=["explore"])
            censuses.append(
                state_graph_census(result.result_of("explore"))
            )
        assert censuses[0] == censuses[1]


# ---------------------------------------------------------------------
# the coverage document
# ---------------------------------------------------------------------
def _full_run(name="courses"):
    framework = APPLICATIONS[name]()
    recorder = CoverageRecorder()
    with activate(coverage=recorder):
        result = framework.verify_pipeline()
    return framework, recorder, result


class TestDocument:
    def test_courses_reaches_full_cell_coverage(self):
        framework, recorder, result = _full_run()
        assert result.ok
        document = coverage_document(
            recorder, framework.algebraic, application="courses"
        )
        summary = document["rewrite"]["summary"]
        assert summary["coverage"] == 1.0
        assert summary["uncovered"] == 0
        assert summary["missing"] == 0
        assert summary["uncovered_cells"] == []
        # The universe is queries x (updates + initials).
        signature = framework.algebraic.signature
        expected = len(signature.queries) * (
            len(signature.updates) + len(signature.initials)
        )
        assert summary["total_cells"] == expected

    def test_deleted_equation_surfaces_exact_cell(self):
        framework = APPLICATIONS["courses"]()
        full = framework.algebraic
        victim = next(
            equation
            for equation in full.equations
            if equation.is_q_equation
        )
        pruned = AlgebraicSpec(
            signature=full.signature,
            equations=tuple(
                equation
                for equation in full.equations
                if equation is not victim
            ),
        )
        from repro.applications import courses
        from repro.core.framework import DesignFramework

        broken = DesignFramework.from_sources(
            information=courses.courses_information(),
            algebraic=pruned,
            schema_source=courses.courses_schema_source(),
            carriers=courses.courses_information_carriers(),
            name="courses-pruned",
        )
        recorder = CoverageRecorder()
        with activate(coverage=recorder):
            result = broken.verify_pipeline(only=["completeness"])
        assert not result.ok
        document = coverage_document(
            recorder, pruned, application="courses-pruned"
        )
        summary = document["rewrite"]["summary"]
        assert summary["coverage"] < 1.0
        # The victim's own cell is reported as a sufficient-
        # completeness hole (no equation left covers it).
        holes = summary["uncovered_cells"]
        assert holes
        missing = [
            f"{cell['query']}({cell['constructor']})"
            for cell in document["rewrite"]["cells"]
            if cell["status"] == "missing"
        ]
        assert missing
        assert set(missing) <= set(holes)

    def test_document_digest_ignores_checks(self):
        framework, recorder, _ = _full_run()
        document = coverage_document(
            recorder, framework.algebraic, application="courses"
        )
        with_checks = coverage_document(
            recorder,
            framework.algebraic,
            application="courses",
            checks=[{"name": "explore"}],
        )
        assert document["digest"] == with_checks["digest"]
        assert document["digest"] == coverage_digest(document)

    def test_coverage_json_is_byte_stable(self):
        framework, recorder, _ = _full_run()
        document = coverage_document(
            recorder, framework.algebraic, application="courses"
        )
        text = coverage_json(document)
        assert text == coverage_json(json.loads(text))
        assert text.endswith("\n")


# ---------------------------------------------------------------------
# per-check payload digests
# ---------------------------------------------------------------------
class TestPayloadDigest:
    def test_invariant_projection_drops_fired_sets(self):
        payload = _sample_recorder().to_payload()
        projected = invariant_payload(payload)
        assert set(projected) == {
            "dispatch",
            "hyperrules",
            "metanotions",
            "explore",
        }

    def test_digest_ignores_memo_dependent_sections(self):
        recorder = _sample_recorder()
        baseline = payload_digest(recorder.to_payload())
        recorder.record_fire("offered", "offer", 99)
        recorder.record_u_fire("cancel", 3)
        assert payload_digest(recorder.to_payload()) == baseline
        recorder.record_dispatch("takes", "enroll")
        assert payload_digest(recorder.to_payload()) != baseline
