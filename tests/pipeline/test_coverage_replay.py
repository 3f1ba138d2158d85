"""Coverage through the pipeline: replay, merging, scoping.

Pins the tentpole determinism contract: the merged run-level coverage
payload is byte-identical across worker counts and across cold/warm
cache runs, cache entries written with coverage off never silently
drop contributions, and ``--fail-fast``/``--only``/``--skip`` leave
neither orphan spans nor out-of-scope coverage behind.
"""

import pytest

from repro.cli import APPLICATIONS
from repro.core.framework import DesignFramework
from repro.obs.coverage import (
    CoverageRecorder,
    coverage_document,
    coverage_json,
)
from repro.obs.switch import activate
from repro.obs.tracer import Tracer
from repro.pipeline.cache import ResultCache
from tests.refinement.test_first_second import broken_cancel_spec


def _run(framework, recorder, **kwargs):
    with activate(coverage=recorder):
        return framework.verify_pipeline(**kwargs)


def _broken_framework() -> DesignFramework:
    from repro.applications import courses

    return DesignFramework.from_sources(
        information=courses.courses_information(),
        algebraic=broken_cancel_spec(),
        schema_source=courses.courses_schema_source(),
        carriers=courses.courses_information_carriers(),
        name="broken-cancel",
    )


# ---------------------------------------------------------------------
# worker-count invariance
# ---------------------------------------------------------------------
class TestWorkerInvariance:
    def test_merged_payload_identical_serial_vs_forked(self):
        serial, forked = CoverageRecorder(), CoverageRecorder()
        result1 = _run(APPLICATIONS["courses"](), serial, workers=1)
        result4 = _run(APPLICATIONS["courses"](), forked, workers=4)
        assert result1.ok and result4.ok
        assert serial.to_payload() == forked.to_payload()

    def test_documents_byte_identical_across_worker_counts(self):
        texts = []
        for workers in (1, 4):
            framework = APPLICATIONS["bank"]()
            recorder = CoverageRecorder()
            result = _run(framework, recorder, workers=workers)
            assert result.ok
            texts.append(
                coverage_json(
                    coverage_document(
                        recorder,
                        framework.algebraic,
                        application="bank",
                    )
                )
            )
        assert texts[0] == texts[1]


# ---------------------------------------------------------------------
# cache replay
# ---------------------------------------------------------------------
class TestCacheReplay:
    def test_cold_and_warm_payloads_identical(self, tmp_path):
        cold, warm = CoverageRecorder(), CoverageRecorder()
        cold_result = _run(
            APPLICATIONS["courses"](),
            cold,
            cache=ResultCache(tmp_path),
        )
        warm_result = _run(
            APPLICATIONS["courses"](),
            warm,
            cache=ResultCache(tmp_path),
        )
        assert cold_result.ok and warm_result.ok
        assert warm_result.cache_hits == len(warm_result.executions)
        assert cold.to_payload() == warm.to_payload()

    def test_replayed_check_coverage_matches_stored(self, tmp_path):
        cold_result = _run(
            APPLICATIONS["courses"](),
            CoverageRecorder(),
            cache=ResultCache(tmp_path),
        )
        warm_result = _run(
            APPLICATIONS["courses"](),
            CoverageRecorder(),
            cache=ResultCache(tmp_path),
        )
        for execution in warm_result.executions:
            assert execution.status == "hit"
            stored = cold_result.execution(execution.name).run.coverage
            assert execution.run.coverage == stored

    def test_cross_population_replays_identically(self, tmp_path):
        """A cache written at workers=4 replays every check at
        workers=1 (no fingerprint depends on the worker count), and
        the merged run-level coverage is identical."""
        forked = CoverageRecorder()
        _run(
            APPLICATIONS["courses"](),
            forked,
            cache=ResultCache(tmp_path),
            workers=4,
        )
        warm = CoverageRecorder()
        warm_result = _run(
            APPLICATIONS["courses"](),
            warm,
            cache=ResultCache(tmp_path),
            workers=1,
        )
        assert warm_result.cache_hits == len(warm_result.executions)
        assert warm.to_payload() == forked.to_payload()

    def test_coverage_off_entries_are_misses_when_on(self, tmp_path):
        # Populate the cache with coverage disabled ...
        first = APPLICATIONS["courses"]().verify_pipeline(
            cache=ResultCache(tmp_path)
        )
        assert first.ok
        # ... then a coverage-enabled run must re-execute everything:
        # replaying those entries would silently drop contributions.
        recorder = CoverageRecorder()
        second = _run(
            APPLICATIONS["courses"](),
            recorder,
            cache=ResultCache(tmp_path),
        )
        assert second.cache_hits == 0
        assert all(e.status == "ran" for e in second.executions)
        assert not recorder.is_empty()
        # The re-run upgraded the entries: a third run hits.
        third = _run(
            APPLICATIONS["courses"](),
            CoverageRecorder(),
            cache=ResultCache(tmp_path),
        )
        assert third.cache_hits == len(third.executions)

    def test_coverage_run_entries_still_hit_with_coverage_off(
        self, tmp_path
    ):
        _run(
            APPLICATIONS["courses"](),
            CoverageRecorder(),
            cache=ResultCache(tmp_path),
        )
        plain = APPLICATIONS["courses"]().verify_pipeline(
            cache=ResultCache(tmp_path)
        )
        assert plain.ok
        assert plain.cache_hits == len(plain.executions)


# ---------------------------------------------------------------------
# selection and fail-fast scoping
# ---------------------------------------------------------------------
class TestScoping:
    def test_skip_scopes_coverage_to_remaining_subgraph(self):
        recorder = CoverageRecorder()
        result = _run(
            APPLICATIONS["courses"](), recorder, skip=["grammar"]
        )
        assert result.ok
        assert "grammar" not in result.selection
        assert not recorder.hyperrules
        assert not recorder.metanotions
        assert recorder.dispatch

    def test_only_scopes_coverage_to_selected_subgraph(self):
        recorder = CoverageRecorder()
        result = _run(
            APPLICATIONS["courses"](), recorder, only=["grammar"]
        )
        assert result.ok
        assert recorder.hyperrules
        assert not recorder.dispatch
        assert recorder.explore is None

    def test_fail_fast_leaves_no_orphan_spans(self):
        tracer = Tracer()
        recorder = CoverageRecorder()
        with activate(tracer, recorder):
            result = _broken_framework().verify_pipeline(
                fail_fast=True
            )
        assert not result.ok
        aborted = [
            e for e in result.executions if e.status == "aborted"
        ]
        assert aborted
        # Every opened span was closed despite the early abort.
        assert tracer.current is None
        for span in tracer.walk():
            assert span.end is not None, f"orphan span {span.name}"

    def test_fail_fast_coverage_excludes_aborted_checks(self):
        recorder = CoverageRecorder()
        with activate(coverage=recorder):
            result = _broken_framework().verify_pipeline(
                fail_fast=True
            )
        for execution in result.executions:
            if execution.status == "aborted":
                assert execution.run is None
            else:
                assert execution.run.coverage is not None

    @pytest.mark.parametrize("workers", [1, 4])
    def test_fail_fast_payload_deterministic(self, workers):
        payloads = []
        for _ in range(2):
            recorder = CoverageRecorder()
            with activate(coverage=recorder):
                _broken_framework().verify_pipeline(
                    fail_fast=True, workers=workers
                )
            payloads.append(recorder.to_payload())
        assert payloads[0] == payloads[1]
