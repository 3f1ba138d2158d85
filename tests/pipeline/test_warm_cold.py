"""Warm-vs-cold byte-identity and incremental invalidation.

The tentpole guarantee: a cached re-verification produces a report
and a stats bundle *byte-identical* to the cold run that populated
the cache, at any worker count — because hits replay the stored
span counters and wall times instead of re-measuring.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import obs
from repro.cli import APPLICATIONS
from repro.pipeline.cache import ResultCache


def _verify(app, workers, cache):
    """The report and the stats bundle of one traced run (as
    ``verify --stats`` makes it)."""
    framework = APPLICATIONS[app]()
    with obs.activate(obs.Tracer()):
        result = framework.verify_pipeline(workers=workers, cache=cache)
    return framework.report_of(result), result.combined_stats()


def _assert_warm_equals_cold(app, workers, tmp_path):
    cache = ResultCache(tmp_path)
    cold, cold_stats = _verify(app, workers, cache)
    assert cache.stores > 0 and cache.hits == 0
    warm, warm_stats = _verify(app, workers, cache)
    assert cache.hits > 0
    assert str(warm) == str(cold)
    assert warm_stats.to_json() == cold_stats.to_json()


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("app", ["courses", "bank"])
    def test_warm_equals_cold(self, app, workers, tmp_path):
        _assert_warm_equals_cold(app, workers, tmp_path)

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 4])
    def test_warm_equals_cold_projects(self, workers, tmp_path):
        _assert_warm_equals_cold("projects", workers, tmp_path)

    def test_cli_stats_json_cold_equals_warm(self, tmp_path):
        from repro.cli import main

        cache = tmp_path / "cache"
        paths = [tmp_path / "cold.json", tmp_path / "warm.json"]
        for path in paths:
            assert main(
                [
                    "verify", "courses", "--quiet",
                    "--cache-dir", str(cache), "--stats-json", str(path),
                ]
            ) == 0
        cold, warm = (path.read_bytes() for path in paths)
        assert warm == cold
        labels = [part["label"] for part in json.loads(cold)["parts"]]
        assert labels[:3] == ["explore", "traces", "completeness"]

    def test_cache_off_equals_cache_cold(self, tmp_path):
        plain, plain_stats = _verify("courses", 1, None)
        cached, cached_stats = _verify("courses", 1, ResultCache(tmp_path))
        assert str(cached) == str(plain)
        assert [p.label for p in cached_stats.parts] == [
            p.label for p in plain_stats.parts
        ]


class TestInvalidation:
    def test_touched_schema_reruns_exactly_its_dependents(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        framework = APPLICATIONS["courses"]()
        framework.verify_pipeline(cache=cache)
        edited = APPLICATIONS["courses"]()
        # Whitespace-only edit: same parse, different source text —
        # the schema fingerprint (over the text the W-grammar reads)
        # must change.
        edited.schema_source = edited.schema_source + "\n"
        result = edited.verify_pipeline(cache=cache)
        statuses = {e.name: e.status for e in result.executions}
        assert statuses == {
            "explore": "hit",
            "traces": "ran",
            "completeness": "hit",
            "static": "hit",
            "inclusion": "hit",
            "transitions": "hit",
            "induction": "hit",
            "congruence": "hit",
            "grammar": "ran",
            "second-third": "ran",
            "agreement": "ran",
        }

    def test_unchanged_rerun_hits_every_node(self, tmp_path):
        cache = ResultCache(tmp_path)
        APPLICATIONS["courses"]().verify_pipeline(cache=cache)
        result = APPLICATIONS["courses"]().verify_pipeline(cache=cache)
        assert all(e.status == "hit" for e in result.executions)

    def test_cache_from_workers_4_replays_at_workers_1(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold, cold_stats = _verify("courses", 4, cache)
        result = APPLICATIONS["courses"]().verify_pipeline(cache=cache)
        assert all(e.status == "hit" for e in result.executions)
        warm, warm_stats = _verify("courses", 1, cache)
        assert str(warm) == str(cold)
        # Only the bundle's requested worker count differs.
        assert cold_stats.workers == 4 and warm_stats.workers == 1
        assert dataclasses.replace(warm_stats, workers=4).to_json() == (
            cold_stats.to_json()
        )

    def test_corrupted_cache_reruns_and_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold, _ = _verify("courses", 1, cache)
        for path in tmp_path.glob("*.json"):
            path.write_text("garbage", encoding="utf-8")
        warm, _ = _verify("courses", 1, ResultCache(tmp_path))
        assert str(warm) == str(cold)

    def test_unreadable_report_reruns_and_is_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold, _ = _verify("courses", 1, cache)
        (path,) = tmp_path.glob("static-*.json")
        entry = json.loads(path.read_text(encoding="utf-8"))
        del entry["report"]["states_checked"]
        path.write_text(json.dumps(entry), encoding="utf-8")
        framework = APPLICATIONS["courses"]()
        tracer = obs.Tracer()
        with obs.activate(tracer):
            result = framework.verify_pipeline(cache=ResultCache(tmp_path))
        assert str(framework.report_of(result)) == str(cold)
        assert result.execution("static").status == "ran"
        assert result.execution("completeness").status == "hit"
        assert tracer.counter_totals()["pipeline.cache.unreadable"] == 1

    def test_replay_bug_propagates(self, tmp_path, monkeypatch):
        from repro.pipeline import scheduler

        cache = ResultCache(tmp_path)
        _verify("courses", 1, cache)

        def broken(kind, payload):
            raise RuntimeError("replay bug")

        monkeypatch.setattr(scheduler, "deserialize_result", broken)
        with pytest.raises(RuntimeError, match="replay bug"):
            _verify("courses", 1, ResultCache(tmp_path))

    def test_failing_checks_are_never_cached(self, tmp_path):
        from repro.algebraic.equations import ConditionalEquation
        from repro.algebraic.spec import AlgebraicSpec
        from repro.applications import courses as app
        from repro.core.framework import DesignFramework

        cache = ResultCache(tmp_path)
        # Negate one equation's rhs (the mutation-testing move):
        # still sufficiently complete, but the refinement checks fail
        # with witness-bearing reports that must not enter the cache.
        spec = app.courses_algebraic()
        victim = spec.equations[0]
        mutated = ConditionalEquation(
            victim.lhs,
            spec.signature.not_(victim.rhs),
            victim.condition,
            f"{victim.label}-negated",
        )
        broken = AlgebraicSpec(
            spec.signature,
            (mutated,) + tuple(spec.equations[1:]),
            name="mutant courses",
        )
        framework = DesignFramework.from_sources(
            information=app.courses_information(),
            algebraic=broken,
            schema_source=app.courses_schema_source(),
            carriers=app.courses_information_carriers(),
            name="broken courses",
        )
        report = framework.verify(cache=cache)
        assert not report.ok
        for path in tmp_path.glob("*.json"):
            entry = json.loads(path.read_text(encoding="utf-8"))
            # Every stored result-bearing entry must be clean.
            if entry["kind"] is not None:
                assert entry["report"] is not None, entry["node"]
