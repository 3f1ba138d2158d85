"""Warm-vs-cold byte-identity and incremental invalidation.

The tentpole guarantee: a cached re-verification produces a report
and a stats bundle *byte-identical* to the cold run that populated
the cache, at any worker count — because hits replay the stored
stats and counters instead of re-measuring.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import APPLICATIONS
from repro.pipeline.cache import ResultCache


def _verify(app, workers, cache):
    framework = APPLICATIONS[app]()
    return framework.verify(
        workers=workers, collect_stats=True, cache=cache
    )


def _edited_bank_framework():
    """The bank design with one ``open``/``close_account`` equation's
    right-hand side edited."""
    from repro.algebraic.equations import ConditionalEquation
    from repro.algebraic.spec import AlgebraicSpec
    from repro.applications import bank as app
    from repro.core.framework import DesignFramework
    from repro.rpr.parser import parse_schema

    spec = app.bank_algebraic()
    victim = spec.equations_for("open", "close_account")[0]
    edited = ConditionalEquation(
        victim.lhs,
        spec.signature.true(),
        victim.condition,
        f"{victim.label}-edited",
    )
    equations = tuple(
        edited if equation is victim else equation
        for equation in spec.equations
    )
    algebraic = AlgebraicSpec(spec.signature, equations, name=spec.name)
    source = app.bank_schema_source()
    schema = parse_schema(source)
    return DesignFramework(
        information=app.bank_information(),
        algebraic=algebraic,
        schema=schema,
        carriers=app.bank_carriers(),
        schema_source=source,
        interpretation=app.bank_interpretation(algebraic.signature),
        representation=app.bank_representation_map(
            algebraic.signature, schema
        ),
        name="edited bank",
    )


def _assert_warm_equals_cold(app, workers, tmp_path):
    cache = ResultCache(tmp_path)
    cold = _verify(app, workers, cache)
    assert cache.stores > 0 and cache.hits == 0
    warm = _verify(app, workers, cache)
    assert cache.hits > 0
    assert str(warm) == str(cold)
    assert warm.stats.to_json() == cold.stats.to_json()


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("app", ["courses", "bank"])
    def test_warm_equals_cold(self, app, workers, tmp_path):
        _assert_warm_equals_cold(app, workers, tmp_path)

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 4])
    def test_warm_equals_cold_projects(self, workers, tmp_path):
        _assert_warm_equals_cold("projects", workers, tmp_path)

    def test_cache_off_equals_cache_cold(self, tmp_path):
        plain = APPLICATIONS["courses"]().verify(collect_stats=True)
        cached = _verify("courses", 1, ResultCache(tmp_path))
        assert str(cached) == str(plain)
        parts = {p.label: p.to_dict() for p in cached.stats.parts}
        plain_parts = {
            p.label: p.to_dict() for p in plain.stats.parts
        }
        assert parts.keys() == plain_parts.keys()


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
        cold = _verify("courses", 4, cache)
        result = APPLICATIONS["courses"]().verify_pipeline(cache=cache)
        assert all(e.status == "hit" for e in result.executions)
        warm = _verify("courses", 1, cache)
        assert str(warm) == str(cold)
        # Only the bundle's requested worker count differs.
        assert cold.stats.workers == 4 and warm.stats.workers == 1
        assert dataclasses.replace(warm.stats, workers=4).to_json() == (
            cold.stats.to_json()
        )

    def test_corrupted_cache_reruns_and_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = _verify("courses", 1, cache)
        for path in tmp_path.glob("*.json"):
            path.write_text("garbage", encoding="utf-8")
        warm = _verify("courses", 1, ResultCache(tmp_path))
        assert str(warm) == str(cold)

    def test_equation_edit_gets_delta_exploration(self, tmp_path):
        """An equation edit re-verified against a warm cache re-uses
        the stored edge artifact: only never-seen states are
        re-explored, and the report is byte-identical to an uncached
        run of the edited specification at every worker count."""
        from repro.algebraic.exploration import delta_counters

        cache = ResultCache(tmp_path)
        APPLICATIONS["bank"]().verify(cache=cache)
        artifacts = [
            path
            for path in tmp_path.glob("explore-edges-*.json")
        ]
        assert len(artifacts) == 1

        plain = _edited_bank_framework().verify()
        before = delta_counters()
        warm_w1 = _edited_bank_framework().verify(cache=cache)
        after = delta_counters()
        assert after["delta_runs"] == before["delta_runs"] + 1
        reexplored = (
            after["reexplored_states"] - before["reexplored_states"]
        )
        from repro.algebraic.algebra import TraceAlgebra

        graph_size = len(
            TraceAlgebra(_edited_bank_framework().algebraic).explore().states
        )
        assert reexplored / graph_size < 0.2
        assert str(warm_w1) == str(plain)
        warm_w2 = _edited_bank_framework().verify(cache=cache, workers=2)
        assert str(warm_w2) == str(plain)

    def test_delta_exploration_at_any_worker_count(self, tmp_path):
        """Explore runs in the calling process at every worker count,
        so a fanned run stores the edge artifact and the next fanned
        run after an edit re-uses it."""
        from repro.algebraic.exploration import delta_counters

        cache = ResultCache(tmp_path)
        APPLICATIONS["bank"]().verify(cache=cache, workers=2)
        assert len(list(tmp_path.glob("explore-edges-*.json"))) == 1
        before = delta_counters()
        warm = _edited_bank_framework().verify(cache=cache, workers=2)
        after = delta_counters()
        assert after["delta_runs"] == before["delta_runs"] + 1
        assert str(warm) == str(_edited_bank_framework().verify())

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
            if entry["kind"] == "artifact":
                # Edge artifacts are not check results; they carry no
                # report at all (and no witnesses: only value rows).
                assert "report" not in entry
                continue
            # Every stored result-bearing entry must be clean.
            if entry["kind"] is not None:
                assert entry["report"] is not None, entry["node"]
