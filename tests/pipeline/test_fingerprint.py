"""Fingerprint stability and invalidation granularity.

The cache's correctness rests on two properties pinned down here:
equal content always yields equal fingerprints (across fresh object
graphs, i.e. across processes), and an edit to one input invalidates
exactly the checks that declare that input.
"""

from __future__ import annotations

import dataclasses

from repro.cli import APPLICATIONS
from repro.pipeline.cache import ResultCache
from repro.pipeline.fingerprint import (
    combine_fingerprint,
    framework_parts,
)
from repro.pipeline.nodes import build_framework_graph


def _changed_nodes(base_parts, edited_parts, **graph_kwargs):
    """Names of graph nodes whose fingerprint differs between two
    part sets (same parameters)."""
    graph = build_framework_graph(**graph_kwargs)
    return {
        check.name
        for check in graph
        if combine_fingerprint(
            check.name, base_parts, check.inputs, check.params
        )
        != combine_fingerprint(
            check.name, edited_parts, check.inputs, check.params
        )
    }


class TestStability:
    def test_parts_stable_across_fresh_instances(self):
        assert framework_parts(APPLICATIONS["courses"]()) == (
            framework_parts(APPLICATIONS["courses"]())
        )

    def test_explicit_maps_fingerprint_stably(self):
        # The bank ships explicit (non-homonym) interpretation and
        # representation maps; their content reprs must not embed
        # object identity.
        assert framework_parts(APPLICATIONS["bank"]()) == (
            framework_parts(APPLICATIONS["bank"]())
        )

    def test_different_applications_share_no_part(self):
        courses = framework_parts(APPLICATIONS["courses"]())
        bank = framework_parts(APPLICATIONS["bank"]())
        assert all(courses[key] != bank[key] for key in courses)


class TestGranularity:
    def test_carriers_edit_changes_only_carriers_part(self):
        framework = APPLICATIONS["courses"]()
        base = framework_parts(framework)
        carriers = {
            sort: list(values)
            for sort, values in framework.carriers.items()
        }
        first = next(iter(carriers))
        carriers[first] = carriers[first] + ["extra"]
        edited = framework_parts(
            dataclasses.replace(framework, carriers=carriers)
        )
        assert {k for k in base if base[k] != edited[k]} == {"carriers"}

    def test_schema_source_edit_changes_only_schema_part(self):
        framework = APPLICATIONS["courses"]()
        base = framework_parts(framework)
        edited = framework_parts(
            dataclasses.replace(
                framework,
                schema_source=framework.schema_source + "\n",
            )
        )
        assert {k for k in base if base[k] != edited[k]} == {"schema"}

    def test_carriers_edit_invalidates_exactly_its_dependents(self):
        framework = APPLICATIONS["courses"]()
        base = framework_parts(framework)
        edited = dict(base, carriers="0" * 64)
        assert _changed_nodes(base, edited) == {
            "static",
            "inclusion",
            "transitions",
            "induction",
        }

    def test_schema_edit_invalidates_exactly_its_dependents(self):
        framework = APPLICATIONS["courses"]()
        base = framework_parts(framework)
        edited = dict(base, schema="0" * 64)
        assert _changed_nodes(base, edited) == {
            "grammar",
            "second-third",
            "agreement",
        }

    def test_algebraic_edit_invalidates_everything_but_grammar(self):
        framework = APPLICATIONS["courses"]()
        base = framework_parts(framework)
        edited = dict(base, algebraic="0" * 64)
        graph = build_framework_graph()
        assert _changed_nodes(base, edited) == (
            set(graph.names) - {"grammar"}
        )

    def test_no_fingerprint_depends_on_the_worker_count(self, tmp_path):
        # Every check computes the same result at any worker count, so
        # a cache entry stored at one count must be found at another.
        fingerprints = {}
        for workers in (1, 4):
            result = APPLICATIONS["courses"]().verify_pipeline(
                workers=workers, cache=ResultCache(tmp_path / str(workers))
            )
            fingerprints[workers] = {
                execution.name: execution.fingerprint
                for execution in result.executions
            }
        assert fingerprints[1] == fingerprints[4]
        assert all(
            "workers" not in check.params
            for check in build_framework_graph()
        )
