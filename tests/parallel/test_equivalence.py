"""Serial-vs-fanned equivalence: a verification must produce a
bit-identical report — and identical per-check stats — for any worker
count.  Every check runs its own serial loop; the worker count only
decides which process runs the independent checks."""

import inspect
import json

import pytest

from repro import obs
from repro.applications import courses
from repro.cli import main
from repro.core.framework import DesignFramework

WORKERS = 4


def _courses_framework() -> DesignFramework:
    return DesignFramework.from_sources(
        information=courses.courses_information(),
        algebraic=courses.courses_algebraic(),
        schema_source=courses.courses_schema_source(),
        carriers=courses.courses_information_carriers(),
    )


def _scrub(node, bundle=True):
    """Zero the ambient stats fields (timing, process-global intern
    growth) and drop each bundle's requested worker count; everything
    else must be identical across worker counts."""
    if isinstance(node, dict):
        return {
            key: (
                0 if key in ("wall_time", "interned_terms")
                else _scrub(value, bundle=False)
            )
            for key, value in node.items()
            if not (bundle and key == "workers")
        }
    if isinstance(node, list):
        return [_scrub(item, bundle) for item in node]
    return node


def _traced(workers):
    """A traced pipeline run of the courses design: its report and its
    stats bundle."""
    framework = _courses_framework()
    with obs.activate(obs.Tracer()):
        result = framework.verify_pipeline(workers=workers)
    return framework.report_of(result), result.combined_stats()


class TestFrameworkEquivalence:
    @pytest.mark.slow
    def test_verify_report_identical_and_stats_attached(self):
        serial = _courses_framework().verify()
        parallel, stats = _traced(WORKERS)
        assert parallel == serial
        # One record per check, in schedule order.
        assert [part.label for part in stats.parts] == [
            "explore",
            "traces",
            "completeness",
            "static",
            "inclusion",
            "transitions",
            "induction",
            "congruence",
            "grammar",
            "second-third",
            "agreement",
        ]
        # The bundle reports the requested count; every part ran its
        # serial loop in one process.
        assert stats.workers == WORKERS
        assert {part.workers for part in stats.parts} == {1}

    def test_collect_stats_without_workers(self):
        _, stats = _traced(1)
        assert stats.workers == 1
        assert stats.states_checked > 0
        assert all(part.wall_time > 0 for part in stats.parts)

    @pytest.mark.slow
    def test_stats_json_identical_across_worker_counts(
        self, tmp_path, capsys
    ):
        documents = {}
        for workers in (1, 4):
            target = tmp_path / f"stats-w{workers}.json"
            code = main(
                [
                    "verify",
                    "all",
                    "--quiet",
                    "--workers",
                    str(workers),
                    "--stats-json",
                    str(target),
                ]
            )
            assert code == 0
            documents[workers] = json.loads(target.read_text())
        capsys.readouterr()
        assert [bundle["workers"] for bundle in documents[4]] == [4] * 4
        assert _scrub(documents[1]) == _scrub(documents[4])


def test_no_sweep_takes_a_worker_count():
    """Parallelism is check-level only: no sweep, and no check of the
    framework graph, is parameterized by a worker count."""
    from repro.algebraic.algebra import TraceAlgebra
    from repro.algebraic.completeness import (
        check_coverage,
        check_sufficient_completeness,
    )
    from repro.pipeline.nodes import build_framework_graph
    from repro.refinement import first_second, reachability, second_third

    sweeps = [
        TraceAlgebra.explore,
        check_coverage,
        check_sufficient_completeness,
        first_second.check_static_consistency,
        first_second.check_transition_consistency,
        first_second.check_refinement,
        reachability.reachable_structures,
        reachability.compare_valid_reachable,
        second_third.check_refinement,
        build_framework_graph,
    ]
    for sweep in sweeps:
        assert "workers" not in inspect.signature(sweep).parameters, sweep
    for check in build_framework_graph():
        assert "workers" not in check.params, check.name


def test_checks_do_not_import_the_parallel_package():
    """The checks record their work on spans; none of them depends on
    the worker pool (``repro.parallel``) to report it."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    for package in ("algebraic", "refinement"):
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    assert not name.startswith("repro.parallel"), path
