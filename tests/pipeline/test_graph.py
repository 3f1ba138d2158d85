"""CheckGraph validation and --only/--skip selection closure."""

from __future__ import annotations

import pytest

from repro.errors import SpecificationError
from repro.pipeline.check import Check, CheckRun
from repro.pipeline.graph import CheckGraph
from repro.pipeline.nodes import build_framework_graph


def _noop(ctx, params):
    return CheckRun(result=True)


def _check(name, deps=()):
    return Check(name=name, title=name, run=_noop, deps=deps)


class TestValidation:
    def test_duplicate_names_are_rejected(self):
        with pytest.raises(SpecificationError, match="duplicate"):
            CheckGraph([_check("a"), _check("a")])

    def test_unknown_dependency_is_rejected(self):
        with pytest.raises(SpecificationError, match="unknown"):
            CheckGraph([_check("a", deps=("ghost",))])

    def test_dependency_declared_later_is_rejected(self):
        # Declaration order IS the schedule; a forward dependency
        # would make it non-topological.
        with pytest.raises(SpecificationError, match="declared later"):
            CheckGraph([_check("a", deps=("b",)), _check("b")])

    def test_names_preserve_declaration_order(self):
        graph = CheckGraph(
            [_check("a"), _check("b", deps=("a",)), _check("c")]
        )
        assert graph.names == ("a", "b", "c")
        assert graph.dependents("a") == ("b",)


class TestSelection:
    def test_only_pulls_in_dependencies(self):
        graph = build_framework_graph()
        assert graph.select(only=["static"]) == ("explore", "static")

    @pytest.mark.parametrize(
        "check", ["completeness", "congruence", "agreement"]
    )
    def test_table_readers_pull_in_the_traces_node(self, check):
        graph = build_framework_graph()
        assert graph.select(only=[check]) == ("traces", check)
        assert check not in graph.select(skip=["traces"])

    def test_only_keeps_schedule_order(self):
        graph = build_framework_graph()
        assert graph.select(
            only=["agreement", "completeness"]
        ) == ("traces", "completeness", "agreement")

    def test_skip_removes_dependents(self):
        graph = build_framework_graph()
        selection = graph.select(skip=["explore"])
        assert "explore" not in selection
        assert "static" not in selection
        assert "inclusion" not in selection
        assert "transitions" not in selection
        assert "completeness" in selection
        assert "second-third" in selection

    def test_skip_wins_over_only(self):
        graph = build_framework_graph()
        assert graph.select(
            only=["completeness", "congruence"],
            skip=["congruence"],
        ) == ("traces", "completeness")

    def test_unknown_name_is_an_error(self):
        graph = build_framework_graph()
        with pytest.raises(SpecificationError, match="unknown check"):
            graph.select(only=["typo"])

    def test_empty_selection_is_an_error(self):
        graph = build_framework_graph()
        with pytest.raises(SpecificationError, match="no checks"):
            graph.select(only=["static"], skip=["explore"])

    def test_default_selection_is_the_whole_graph(self):
        graph = build_framework_graph()
        assert graph.select() == graph.names
