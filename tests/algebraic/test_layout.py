"""One cell layout and one algebra per run.

A trace algebra's observations are sorted, and that one tuple is the
key order of every snapshot the algebra takes, the cell order of its
packed explorer's rows and of the trace table's rows, and the key
order of every abstract snapshot induction enumerates or steps to.  A
verification builds one algebra and one packed explorer, so every
update plan compiles once.
"""

import itertools
from collections import Counter

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.exploration import PackedExplorer
from repro.algebraic.induction import (
    abstract_successor,
    all_snapshots,
    make_abstract_engine,
)
from repro.algebraic.plans import UpdatePlanner
from repro.algebraic.tracetable import build_trace_table
from repro.cli import APPLICATIONS, main

APPS = list(APPLICATIONS)

#: Ground update instances per application: one plan compile each.
INSTANCES = {"courses": 16, "library": 12, "projects": 30, "bank": 8}


@pytest.fixture(scope="module")
def frameworks():
    return {app: APPLICATIONS[app]() for app in APPS}


def _keys(snapshot):
    return tuple(cell for cell, _ in snapshot.entries)


def _values(snapshot):
    return tuple(value for _, value in snapshot.entries)


class TestOneLayout:
    @pytest.mark.parametrize("app", APPS)
    def test_observations_are_sorted(self, app, frameworks):
        # bank declares ``open`` before ``balance``.
        observations = frameworks[app].algebra().observations
        assert list(observations) == sorted(set(observations))

    @pytest.mark.parametrize("packed", [True, False])
    @pytest.mark.parametrize("app", APPS)
    def test_snapshot_keys_are_the_observations(
        self, app, packed, frameworks
    ):
        algebra = TraceAlgebra(frameworks[app].algebraic, packed=packed)
        for trace in algebra.traces(1):
            assert _keys(algebra.snapshot(trace)) == algebra.observations
        for snapshot in algebra.explore(max_depth=2).states:
            assert _keys(snapshot) == algebra.observations

    @pytest.mark.parametrize("app", APPS)
    def test_explorer_cells_are_the_observations(self, app, frameworks):
        algebra = frameworks[app].algebra()
        explorer = algebra.packed_explorer()
        assert explorer.cells is algebra.observations
        initial = algebra.snapshot(algebra.initial_trace())
        assert explorer.initial_row() == _values(initial)

    @pytest.mark.parametrize("app", APPS)
    def test_table_rows_are_the_explorers_rows(self, app, frameworks):
        algebra = frameworks[app].algebra()
        explored = {_values(state) for state in algebra.explore().states}
        explorer = algebra.packed_explorer()
        table = build_trace_table(algebra, 2)
        assert table.rows[0] == explorer.initial_row()
        assert set(table.rows) <= explored
        assert set(table.successors) <= set(table.rows)
        for row, children in table.successors.items():
            get = dict(zip(explorer.cells, row)).__getitem__
            assert children == tuple(
                explorer.apply_instance(instance, row, get)
                for instance in explorer.instances
            )

    @pytest.mark.parametrize("app", APPS)
    def test_abstract_snapshots_keep_the_keys(self, app, frameworks):
        algebra = frameworks[app].algebra()
        engine = make_abstract_engine(algebra.spec)
        updates = list(algebra.update_instances())
        reachable = list(algebra.explore().states)[:4]
        for snapshot in itertools.islice(all_snapshots(algebra), 4):
            assert _keys(snapshot) == algebra.observations
        for snapshot in reachable:
            for update, params in updates:
                successor = abstract_successor(
                    algebra.spec, snapshot, update, params, engine
                )
                assert _keys(successor) == algebra.observations


class TestOneAlgebraPerRun:
    @pytest.mark.parametrize("app", APPS)
    def test_verify_builds_one_algebra_and_one_explorer(
        self, app, monkeypatch, capsys
    ):
        built = Counter()

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                built[f"{cls.__name__}.{name}"] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(TraceAlgebra, "__init__")
        counting(PackedExplorer, "__init__")
        counting(UpdatePlanner, "compile")
        assert main(["verify", app, "--quiet", "--workers", "1"]) == 0
        assert built == {
            "TraceAlgebra.__init__": 1,
            "PackedExplorer.__init__": 1,
            "UpdatePlanner.compile": INSTANCES[app],
        }
