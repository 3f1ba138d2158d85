"""Tests for the SQLite backend and the orchestrating database."""

from __future__ import annotations

import pytest

from repro.errors import IncompletenessError
from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.signature import AlgebraicSignature
from repro.algebraic.spec import AlgebraicSpec
from repro.logic import formulas as fm
from repro.logic.sorts import STATE
from repro.logic.terms import Var
from repro.relational import (
    RelationalDatabase,
    SQLiteBackend,
    build_database,
)
from repro.runtime.apps import available_applications

APPLICATIONS = sorted(available_applications())


class TestApply:
    def test_initial_snapshot_matches_trace_algebra(self):
        for name in APPLICATIONS:
            db = build_database(name, with_guard=False)
            try:
                algebra = TraceAlgebra(db.spec)
                assert db.snapshot() == algebra.snapshot(
                    algebra.initial_trace()
                ), name
            finally:
                db.close()

    def test_admitted_update_commits_and_matches(self):
        db = build_database("courses", with_guard=False)
        try:
            algebra = TraceAlgebra(db.spec)
            trace = algebra.initial_trace()
            assert db.apply("offer", "c1") is True
            trace = algebra.apply("offer", "c1", trace=trace)
            assert db.snapshot() == algebra.snapshot(trace)
            assert db.query("offered", "c1") is True
            assert db.stats["transactions"] == 1
        finally:
            db.close()

    def test_precondition_false_is_a_noop(self):
        db = build_database("courses", with_guard=False)
        try:
            before = db.snapshot()
            # enroll requires the course to be offered; it is not.
            assert db.apply("enroll", "s1", "c1") is False
            assert db.snapshot() == before
            assert db.stats["noops_precondition"] == 1
            assert db.stats["transactions"] == 0
        finally:
            db.close()

    def test_programs_are_cached_per_instance(self):
        db = build_database("courses", with_guard=False)
        try:
            db.apply("offer", "c1")
            db.apply("offer", "c1")
            assert db.stats["programs_compiled"] == 1
            assert db.program("offer", ("c1",)) is db.program(
                "offer", ("c1",)
            )
        finally:
            db.close()

    def test_incompleteness_rolls_back(self):
        signature = AlgebraicSignature("partial")
        item = signature.add_parameter_sort("item")
        signature.add_parameter_values(item, ["i1"])
        signature.add_query("flag", [item])
        signature.add_initial()
        signature.add_update("poke", [item])
        c = Var("c", item)
        u = Var("U", STATE)
        poked = signature.apply_update("poke", c, u)
        spec = AlgebraicSpec(
            signature,
            (
                ConditionalEquation(
                    signature.apply_query(
                        "flag", c, signature.initial_term()
                    ),
                    signature.false(),
                ),
                ConditionalEquation(
                    signature.apply_query("flag", c, poked),
                    signature.true(),
                    condition=fm.Equals(
                        signature.apply_query("flag", c, u),
                        signature.false(),
                    ),
                ),
            ),
            name="partial",
        )
        db = RelationalDatabase(spec, SQLiteBackend())
        try:
            assert db.apply("poke", "i1") is True  # flips to True
            with pytest.raises(IncompletenessError):
                db.apply("poke", "i1")  # no equation fires now
            # The failed transaction rolled back: state unchanged,
            # staging space empty, and the database still works.
            assert db.query("flag", "i1") is True
            assert (
                db.backend.query_value(
                    'SELECT COUNT(*) FROM "_stage_flag"'
                )
                == 0
            )
        finally:
            db.close()


class TestConstraintAuditing:
    def test_clean_state_passes(self):
        db = build_database("courses")
        try:
            assert db.check_constraints() == []
            db.apply("offer", "c1")
            assert db.check_constraints() == []
        finally:
            db.close()

    def test_corrupted_row_is_reported(self):
        # Bypass the transaction programs and break the level-1
        # invariant directly: a student takes a course that is not
        # offered.  The stored decision tables must notice.
        db = build_database("courses")
        try:
            db.backend.execute(
                "UPDATE \"takes\" SET value = 1 "
                "WHERE student = 's1' AND course = 'c1'"
            )
            failures = db.check_constraints()
            assert failures
            assert any("static" in f for f in failures)
        finally:
            db.close()

    def test_guardless_database_audits_nothing(self):
        db = build_database("courses", with_guard=False)
        try:
            assert db.check_constraints() == []
        finally:
            db.close()


class TestEmission:
    def test_compile_sql_script_is_self_contained(self):
        # The emitted script must rebuild an equivalent database on
        # a bare SQLite connection.
        import sqlite3

        db = build_database("bank")
        try:
            script = db.compile_sql_script(include_programs=False)
        finally:
            db.close()
        connection = sqlite3.connect(":memory:")
        connection.executescript(script)
        count = connection.execute(
            'SELECT COUNT(*) FROM "balance"'
        ).fetchone()[0]
        assert count > 0
        connection.close()

    def test_script_includes_programs_by_default(self):
        db = build_database("courses", with_guard=False)
        try:
            script = db.compile_sql_script()
        finally:
            db.close()
        assert "-- transaction program: offer(c1)" in script
        assert "BEGIN;" in script and "COMMIT;" in script
