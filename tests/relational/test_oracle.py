"""Differential-oracle tests: rewrite semantics vs the SQL backend.

The headline acceptance test: on all four shipped applications, a
replayed trace answers every observation identically on both sides;
and a deliberately mis-lowered program is *caught* — proving the
oracle detects real divergence rather than vacuously passing.
"""

from __future__ import annotations

import pytest

from repro.relational import (
    DifferentialOracle,
    RelationalDatabase,
    SQLiteBackend,
    TransactionLowerer,
    run_oracle,
)
from repro.runtime.apps import available_applications, build_app

APPLICATIONS = sorted(available_applications())


@pytest.mark.parametrize("name", APPLICATIONS)
def test_oracle_passes_on_shipped_applications(name):
    report = run_oracle(name, steps=50, seed=11)
    assert report.passed, report.to_dict()
    assert report.steps == 50
    assert report.applied + report.noops == 50
    assert report.backend == "sqlite"


@pytest.mark.parametrize("name", APPLICATIONS)
def test_oracle_passes_with_guard_tables_installed(name):
    # Guard membership tables ride along in the same database; they
    # must not perturb the observation tables.
    from repro.relational import build_database

    db = build_database(name, with_guard=True)
    report = run_oracle(name, steps=30, seed=5, database=db)
    failures = db.check_constraints()
    db.close()
    assert report.passed, report.to_dict()
    assert failures == []


def test_replay_is_deterministic():
    left = run_oracle("courses", steps=25, seed=9).to_dict()
    right = run_oracle("courses", steps=25, seed=9).to_dict()
    assert left == right


def test_random_trace_is_seeded():
    from repro.relational import build_database

    db = build_database("courses", with_guard=False)
    try:
        oracle = DifferentialOracle(db)
        assert oracle.random_trace(10, 3) == oracle.random_trace(
            10, 3
        )
        assert oracle.random_trace(10, 3) != oracle.random_trace(
            10, 4
        )
    finally:
        db.close()


class _NegatedConditions(TransactionLowerer):
    """Deliberately wrong: every dispatch condition is negated."""

    def condition_sql(self, condition):
        return f"(NOT {super().condition_sql(condition)})"


class _CorruptedRhs(TransactionLowerer):
    """Deliberately wrong: Boolean right-hand sides are flipped."""

    def rhs_sql(self, rhs):
        return f"(NOT {super().rhs_sql(rhs)})"


@pytest.mark.parametrize(
    "wrong_lowerer", [_NegatedConditions, _CorruptedRhs]
)
def test_oracle_catches_a_wrong_lowering(wrong_lowerer):
    app = build_app("courses")
    framework = app.framework
    db = RelationalDatabase(
        framework.algebraic,
        SQLiteBackend(),
        lowerer=wrong_lowerer(
            framework.algebraic, app.descriptions
        ),
    )
    report = run_oracle("courses", steps=60, seed=3, database=db)
    db.close()
    assert not report.passed
    divergence = report.divergences[0]
    assert divergence.kind in ("snapshot", "admission")
    assert "divergence" in str(divergence)


def test_divergence_report_names_the_cells():
    app = build_app("courses")
    framework = app.framework
    db = RelationalDatabase(
        framework.algebraic,
        SQLiteBackend(),
        lowerer=_CorruptedRhs(framework.algebraic, app.descriptions),
    )
    report = run_oracle("courses", steps=60, seed=3, database=db)
    db.close()
    snapshot_divergences = [
        d for d in report.divergences if d.kind == "snapshot"
    ]
    if snapshot_divergences:  # conditions may diverge at admission
        assert snapshot_divergences[0].cells


@pytest.mark.slow
@pytest.mark.parametrize("name", APPLICATIONS)
def test_oracle_long_runs(name):
    for seed in range(3):
        report = run_oracle(name, steps=400, seed=seed)
        assert report.passed, report.to_dict()


class TestCli:
    def test_diff_oracle_all(self, capsys):
        from repro.cli import main

        assert main(["diff-oracle", "all", "--steps", "20"]) == 0
        out = capsys.readouterr().out
        for name in APPLICATIONS:
            assert f"{name}: PASS" in out

    def test_diff_oracle_json(self, capsys):
        import json

        from repro.cli import main

        assert (
            main(
                [
                    "diff-oracle",
                    "courses",
                    "--steps",
                    "10",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["steps"] == 10

    def test_diff_oracle_unknown_application(self, capsys):
        from repro.cli import main

        assert main(["diff-oracle", "nope"]) == 2

    def test_compile_sql_to_stdout(self, capsys):
        from repro.cli import main

        assert main(["compile-sql", "courses", "--schema-only"]) == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE" in out
        assert "-- transaction program:" not in out

    def test_compile_sql_to_file(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "courses.sql"
        assert (
            main(
                ["compile-sql", "courses", "--output", str(target)]
            )
            == 0
        )
        capsys.readouterr()
        text = target.read_text()
        assert "transaction program" in text
