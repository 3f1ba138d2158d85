"""The admission pipeline end to end (no sockets, no journal)."""

from __future__ import annotations

import pytest

from repro.algebraic.compiler import UnsupportedTermError
from repro.runtime import guards
from repro.runtime.apps import build_app
from repro.runtime.service import SpecRuntime


def test_accept_and_query(bank_runtime):
    result = bank_runtime.execute("open_account", ("a1",))
    assert result.accepted and result.seq == 1
    assert result.delta == {("open", ("a1",)): True}
    assert bank_runtime.query("open", ("a1",)) is True
    assert bank_runtime.query("balance", ("a1",)) == "m0"


def test_precondition_rejection_with_witness(bank_runtime):
    result = bank_runtime.execute("deposit", ("a1",))  # a1 closed
    assert not result.accepted
    assert result.seq == 0
    assert result.delta == {}
    violation = result.violation
    assert violation.kind == "precondition"
    assert ("open", ("a1",)) in violation.cells
    assert dict(violation.binding) == {"p0": "a1"}


def test_rejection_leaves_state_unchanged(bank_runtime):
    bank_runtime.execute("open_account", ("a1",))
    before = bank_runtime.store.snapshot()
    result = bank_runtime.execute("withdraw", ("a1",))  # balance m0
    assert not result.accepted
    assert bank_runtime.store.snapshot() == before
    assert bank_runtime.seq == 1


def test_noop_update_accepted_without_seq_advance(bank_runtime):
    bank_runtime.execute("open_account", ("a1",))
    # a1 opened with balance m0 already: reopening is rejected by the
    # precondition, but an effect-free admissible update (none in the
    # bank) would be accepted without advancing seq; exercise the
    # closest real path — a rejected update — and the counter split.
    bank_runtime.execute("open_account", ("a1",))
    assert bank_runtime.accepted_count == 1
    assert bank_runtime.rejected_count == 1


def test_full_lifecycle_and_stats(bank_runtime):
    script = [
        ("open_account", ("a1",), True),
        ("deposit", ("a1",), True),
        ("deposit", ("a1",), True),
        ("withdraw", ("a1",), True),
        ("withdraw", ("a1",), True),
        ("withdraw", ("a1",), False),  # balance back to m0
        ("close_account", ("a1",), True),
    ]
    for update, params, expect in script:
        assert bank_runtime.execute(update, params).accepted is expect
    stats = bank_runtime.stats
    assert stats["application"] == "bank accounts"
    assert stats["accepted"] == 6
    assert stats["rejected"] == 1
    assert stats["seq"] == 6
    assert stats["static_instances"] > 0
    assert "journal" not in stats  # in-memory runtime


def test_static_guard_rejection(lenient_runtime):
    # Lenient close_account has no zero-balance precondition; closing
    # a funded account must instead be stopped by the closed_zero
    # static constraint, with the account's cells in the witness.
    lenient_runtime.execute("open_account", ("a1",))
    lenient_runtime.execute("deposit", ("a1",))
    before = lenient_runtime.store.snapshot()
    result = lenient_runtime.execute("close_account", ("a1",))
    assert not result.accepted
    assert result.violation.kind == "static"
    assert ("balance", ("a1",)) in result.violation.cells
    assert lenient_runtime.store.snapshot() == before
    assert lenient_runtime.query("open", ("a1",)) is True


def test_transition_guard_rejection(lenient_runtime):
    # reopen_rich lands in a statically consistent state (open with
    # m1), so only the reopen_zero *transition* constraint can reject.
    result = lenient_runtime.execute("reopen_rich", ("a1",))
    assert not result.accepted
    assert result.violation.kind == "transition"
    assert lenient_runtime.query("open", ("a1",)) is False
    assert lenient_runtime.query("balance", ("a1",)) == "m0"


def test_lenient_zero_balance_close_still_admitted(lenient_runtime):
    lenient_runtime.execute("open_account", ("a1",))
    result = lenient_runtime.execute("close_account", ("a1",))
    assert result.accepted  # balance is m0: no constraint violated


def test_execution_result_to_dict(bank_runtime):
    payload = bank_runtime.execute("open_account", ("a2",)).to_dict()
    assert payload["accepted"] is True
    assert payload["params"] == ["a2"]
    assert ["open", ["a2"], True] in payload["delta"]
    assert payload["violation"] is None


def test_admission_artifacts_cached(bank_app):
    runtime = SpecRuntime(bank_app.framework, bank_app.descriptions)
    runtime.execute("open_account", ("a1",))
    first = runtime._admission[("deposit", ("a1",))] if (
        ("deposit", ("a1",)) in runtime._admission
    ) else None
    runtime.execute("deposit", ("a1",))
    cached = runtime._admission[("deposit", ("a1",))]
    runtime.execute("deposit", ("a1",))
    assert runtime._admission[("deposit", ("a1",))] is cached
    assert first is None or first is cached


@pytest.mark.parametrize(
    "name, static, transition, tautologies",
    [
        ("bank", 2, 2, 2),
        ("courses", 1, 2, 0),
        ("library", 6, 2, 0),
        ("projects", 8, 2, 0),
    ],
)
def test_stats_count_guard_table_groups(
    name, static, transition, tautologies
):
    # Every read-set group of the four applications fits a decision
    # table; bank's two tautological static groups are dropped.
    app = build_app(name)
    runtime = SpecRuntime(app.framework, app.descriptions)
    assert runtime.stats["guard_tables"] == {
        "static": {
            "tabulated": static,
            "closures": 0,
            "tautologies": tautologies,
        },
        "transition": {
            "tabulated": transition,
            "closures": 0,
            "tautologies": 0,
        },
    }
    assert len(runtime.guard.static_tables) == static
    assert len(runtime.guard.transition_tables) == transition


def test_stats_count_closure_groups_over_the_table_limit(
    bank_app, monkeypatch
):
    # With room for no valuation space every group keeps its closures
    # (tautologies included: they are only found by tabulating).
    monkeypatch.setattr(guards, "_TABLE_LIMIT", 1)
    runtime = SpecRuntime(bank_app.framework, bank_app.descriptions)
    assert runtime.stats["guard_tables"] == {
        "static": {"tabulated": 0, "closures": 4, "tautologies": 0},
        "transition": {"tabulated": 0, "closures": 2, "tautologies": 0},
    }
    # The closures admit and reject exactly as the tables do.
    assert runtime.execute("open_account", ("a1",)).accepted
    assert runtime.execute("deposit", ("a1",)).accepted
    assert not runtime.execute("withdraw", ("a2",)).accepted


def test_stats_count_compiled_and_fallback_plans(bank_app, monkeypatch):
    runtime = SpecRuntime(bank_app.framework, bank_app.descriptions)
    assert runtime.stats["plans"] == {"compiled": 0, "fallback": 0}
    runtime.execute("open_account", ("a1",))
    runtime.execute("deposit", ("a1",))
    runtime.execute("deposit", ("a1",))  # the cached plan
    assert runtime.stats["plans"] == {"compiled": 2, "fallback": 0}

    def outside(update, params):
        raise UnsupportedTermError("outside the canonical fragment")

    # Equations outside the fragment: the plan falls back to the
    # rewrite engine and still computes the same delta.
    monkeypatch.setattr(runtime.store._planner, "_ground_actions", outside)
    result = runtime.execute("withdraw", ("a1",))
    assert result.accepted
    assert result.delta == {("balance", ("a1",)): "m1"}
    assert runtime.stats["plans"] == {"compiled": 3, "fallback": 1}
