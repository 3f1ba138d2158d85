"""E9 — the RPR denotational semantics in execution: per-operation
cost of the paper's procedures, relational-assignment cost, and the
iteration (star) fixpoint.

Expected shape: insert/delete are linear in relation size; a general
relational assignment is linear in the domain product of its tuple
variables times formula cost; star costs |reached states| x body.
"""

import pytest

from repro.applications.bank import bank_schema_source
from repro.applications.courses import courses_schema_source
from repro.logic.sorts import Sort
from repro.rpr.ast import Insert, RelationDecl, Schema, Star, Union
from repro.rpr.ast import ValueLiteral
from repro.rpr.interpreter import Database
from repro.rpr.parser import parse_schema
from repro.rpr.semantics import initial_state, run


def _registrar(students=4, cs=4):
    schema = parse_schema(courses_schema_source())
    domains = {
        "Students": [f"s{i}" for i in range(1, students + 1)],
        "Courses": [f"c{i}" for i in range(1, cs + 1)],
    }
    db = Database(schema, domains)
    db.call("initiate")
    return db


def bench_update_throughput_registrar(benchmark):
    """A fixed 14-operation registrar workload."""

    def workload():
        db = _registrar()
        db.call("offer", "c1")
        db.call("offer", "c2")
        db.call("offer", "c3")
        for student in ("s1", "s2", "s3", "s4"):
            db.call("enroll", student, "c1")
        for student in ("s1", "s2"):
            db.call("transfer", student, "c1", "c2")
        db.call("cancel", "c3")
        db.call("enroll", "s3", "c2")
        db.call("cancel", "c1")
        db.call("offer", "c4")
        return db

    db = benchmark(workload)
    assert db.holds_fact("OFFERED", "c4")


@pytest.mark.parametrize("domain", [4, 8, 16])
def bench_quantified_guard_vs_domain(benchmark, domain):
    """cancel's guard quantifies over Students: cost grows with the
    carrier."""
    db = _registrar(students=domain, cs=2)
    db.call("offer", "c1")
    benchmark(db.possible_states, "cancel", "c1")


@pytest.mark.parametrize("money", [4, 8, 16])
def bench_relational_assignment_vs_domain(benchmark, money):
    """The bank's deposit rebuilds BALANCE with a quantified
    relational term over Accounts x Money."""
    values = [f"m{i}" for i in range(money)]
    schema = parse_schema(bank_schema_source(levels=money))
    db = Database(schema, {"Accounts": ["a1", "a2"], "Money": values})
    db.call("initiate")
    db.call("open_account", "a1")
    benchmark(db.possible_states, "deposit", "a1")


@pytest.mark.parametrize("domain", [2, 3])
def bench_star_fixpoint(benchmark, domain):
    """(insert R(t1) u ... u insert R(tn))*: the fixpoint reaches all
    2^n subsets."""
    things = Sort("Things")
    values = [f"t{i}" for i in range(1, domain + 2)]
    schema = Schema(
        (RelationDecl("R", (things,)),),
        (),
    )
    body = Insert("R", (ValueLiteral(values[0], things),))
    for value in values[1:]:
        body = Union(body, Insert("R", (ValueLiteral(value, things),)))
    statement = Star(body)
    state = initial_state(schema)
    domains = {things: tuple(values)}
    result = benchmark(run, statement, state, schema, domains)
    assert len(result) == 2 ** len(values)
