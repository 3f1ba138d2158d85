"""E10 — the 2nd->3rd refinement check (Section 5.4): A2-equation
validity in the induced structure N(U), scaled over carriers, plus the
direct cross-level agreement check.

Expected shape: equation checking costs |reachable DB states| x
|equation instances|; each compiled procedure runs once per state and
update instance, so cost tracks the state count (25 at 2x2, 123 at 2x3
for the registrar).
"""

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.applications.courses import (
    courses_algebraic,
    courses_schema_source,
    default_courses,
    default_students,
)
from repro.refinement.second_third import (
    InducedStructure,
    RepresentationMap,
    check_agreement,
    check_refinement,
)
from repro.rpr.parser import parse_schema


@pytest.fixture(scope="module")
def schema():
    return parse_schema(courses_schema_source())


@pytest.mark.parametrize("students,cs", [(2, 2), (2, 3)])
def bench_equation_validity_in_n(benchmark, schema, students, cs):
    spec = courses_algebraic(
        default_students(students), default_courses(cs)
    )
    result = benchmark(check_refinement, spec, schema)
    assert result.ok


@pytest.mark.parametrize("depth", [1, 2])
def bench_agreement_vs_depth(benchmark, schema, depth):
    """Trace-enumeration variant: every observation compared at both
    levels on every trace up to the depth."""
    algebra = TraceAlgebra(courses_algebraic())
    result = benchmark(check_agreement, algebra, schema, None, depth)
    assert result.ok


def bench_reachable_db_states(benchmark, schema):
    """BFS over database states through the procedures (the N-side
    state construction)."""
    spec = courses_algebraic()
    induced = InducedStructure(
        spec.signature,
        schema,
        RepresentationMap.homonym(spec.signature, schema),
    )
    states = benchmark(induced.reachable_states)
    assert len(states) == 25


def bench_trace_realization(benchmark, schema):
    """Realizing one 8-update trace as a database state (memoized per
    InducedStructure, so a fresh instance is built per round)."""
    spec = courses_algebraic()
    algebra = TraceAlgebra(spec)
    trace = algebra.initial_trace()
    for step in [
        ("offer", "c1"),
        ("enroll", "s1", "c1"),
        ("offer", "c2"),
        ("transfer", "s1", "c1", "c2"),
        ("cancel", "c1"),
        ("enroll", "s2", "c2"),
        ("offer", "c1"),
        ("enroll", "s2", "c1"),
    ]:
        trace = algebra.apply(step[0], *step[1:], trace=trace)

    def run():
        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        return induced.state_of_trace(trace)

    state = benchmark(run)
    assert state.relation("TAKES") == {("s1", "c2"), ("s2", "c2"),
                                       ("s2", "c1")}
