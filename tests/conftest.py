"""Shared fixtures: the paper's running example at every level.

Session-scoped where construction is pure, so the many tests touching
the courses application don't rebuild it each time.
"""

from __future__ import annotations

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.applications import courses
from repro.logic.signature import Signature
from repro.logic.sorts import Sort
from repro.obs.switch import SWITCH
from repro.rpr.parser import parse_schema


def _slots() -> tuple:
    return SWITCH.tracer, SWITCH.coverage, SWITCH.telemetry


@pytest.fixture(autouse=True)
def _switch_off():
    """Every test starts and ends with tracing, coverage and telemetry
    off, so a test that leaves a facility on fails here instead of
    leaking it into the next test."""
    assert _slots() == (None, None, None)
    yield
    leaked = _slots()
    SWITCH.tracer = SWITCH.coverage = SWITCH.telemetry = None
    assert leaked == (None, None, None)


@pytest.fixture(scope="session")
def courses_info():
    """The information-level theory T1 of Section 3.2."""
    return courses.courses_information()


@pytest.fixture(scope="session")
def courses_carriers():
    """2-student / 2-course carriers."""
    return courses.courses_information_carriers()


@pytest.fixture(scope="session")
def courses_spec():
    """The algebraic specification T2 with the paper's equations."""
    return courses.courses_algebraic()


@pytest.fixture(scope="session")
def courses_algebra(courses_spec):
    """The trace algebra over T2."""
    return TraceAlgebra(courses_spec)


@pytest.fixture(scope="session")
def courses_schema():
    """The parsed RPR schema T3 of Section 5.2."""
    return parse_schema(courses.courses_schema_source())


@pytest.fixture()
def simple_signature():
    """A small first-order signature used by logic-level tests."""
    student = Sort("student")
    course = Sort("course")
    signature = Signature(sorts=[student, course])
    signature.add_predicate("offered", [course], db=True)
    signature.add_predicate("takes", [student, course], db=True)
    return signature
