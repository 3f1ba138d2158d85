"""E4 — sufficient completeness (Section 4.4a): termination analysis
and exhaustive coverage, scaled over domain size and equation count.

Expected shape: termination analysis is linear in the number of
equations (one dependency-graph pass); coverage is dominated by the
trace x observation product and grows with the update-instance
branching factor.
"""

import pytest

from repro.algebraic.completeness import (
    check_coverage,
    check_sufficient_completeness,
    check_termination,
)
from repro.applications.courses import (
    courses_algebraic,
    courses_synthesized,
    default_courses,
    default_students,
)


@pytest.mark.parametrize(
    "spec_factory",
    [courses_algebraic, courses_synthesized],
    ids=["paper-16-eqs", "synthesized-19-eqs"],
)
def bench_termination_analysis(benchmark, spec_factory):
    """Structural-decrease analysis over the equation set."""
    spec = spec_factory()
    result = benchmark(check_termination, spec)
    assert result.ok


@pytest.mark.parametrize("domain", [2, 3])
def bench_coverage_vs_domain(benchmark, domain):
    """Exhaustive evaluation of all observations on all depth-2
    traces; the trace count is (update instances)^2."""
    spec = courses_algebraic(
        default_students(domain), default_courses(domain)
    )
    result = benchmark(check_coverage, spec, 2, 5_000)
    assert result.ok


def bench_full_sufficient_completeness(benchmark):
    """The combined Section 4.4a check on the paper's example."""
    spec = courses_algebraic()
    result = benchmark(check_sufficient_completeness, spec, 2)
    assert result.ok
