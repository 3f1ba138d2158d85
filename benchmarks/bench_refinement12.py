"""E5/E6/E7 — the 1st->2nd refinement checks (Sections 4.4b-d),
scaled over carrier sizes.

Expected shape: dominated by |V| (exponential in carrier product: the
all-structures enumeration) and |G| x update instances for the
transition check — the practical reason bounded-domain verification
uses small carriers.
"""

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.applications.courses import (
    courses_algebraic,
    courses_information,
    courses_information_carriers,
    default_courses,
    default_students,
)
from repro.refinement.first_second import (
    check_refinement,
    check_static_consistency,
    check_transition_consistency,
)
from repro.refinement.interpretation import Interpretation
from repro.refinement.reachability import compare_valid_reachable


def _setting(students, cs):
    info = courses_information()
    carriers = courses_information_carriers(
        default_students(students), default_courses(cs)
    )
    algebra = TraceAlgebra(
        courses_algebraic(default_students(students), default_courses(cs))
    )
    interpretation = Interpretation.homonym(info, algebra.signature)
    return info, carriers, algebra, interpretation


@pytest.mark.parametrize("students,cs", [(2, 2), (2, 3)])
def bench_state_space_exploration(benchmark, students, cs):
    """BFS over the observational state space (the G construction)."""
    _, _, algebra, _ = _setting(students, cs)
    graph = benchmark(algebra.explore)
    assert not graph.truncated


@pytest.mark.parametrize("students,cs", [(2, 2), (2, 3)])
def bench_e5_reachable_subset_valid(benchmark, students, cs):
    info, carriers, algebra, interpretation = _setting(students, cs)
    graph = algebra.explore()
    result = benchmark(
        check_static_consistency,
        info,
        carriers,
        algebra,
        interpretation,
        graph,
    )
    assert result.ok


@pytest.mark.parametrize("students,cs", [(2, 2), (2, 3)])
def bench_e6_valid_vs_reachable(benchmark, students, cs):
    """Includes the exponential all-structures enumeration of V."""
    info, carriers, algebra, interpretation = _setting(students, cs)
    graph = algebra.explore()
    result = benchmark(
        compare_valid_reachable,
        info,
        carriers,
        algebra,
        interpretation,
        graph,
    )
    assert result.ok


@pytest.mark.parametrize("students,cs", [(2, 2), (2, 3)])
def bench_e7_transition_consistency(benchmark, students, cs):
    info, carriers, algebra, interpretation = _setting(students, cs)
    graph = algebra.explore()
    result = benchmark(
        check_transition_consistency,
        info,
        carriers,
        algebra,
        interpretation,
        graph,
    )
    assert result.ok


def bench_full_section_44_bundle(benchmark):
    """The whole (a)-(d) plan on the paper's 2x2 example."""
    info, carriers, algebra, _ = _setting(2, 2)
    result = benchmark(check_refinement, info, carriers, algebra)
    assert result.ok
