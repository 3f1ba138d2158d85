"""Mutation testing of the methodology itself.

A verification framework is only as good as the faults it cannot miss.
Here every one of the registrar's sixteen Q-equations is mutated by
negating its right-hand side, and the 2nd->3rd refinement check must
refute *every* mutant against the (correct) RPR schema — i.e. the
check's equation coverage has no blind spots at the granularity of
whole equations.

The same mutants pin the per-state memos of the Section 5.4 sweep and
of check (d): on every mutant, the memoized report equals one computed
by interpreting every procedure, realization and equation, and
checking every edge, afresh.
"""

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.spec import AlgebraicSpec
from repro.algebraic.equations import ConditionalEquation
from repro.applications.courses import (
    courses_algebraic,
    courses_information,
    courses_information_carriers,
    courses_schema_source,
)
from repro.information.consistency import check_transition
from repro.refinement.first_second import (
    TransitionConsistencyReport,
    check_transition_consistency,
)
from repro.refinement.interpretation import Interpretation
from repro.refinement import second_third
from repro.refinement.second_third import InducedStructure, check_refinement
from repro.rpr.parser import parse_schema
from repro.rpr.semantics import run_proc
from tests.refinement.test_second_third import interpreted_equation


@pytest.fixture(scope="module")
def schema():
    return parse_schema(courses_schema_source())


def _mutants():
    spec = courses_algebraic()
    signature = spec.signature
    for index, victim in enumerate(spec.equations):
        mutated = ConditionalEquation(
            victim.lhs,
            signature.not_(victim.rhs),
            victim.condition,
            f"{victim.label}-negated",
        )
        equations = list(spec.equations)
        equations[index] = mutated
        yield victim.label, AlgebraicSpec(
            signature, tuple(equations), name=f"mutant {victim.label}"
        )


MUTANTS = list(_mutants())


@pytest.mark.parametrize(
    "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
)
def test_every_rhs_negation_is_refuted(label, mutant, schema):
    report = check_refinement(mutant, schema)
    assert not report.ok, (
        f"mutant {label} survived the refinement check"
    )
    # The falsified equation is the mutated one (or an equation whose
    # evaluation it feeds; at minimum something failed).
    assert report.failures


def test_unmutated_baseline_passes(schema):
    report = check_refinement(courses_algebraic(), schema)
    assert report.ok


def _fresh_step(self, proc, params, sid):
    """``InducedStructure._step`` without the rows: ``run_proc`` on the
    state the id numbers (the mutants run the correct, deterministic
    schema, so every step has one successor)."""
    (successor,) = run_proc(
        self.schema, proc, params, self._states[sid], self._domains
    )
    return self._number(successor)


def _fresh_query(self, query, params, sid):
    """``InducedStructure._query`` without the rows: ``_realize``."""
    return self._realize(query, params, self._states[sid])


@pytest.mark.parametrize(
    "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
)
def test_second_third_memo_matches_fresh_runs(
    label, mutant, schema, monkeypatch
):
    report = check_refinement(mutant, schema)
    with monkeypatch.context() as patch:
        # Nothing is stored in the rows, so every application the
        # equations make runs the interpreters afresh.
        patch.setattr(InducedStructure, "_step", _fresh_step)
        patch.setattr(InducedStructure, "_query", _fresh_query)
        patch.setattr(
            second_third, "_compile_equation", interpreted_equation
        )
        reference = check_refinement(mutant, schema)
    assert str(report) == str(reference)
    assert report == reference


def _fresh_transition_report(
    information, carriers, algebra, interpretation, graph
):
    """Check (d) with ``check_transition`` run afresh on every edge."""

    def structure(trace):
        return interpretation.structure_of_trace(
            information, carriers, algebra, trace
        )

    violations = []
    for transition in graph.transitions:
        source = graph.states[transition.source]
        target = graph.states.get(transition.target)
        if target is None:
            target = algebra.apply(
                transition.update, *transition.params, trace=source
            )
        report = check_transition(
            information, structure(source), structure(target)
        )
        violations.extend(
            (transition, str(axiom)) for axiom, _ in report.violations
        )
    return TransitionConsistencyReport(
        ok=not violations,
        transitions_checked=len(graph.transitions),
        violations=tuple(violations),
    )


@pytest.mark.parametrize(
    "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
)
def test_transition_memo_matches_fresh_checks(label, mutant):
    information = courses_information()
    carriers = courses_information_carriers()
    algebra = TraceAlgebra(mutant)
    interpretation = Interpretation.homonym(information, algebra.signature)
    graph = algebra.explore()
    report = check_transition_consistency(
        information, carriers, algebra, interpretation, graph
    )
    reference = _fresh_transition_report(
        information, carriers, algebra, interpretation, graph
    )
    assert str(report) == str(reference)
    assert report == reference
