"""Tests for observability / congruence checking.

Observational equality is only a meaningful state equality when it is
a *congruence* (updates cannot separate observationally equal traces);
the negative test builds a specification whose query depends on the
second-to-last update — information no simple observation exposes —
and checks that the violation is caught.
"""

from collections import Counter

import pytest

from repro import obs
from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.observation import (
    check_congruence,
    observational_classes,
)
from repro.algebraic.signature import AlgebraicSignature
from repro.algebraic.spec import AlgebraicSpec
from repro.algebraic.tracetable import build_trace_table
from repro.cli import APPLICATIONS
from repro.errors import IncompletenessError
from repro.logic import formulas as fm
from repro.logic.sorts import STATE
from repro.logic.terms import Var
from tests.applications.test_mutations import MUTANTS


class TestObservationalClasses:
    def test_depth_zero_single_class(self, courses_algebra):
        classes = observational_classes(courses_algebra, 0)
        assert len(classes) == 1

    def test_depth_one_classes(self, courses_algebra):
        classes = observational_classes(courses_algebra, 1)
        # initiate, offer c1, offer c2 are the distinct depth-1 states.
        assert len(classes) == 3

    def test_classes_partition_traces(self, courses_algebra):
        classes = observational_classes(courses_algebra, 1)
        assert sum(len(v) for v in classes.values()) == 17


def _history_dependent_spec() -> AlgebraicSpec:
    """q is True exactly after two consecutive ``ping`` updates.

    ``ping(initiate)`` and ``pong(initiate)`` are observationally
    equal (q is False at both), yet applying ``ping`` separates them —
    observational equality is not a congruence for this spec.
    """
    signature = AlgebraicSignature()
    signature.add_query("q", [])
    signature.add_initial()
    signature.add_update("ping", [])
    signature.add_update("pong", [])
    u = Var("U", STATE)
    ping = lambda s: signature.apply_update("ping", s)
    pong = lambda s: signature.apply_update("pong", s)
    q = lambda s: signature.apply_query("q", s)
    false = signature.false()
    true = signature.true()
    initiate = signature.initial_term()
    equations = (
        ConditionalEquation(q(initiate), false, None, "init"),
        ConditionalEquation(q(ping(initiate)), false, None, "ping-init"),
        ConditionalEquation(q(pong(initiate)), false, None, "pong-init"),
        ConditionalEquation(q(ping(ping(u))), true, None, "ping-ping"),
        ConditionalEquation(q(ping(pong(u))), false, None, "ping-pong"),
        ConditionalEquation(q(pong(ping(u))), false, None, "pong-ping"),
        ConditionalEquation(q(pong(pong(u))), false, None, "pong-pong"),
    )
    return AlgebraicSpec(signature, equations, name="ping-pong")


class TestCongruence:
    def test_paper_spec_is_congruent(self, courses_algebra):
        report = check_congruence(courses_algebra, depth=2)
        assert report.ok
        assert report.classes == 8
        assert "congruence" in str(report)

    def test_history_dependent_spec_is_not_congruent(self):
        algebra = TraceAlgebra(_history_dependent_spec())
        report = check_congruence(algebra, depth=2)
        assert not report.ok
        assert report.violations
        assert "NOT a congruence" in str(report)

    def test_violation_witness_names_the_update(self):
        algebra = TraceAlgebra(_history_dependent_spec())
        report = check_congruence(algebra, depth=2)
        updates = {violation.update for violation in report.violations}
        assert "ping" in updates

    def test_violations_match_pairwise_comparison(self):
        # The reference: every (other, update) pair re-applies the
        # update to the anchor and compares the two snapshots.
        algebra = TraceAlgebra(_history_dependent_spec())
        expected = []
        for members in observational_classes(algebra, 2).values():
            anchor, *others = members[:10]
            for other in others:
                for update, params in algebra.update_instances():
                    if not algebra.observationally_equal(
                        algebra.apply(update, *params, trace=anchor),
                        algebra.apply(update, *params, trace=other),
                    ):
                        expected.append((anchor, other, update, params))
        report = check_congruence(algebra, depth=2)
        assert [
            (v.left, v.right, v.update, v.params) for v in report.violations
        ] == expected

    @pytest.mark.parametrize(
        "app,snapshots,evaluations",
        [("courses", 785, 4_710), ("projects", 2_311, 20_799)],
    )
    def test_anchor_successors_are_snapshotted_once_per_class(
        self, app, snapshots, evaluations
    ):
        from repro import obs
        from repro.cli import APPLICATIONS

        algebra = TraceAlgebra(APPLICATIONS[app]().algebraic)
        tracer = obs.Tracer()
        with obs.activate(tracer):
            assert check_congruence(algebra, depth=2).ok
        counters = tracer.counter_totals()
        assert counters["algebra.snapshots"] == snapshots
        assert counters["rewrite.evaluate.calls"] == evaluations

    def test_representative_cap_respected(self, courses_algebra):
        # With a cap of 1 representative per class there is nothing to
        # compare, so the check trivially passes but still counts.
        report = check_congruence(
            courses_algebra, depth=1, max_pairs_per_class=1
        )
        assert report.ok
        assert report.traces_checked == 17


def _gap_after_set_spec() -> AlgebraicSpec:
    """In the plan fragment, with a dispatch gap one update beyond
    depth 1.

    ``set`` and ``set_again`` both make ``p`` true, so their depth-1
    traces form one class of two; ``q`` over ``mark`` is defined only
    while ``p`` is false, so applying ``mark`` to that class finds no
    equation.  Every trace of at most one update evaluates.
    """
    signature = AlgebraicSignature()
    signature.add_query("p", [])
    signature.add_query("q", [])
    signature.add_initial()
    for update in ("set", "set_again", "mark"):
        signature.add_update(update, [])
    u = Var("U", STATE)
    p = lambda s: signature.apply_query("p", s)
    q = lambda s: signature.apply_query("q", s)
    initiate = signature.initial_term()
    setting = [signature.apply_update(name, u) for name in ("set", "set_again")]
    mark = signature.apply_update("mark", u)
    equations = [
        ConditionalEquation(p(initiate), signature.false(), None, "p-init"),
        ConditionalEquation(q(initiate), signature.false(), None, "q-init"),
    ]
    for term in setting:
        equations += [
            ConditionalEquation(p(term), signature.true()),
            ConditionalEquation(q(term), q(u)),
        ]
    equations += [
        ConditionalEquation(p(mark), p(u), None, "p-mark"),
        ConditionalEquation(
            q(mark),
            signature.true(),
            fm.Equals(p(u), signature.false()),
            "q-mark-unset",
        ),
    ]
    return AlgebraicSpec(signature, tuple(equations), name="gap-after-set")


def _both_paths(spec, depth):
    """The enumeration's report and the table path's, with the table
    path's counters."""
    reference = check_congruence(TraceAlgebra(spec), depth=depth)
    algebra = TraceAlgebra(spec)
    table = build_trace_table(algebra, depth)
    tracer = obs.Tracer()
    with obs.activate(tracer):
        report = check_congruence(algebra, depth=depth, table=table)
    return reference, report, tracer.counter_totals()


def _assert_same(reference, report):
    assert report.ok == reference.ok
    assert report.classes == reference.classes
    assert report.traces_checked == reference.traces_checked
    assert str(report) == str(reference)


def _path(counters):
    return sorted(
        name
        for name in counters
        if name.startswith("congruence.")
    )


class TestCongruenceByConstruction:
    """The lemma's verdict is held to the enumeration's."""

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("app", list(APPLICATIONS))
    def test_four_applications(self, app, depth):
        spec = APPLICATIONS[app]().algebraic
        reference, report, counters = _both_paths(spec, depth)
        _assert_same(reference, report)
        assert _path(counters) == ["congruence.by_construction"]
        # No successor snapshot is taken.
        assert "algebra.snapshots" not in counters

    @pytest.mark.parametrize(
        "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
    )
    def test_courses_mutants(self, label, mutant):
        reference, report, counters = _both_paths(mutant, 2)
        _assert_same(reference, report)
        assert _path(counters) == ["congruence.by_construction"]

    def test_reads_the_tables_plan_applications(self, monkeypatch):
        # The table applied every instance's plan to the rows of the
        # traces shallower than itself; congruence applies them only
        # to the other rows of classes with two or more members.
        algebra = TraceAlgebra(APPLICATIONS["projects"]().algebraic)
        table = build_trace_table(algebra, 2)
        explorer = algebra.packed_explorer()
        apply_instance = explorer.apply_instance
        applied = []

        def counted(instance, row, get):
            applied.append(row)
            return apply_instance(instance, row, get)

        monkeypatch.setattr(explorer, "apply_instance", counted)
        assert check_congruence(algebra, depth=1, table=table).ok
        assert applied == []
        assert check_congruence(algebra, depth=2, table=table).ok
        classes = Counter(table.rows)
        rest = [
            row
            for row, members in classes.items()
            if members > 1 and row not in table.successors
        ]
        assert rest
        assert len(applied) == len(rest) * table.width

    def test_ping_pong_falls_outside_the_fragment(self):
        reference, report, counters = _both_paths(
            _history_dependent_spec(), 2
        )
        assert _path(counters) == ["congruence.fallback.outside_fragment"]
        assert not report.ok and report.violations
        assert report.violations == reference.violations
        _assert_same(reference, report)

    def test_dispatch_gap_falls_back_and_raises_alike(self):
        spec = _gap_after_set_spec()
        algebra = TraceAlgebra(spec)
        assert algebra.packed_explorer() is not None
        table = build_trace_table(algebra, 1)
        assert None not in table.rows
        with pytest.raises(IncompletenessError) as reference:
            check_congruence(TraceAlgebra(spec), depth=1)
        tracer = obs.Tracer()
        with obs.activate(tracer), pytest.raises(
            IncompletenessError
        ) as shared:
            check_congruence(algebra, depth=1, table=table)
        assert str(shared.value) == str(reference.value)
        assert _path(tracer.counter_totals()) == [
            "congruence.fallback.dispatch_gap"
        ]

    def test_row_error_falls_back_and_raises_alike(self):
        spec = _gap_after_set_spec()
        algebra = TraceAlgebra(spec)
        table = build_trace_table(algebra, 2)
        assert None in table.rows
        with pytest.raises(IncompletenessError) as reference:
            check_congruence(TraceAlgebra(spec), depth=2)
        tracer = obs.Tracer()
        with obs.activate(tracer), pytest.raises(
            IncompletenessError
        ) as shared:
            check_congruence(algebra, depth=2, table=table)
        assert str(shared.value) == str(reference.value)
        assert _path(tracer.counter_totals()) == [
            "congruence.fallback.row_error"
        ]

    def test_coverage_recording_falls_back(self):
        spec = APPLICATIONS["library"]().algebraic
        algebra = TraceAlgebra(spec)
        table = build_trace_table(algebra, 2)
        reference = check_congruence(TraceAlgebra(spec), depth=2)
        tracer = obs.Tracer()
        with obs.activate(tracer, obs.CoverageRecorder()):
            report = check_congruence(algebra, depth=2, table=table)
        _assert_same(reference, report)
        assert _path(tracer.counter_totals()) == [
            "congruence.fallback.coverage"
        ]

    def test_unpacked_algebra_falls_back(self):
        spec = APPLICATIONS["courses"]().algebraic
        reference = check_congruence(TraceAlgebra(spec), depth=1)
        tracer = obs.Tracer()
        with obs.activate(tracer):
            report = check_congruence(
                TraceAlgebra(spec, packed=False), depth=1
            )
        _assert_same(reference, report)
        assert _path(tracer.counter_totals()) == [
            "congruence.fallback.disabled"
        ]
