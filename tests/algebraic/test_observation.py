"""Tests for observability / congruence checking.

Observational equality is only a meaningful state equality when it is
a *congruence* (updates cannot separate observationally equal traces);
the negative test builds a specification whose query depends on the
second-to-last update — information no simple observation exposes —
and checks that the violation is caught.
"""

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.observation import (
    check_congruence,
    observational_classes,
)
from repro.algebraic.signature import AlgebraicSignature
from repro.algebraic.spec import AlgebraicSpec
from repro.logic.sorts import STATE
from repro.logic.terms import Var


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
