"""Tests for structural induction over abstract states — the paper's
Section 4.4b proof rule, mechanized."""

import pytest

from repro import obs
from repro.cli import APPLICATIONS
from repro.errors import IncompletenessError, SpecificationError
from repro.algebraic.algebra import Snapshot, TraceAlgebra
from repro.algebraic.description import (
    StructuredDescription,
    initial_equations,
    synthesize_equations,
)
from repro.algebraic.exploration import PackedExplorer, PackedUnsupported
from repro.algebraic.induction import (
    AbstractState,
    InductionReport,
    abstract_successor,
    all_snapshots,
    make_abstract_engine,
    prove_invariant,
)
from repro.algebraic.spec import AlgebraicSpec
from repro.applications.bank import bank_algebraic
from repro.applications.courses import (
    courses_algebraic,
    courses_descriptions,
    courses_information,
    courses_information_carriers,
    courses_signature,
)
from repro.refinement.compiled import StructureMap
from repro.refinement.first_second import prove_static_consistency
from tests.algebraic.test_packed_explorer import _incomplete_spec
from tests.applications.test_mutations import MUTANTS


@pytest.fixture(scope="module")
def spec():
    return courses_algebraic()


def _static_ok(snapshot: Snapshot) -> bool:
    offered = snapshot.relation("offered")
    return all(
        (course,) in offered
        for _, course in snapshot.relation("takes")
    )


class TestAbstractStates:
    def test_abstract_space_size(self, spec):
        # 6 Boolean observations -> 2^6 abstract snapshots.
        assert sum(1 for _ in all_snapshots(TraceAlgebra(spec))) == 64

    def test_abstract_space_with_valued_queries(self):
        # bank: 2 Boolean (open) x 2 money-valued (balance, |money|=4).
        algebra = TraceAlgebra(bank_algebraic())
        assert sum(1 for _ in all_snapshots(algebra)) == 64

    def test_oracle_engine_answers_from_snapshot(self, spec):
        algebra = TraceAlgebra(spec)
        trace = algebra.apply(
            "offer", "c1", trace=algebra.initial_trace()
        )
        snapshot = algebra.snapshot(trace)
        engine = make_abstract_engine(spec)
        signature = spec.signature
        course = signature.logic.sort("course")
        term = signature.apply_query(
            "offered",
            signature.value(course, "c1"),
            AbstractState(snapshot),
        )
        assert engine.evaluate(term) is True


class TestAbstractSuccessor:
    def test_matches_concrete_successor_on_reachable_states(self, spec):
        algebra = TraceAlgebra(spec)
        graph = algebra.explore()
        for snapshot, witness in list(graph.states.items())[:8]:
            for update, params in list(algebra.update_instances())[:6]:
                abstract = abstract_successor(
                    spec, snapshot, update, params
                )
                concrete = algebra.snapshot(
                    algebra.apply(update, *params, trace=witness)
                )
                assert abstract == concrete

    def test_works_on_unreachable_states(self, spec):
        # takes(s1,c1) without offered(c1): unreachable, but the
        # abstract successor is still defined by the equations.
        base = {key: False for key, _ in next(
            iter(all_snapshots(TraceAlgebra(spec)))
        ).entries}
        base[("takes", ("s1", "c1"))] = True
        snapshot = Snapshot(tuple(sorted(base.items())))
        successor = abstract_successor(spec, snapshot, "offer", ("c1",))
        assert successor.value("offered", ("c1",)) is True
        assert successor.value("takes", ("s1", "c1")) is True


class TestProveInvariant:
    def test_static_constraint_proved(self, spec):
        report = prove_invariant(TraceAlgebra(spec), _static_ok)
        assert report.ok
        assert report.base_ok and report.step_ok
        # The step quantified over exactly the 25 V-states.
        assert report.states_examined == 25
        assert "PROVED" in str(report)

    def test_false_invariant_fails_with_witnesses(self, spec):
        report = prove_invariant(
            TraceAlgebra(spec),
            lambda s: ("c1",) not in s.relation("offered"),
        )
        assert not report.ok
        assert report.base_ok  # initially nothing is offered
        assert report.counterexamples
        snapshot, update, params, successor = report.counterexamples[0]
        assert update == "offer" and params == ("c1",)
        assert "FAILED" in str(report)

    def test_base_violation_detected(self, spec):
        report = prove_invariant(
            TraceAlgebra(spec), lambda s: bool(s.relation("offered"))
        )
        assert not report.base_ok
        assert not report.ok

    def test_state_bound_enforced(self, spec):
        with pytest.raises(SpecificationError):
            prove_invariant(
                TraceAlgebra(spec), _static_ok, max_abstract_states=3
            )


class TestProveStaticConsistency:
    def test_courses(self):
        report = _prove_courses_static(courses_algebraic())
        assert report.ok
        assert report.states_examined == 25

    def test_faulty_cancel_caught_inductively(self):
        report = _prove_courses_static(_faulty_cancel_spec())
        assert not report.ok
        assert report.counterexamples


def _faulty_cancel_spec() -> AlgebraicSpec:
    """The courses spec with cancel's precondition removed."""
    signature = courses_signature()
    descriptions = []
    for description in courses_descriptions(signature):
        if description.update == "cancel":
            description = StructuredDescription(
                update="cancel",
                params=description.params,
                precondition=None,
                effects=description.effects,
            )
        descriptions.append(description)
    equations = initial_equations(signature) + synthesize_equations(
        signature, descriptions
    )
    return AlgebraicSpec(signature, tuple(equations))


def _prove_courses_static(spec, packed: bool = True) -> InductionReport:
    return prove_static_consistency(
        courses_information(),
        courses_information_carriers(),
        TraceAlgebra(spec, packed=packed),
    )


def _prove_app_static(name: str, packed: bool = True) -> InductionReport:
    framework = APPLICATIONS[name]()
    return prove_static_consistency(
        framework.information,
        framework.carriers,
        TraceAlgebra(framework.algebraic, packed=packed),
        framework.interpretation,
    )


def _force_object_step(monkeypatch) -> None:
    """Make every proof take the object step, as for a specification
    outside the plan fragment."""

    def outside(self, algebra):
        raise PackedUnsupported("forced onto the object step")

    monkeypatch.setattr(PackedExplorer, "__init__", outside)


def _object_step_report(monkeypatch, prove) -> InductionReport:
    with monkeypatch.context() as patch:
        _force_object_step(patch)
        return prove()


def _assert_same_report(plan, reference) -> None:
    assert plan.ok == reference.ok
    assert plan.base_ok == reference.base_ok
    assert plan.step_ok == reference.step_ok
    assert plan.states_examined == reference.states_examined
    assert plan.counterexamples == reference.counterexamples
    assert str(plan) == str(reference)


def _traced(prove):
    """Run ``prove`` under a fresh tracer; return its result and the
    counter totals it recorded."""
    tracer = obs.Tracer()
    with obs.activate(tracer):
        result = prove()
    return result, tracer.counter_totals()


class TestPlanStepMatchesObjectStep:
    """The compiled-plan step and the rewriting step prove the same
    thing, counterexamples included."""

    @pytest.mark.parametrize("app", ["courses", "library", "bank"])
    def test_applications(self, app, monkeypatch):
        plan = _prove_app_static(app)
        reference = _object_step_report(
            monkeypatch, lambda: _prove_app_static(app)
        )
        _assert_same_report(plan, reference)
        assert plan.ok

    @pytest.mark.slow
    def test_projects(self, monkeypatch):
        plan = _prove_app_static("projects")
        reference = _object_step_report(
            monkeypatch, lambda: _prove_app_static("projects")
        )
        _assert_same_report(plan, reference)
        assert plan.ok

    def test_faulty_cancel(self, monkeypatch):
        spec = _faulty_cancel_spec()
        plan = _prove_courses_static(spec)
        reference = _object_step_report(
            monkeypatch, lambda: _prove_courses_static(spec)
        )
        _assert_same_report(plan, reference)
        assert plan.counterexamples

    def test_false_invariant(self, spec, monkeypatch):
        def invariant(snapshot):
            return ("c1",) not in snapshot.relation("offered")

        plan = prove_invariant(TraceAlgebra(spec), invariant)
        reference = _object_step_report(
            monkeypatch,
            lambda: prove_invariant(TraceAlgebra(spec), invariant),
        )
        _assert_same_report(plan, reference)
        assert plan.counterexamples

    @pytest.mark.parametrize(
        "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
    )
    def test_mutants(self, label, mutant, monkeypatch):
        plan = _prove_courses_static(mutant)
        reference = _object_step_report(
            monkeypatch, lambda: _prove_courses_static(mutant)
        )
        _assert_same_report(plan, reference)


class TestUnpackedAlgebraTakesTheObjectStep:
    """``packed=False`` forces the reference step, as it forces the
    object BFS and every other check's reference path."""

    @staticmethod
    def _assert_object_step(prove) -> None:
        plan = prove(True)
        reference, counters = _traced(lambda: prove(False))
        _assert_same_report(plan, reference)
        assert counters["induction.fallback.disabled"] == 1
        assert counters["induction.packed_steps"] == 0
        assert counters["induction.object_steps"] > 0

    @pytest.mark.parametrize("app", ["courses", "library", "bank"])
    def test_applications(self, app):
        self._assert_object_step(
            lambda packed: _prove_app_static(app, packed)
        )

    @pytest.mark.slow
    def test_projects(self):
        self._assert_object_step(
            lambda packed: _prove_app_static("projects", packed)
        )

    @pytest.mark.parametrize(
        "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
    )
    def test_mutants(self, label, mutant):
        self._assert_object_step(
            lambda packed: _prove_courses_static(mutant, packed)
        )


class TestOncePerState:
    def test_invariant_once_per_snapshot_courses(self, spec):
        seen = []

        def invariant(snapshot):
            seen.append(snapshot)
            return _static_ok(snapshot)

        report, counters = _traced(
            lambda: prove_invariant(TraceAlgebra(spec), invariant)
        )
        assert report.ok
        assert len(seen) == len(set(seen)) == 64
        assert counters["induction.invariant_evals"] == 64
        # 25 P-states times 16 update instances.
        assert counters["induction.packed_steps"] == 400
        assert counters["induction.object_steps"] == 0
        assert not any("fallback" in name for name in counters)

    def test_invariant_once_per_snapshot_projects(self, monkeypatch):
        # The invariant reads M(snapshot) through the compiled map.
        seen = []
        original = StructureMap.extensions

        def counting(self, snapshot):
            seen.append(snapshot)
            return original(self, snapshot)

        monkeypatch.setattr(StructureMap, "extensions", counting)
        report, counters = _traced(lambda: _prove_app_static("projects"))
        assert report.ok
        assert len(seen) == len(set(seen)) == 512
        assert counters["induction.invariant_evals"] == 512
        assert counters["induction.packed_steps"] == 3300
        assert counters["induction.object_steps"] == 0
        assert not any("fallback" in name for name in counters)

    def test_invariant_once_per_snapshot_projects_coverage(
        self, monkeypatch
    ):
        # Under coverage the invariant stays compiled and the step
        # still applies plans; without packing both take the reference.
        seen = []
        original = StructureMap.extensions

        def counting(self, snapshot):
            seen.append(snapshot)
            return original(self, snapshot)

        monkeypatch.setattr(StructureMap, "extensions", counting)
        with obs.activate(coverage=obs.CoverageRecorder()):
            report, counters = _traced(
                lambda: _prove_app_static("projects")
            )
        assert report.ok
        assert len(seen) == len(set(seen)) == 512
        assert counters["induction.invariant_evals"] == 512
        assert counters["induction.packed_steps"] == 3300
        assert not any("fallback" in name for name in counters)
        seen.clear()
        report, counters = _traced(
            lambda: _prove_app_static("projects", packed=False)
        )
        assert report.ok
        assert seen == []
        assert counters["induction.invariant_evals"] == 512
        assert counters["induction.invariant_fallback.disabled"] == 1
        assert counters["induction.fallback.disabled"] == 1


class TestObjectStepFallback:
    def test_outside_fragment(self, spec, monkeypatch):
        _force_object_step(monkeypatch)
        report, counters = _traced(
            lambda: prove_invariant(TraceAlgebra(spec), _static_ok)
        )
        assert report.ok
        assert counters["induction.fallback.outside_fragment"] == 1
        assert counters["induction.object_steps"] == 400
        assert counters["induction.packed_steps"] == 0

    def test_dispatch_gap_gives_the_object_step_error(self, monkeypatch):
        spec = _incomplete_spec()
        # The plans compile; the gap only shows when a step runs.
        PackedExplorer(TraceAlgebra(spec))
        with pytest.raises(IncompletenessError) as plan:
            prove_invariant(TraceAlgebra(spec), lambda snapshot: True)
        _force_object_step(monkeypatch)
        with pytest.raises(IncompletenessError) as reference:
            prove_invariant(TraceAlgebra(spec), lambda snapshot: True)
        assert str(plan.value) == str(reference.value)
        assert "q(c2, touch(c1, " in str(plan.value)

    def test_gap_mid_proof_reruns_on_object_step(self, spec, monkeypatch):
        original = PackedExplorer.apply_instance
        calls = []

        def gap_on_fifth(self, instance, row, get):
            calls.append(instance)
            if len(calls) == 5:
                raise PackedUnsupported("no equation fires")
            return original(self, instance, row, get)

        monkeypatch.setattr(PackedExplorer, "apply_instance", gap_on_fifth)
        report, counters = _traced(
            lambda: prove_invariant(TraceAlgebra(spec), _static_ok)
        )
        monkeypatch.undo()
        _assert_same_report(
            report, prove_invariant(TraceAlgebra(spec), _static_ok)
        )
        assert counters["induction.fallback.dispatch_gap"] == 1
        assert counters["induction.packed_steps"] == 5
        assert counters["induction.object_steps"] == 400
        assert counters["induction.invariant_evals"] == 64

    def test_plan_step_bug_propagates(self, spec, monkeypatch):
        def broken(self, *args):
            raise RuntimeError("plan step bug")

        monkeypatch.setattr(PackedExplorer, "apply_instance", broken)
        with pytest.raises(RuntimeError, match="plan step bug"):
            prove_invariant(TraceAlgebra(spec), _static_ok)

    def test_coverage_takes_object_step(self, spec):
        # Only an unpacked algebra takes the object step; under
        # coverage the plan step records what the object step fires.
        def recorded(packed):
            recorder = obs.CoverageRecorder()
            with obs.activate(coverage=recorder):
                report, counters = _traced(
                    lambda: prove_invariant(
                        TraceAlgebra(spec, packed=packed), _static_ok
                    )
                )
            return report, counters, recorder

        report, counters, plans = recorded(True)
        reference, reference_counters, rewriting = recorded(False)
        _assert_same_report(report, reference)
        assert counters["induction.packed_steps"] == 400
        assert counters["induction.object_steps"] == 0
        assert not any("fallback" in name for name in counters)
        assert reference_counters["induction.fallback.disabled"] == 1
        assert reference_counters["induction.object_steps"] == 400
        assert plans.fire_sets() == rewriting.fire_sets()
        assert plans.fire_set("offered", "cancel")
