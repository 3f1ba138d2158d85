"""Differential guarantees of the packed explorer.

The packed value-row BFS must be observationally indistinguishable
from the object-path BFS on every application — same snapshot
discovery order, identical witness-trace objects, equal transition
lists, same truncation.
"""

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.exploration import PackedExplorer, PackedUnsupported
from repro.algebraic.signature import AlgebraicSignature
from repro.algebraic.spec import AlgebraicSpec
from repro.applications.bank import bank_algebraic
from repro.applications.courses import courses_algebraic
from repro.applications.library import library_algebraic
from repro.applications.projects import projects_algebraic
from repro.errors import IncompletenessError
from repro.logic import formulas as fm
from repro.logic.sorts import STATE
from repro.logic.terms import Var

APPS = {
    "courses": courses_algebraic,
    "projects": projects_algebraic,
    "bank": bank_algebraic,
    "library": library_algebraic,
}


def _assert_identical(spec, **explore_kwargs):
    packed = TraceAlgebra(spec).explore(**explore_kwargs)
    plain = TraceAlgebra(spec, packed=False).explore(**explore_kwargs)
    assert packed.initial == plain.initial
    # Same snapshots in the same discovery order.
    assert list(packed.states) == list(plain.states)
    # Witness traces are the *identical* interned objects.
    for snapshot, witness in packed.states.items():
        assert witness is plain.states[snapshot]
    assert packed.transitions == plain.transitions
    assert packed.truncated == plain.truncated
    assert packed == plain


class TestDifferentialByteIdentity:
    @pytest.mark.parametrize("app", ["courses", "bank", "library"])
    def test_full_graph_matches_object_path(self, app):
        _assert_identical(APPS[app]())

    @pytest.mark.slow
    def test_full_graph_matches_object_path_projects(self):
        _assert_identical(APPS["projects"]())

    @pytest.mark.parametrize("app", ["courses", "bank"])
    def test_truncated_graph_matches_object_path(self, app):
        _assert_identical(APPS[app](), max_states=7)

    @pytest.mark.parametrize("app", ["courses", "bank"])
    def test_depth_bounded_graph_matches_object_path(self, app):
        _assert_identical(APPS[app](), max_depth=2)


def _incomplete_spec() -> AlgebraicSpec:
    """``q(c, touch(c', U))`` is defined only for ``c = c1``: exploring
    reaches a state on which no equation applies."""
    signature = AlgebraicSignature()
    course = signature.add_parameter_sort("course")
    signature.add_parameter_values(course, ["c1", "c2"])
    signature.add_query("q", [course])
    signature.add_initial()
    signature.add_update("touch", [course])
    c = Var("c", course)
    touched = signature.apply_update("touch", c, Var("U", STATE))
    equations = (
        ConditionalEquation(
            signature.apply_query("q", c, signature.initial_term()),
            signature.false(),
        ),
        ConditionalEquation(
            signature.apply_query("q", c, touched),
            signature.true(),
            fm.Equals(c, signature.value(course, "c1")),
        ),
    )
    return AlgebraicSpec(signature, equations)


def _ungrounded_cell_spec() -> AlgebraicSpec:
    """``q(c, touch(U))`` has an equation only for ``c = c1`` (a
    constant pattern): no equation grounds the cell ``q(c2)``."""
    signature = AlgebraicSignature()
    course = signature.add_parameter_sort("course")
    signature.add_parameter_values(course, ["c1", "c2"])
    signature.add_query("q", [course])
    signature.add_initial()
    signature.add_update("touch", [])
    c = Var("c", course)
    touched = signature.apply_update("touch", Var("U", STATE))
    equations = (
        ConditionalEquation(
            signature.apply_query("q", c, signature.initial_term()),
            signature.false(),
        ),
        ConditionalEquation(
            signature.apply_query(
                "q", signature.value(course, "c1"), touched
            ),
            signature.true(),
        ),
    )
    return AlgebraicSpec(signature, equations)


class TestPackedFallback:
    """Only the errors the object BFS re-reports with exact messages
    fall back to it; anything else is a packed-explorer bug and
    propagates instead of silently running the slow path."""

    def test_packed_explorer_bug_propagates(self, monkeypatch):
        def broken(self, *args):
            raise RuntimeError("packed explorer bug")

        monkeypatch.setattr(PackedExplorer, "explore", broken)
        with pytest.raises(RuntimeError, match="packed explorer bug"):
            TraceAlgebra(courses_algebraic()).explore()

    def test_spec_error_reports_the_object_path_message(
        self, monkeypatch
    ):
        spec = _incomplete_spec()
        with pytest.raises(IncompletenessError) as object_path:
            TraceAlgebra(spec, packed=False).explore()
        with pytest.raises(IncompletenessError) as unpatched:
            TraceAlgebra(spec).explore()
        assert str(unpatched.value) == str(object_path.value)

        def incomplete(self, *args):
            raise IncompletenessError("packed-side message")

        monkeypatch.setattr(PackedExplorer, "explore", incomplete)
        with pytest.raises(IncompletenessError) as packed_path:
            TraceAlgebra(spec).explore()
        assert str(packed_path.value) == str(object_path.value)
        assert "q(c2, touch(c1, initiate))" in str(packed_path.value)

    def test_ungrounded_cell_is_not_a_frame_cell(self):
        # The trace semantics finds no equation for q(c2) over touch,
        # so the packed BFS must not keep it as a frame cell.
        spec = _ungrounded_cell_spec()
        with pytest.raises(IncompletenessError) as object_path:
            TraceAlgebra(spec, packed=False).explore()
        with pytest.raises(IncompletenessError) as packed:
            TraceAlgebra(spec).explore()
        assert str(packed.value) == str(object_path.value)
        assert "q(c2, touch(initiate))" in str(packed.value)

    def test_unsupported_mid_explore_falls_back(self, monkeypatch):
        def unsupported(self, *args):
            raise PackedUnsupported("outside the packed fragment")

        monkeypatch.setattr(PackedExplorer, "explore", unsupported)
        graph = TraceAlgebra(courses_algebraic()).explore()
        assert graph == TraceAlgebra(
            courses_algebraic(), packed=False
        ).explore()


class TestFallbackCounters:
    """Each reason the object BFS runs instead is counted once, as
    ``explore.fallback.<reason>``; the packed path counts none."""

    @staticmethod
    def _explore_counters(algebra):
        from repro import obs

        tracer = obs.Tracer()
        with obs.activate(tracer):
            try:
                algebra.explore()
            except IncompletenessError:
                pass
        return {
            name: value
            for name, value in tracer.counter_totals().items()
            if name.startswith("explore.fallback.")
        }

    def test_packed_counts_nothing(self):
        assert self._explore_counters(TraceAlgebra(courses_algebraic())) == {}

    def test_disabled(self):
        algebra = TraceAlgebra(courses_algebraic(), packed=False)
        assert self._explore_counters(algebra) == {
            "explore.fallback.disabled": 1
        }

    def test_coverage(self):
        # Coverage records on the packed explorer's plan applications.
        from repro.obs import CoverageRecorder, activate

        plans, rewriting = CoverageRecorder(), CoverageRecorder()
        with activate(coverage=plans):
            counters = self._explore_counters(
                TraceAlgebra(courses_algebraic())
            )
        with activate(coverage=rewriting):
            self._explore_counters(
                TraceAlgebra(courses_algebraic(), packed=False)
            )
        assert counters == {}
        assert plans.fire_sets()
        assert plans.fire_sets() == rewriting.fire_sets()

    def test_outside_fragment(self, monkeypatch):
        def outside(self, algebra):
            raise PackedUnsupported("outside the packed fragment")

        monkeypatch.setattr(PackedExplorer, "__init__", outside)
        algebra = TraceAlgebra(courses_algebraic())
        for _ in range(2):  # the verdict is remembered, and recounted
            assert self._explore_counters(algebra) == {
                "explore.fallback.outside_fragment": 1
            }

    def test_unsupported_midrun(self, monkeypatch):
        def unsupported(self, *args):
            raise PackedUnsupported("a plan gap")

        monkeypatch.setattr(PackedExplorer, "explore", unsupported)
        assert self._explore_counters(TraceAlgebra(courses_algebraic())) == {
            "explore.fallback.unsupported_midrun": 1
        }

    def test_dispatch_gap_is_unsupported_midrun(self):
        assert self._explore_counters(TraceAlgebra(_incomplete_spec())) == {
            "explore.fallback.unsupported_midrun": 1
        }

    def test_spec_error(self, monkeypatch):
        def incomplete(self, *args):
            raise IncompletenessError("packed-side message")

        monkeypatch.setattr(PackedExplorer, "explore", incomplete)
        assert self._explore_counters(TraceAlgebra(_incomplete_spec())) == {
            "explore.fallback.spec_error": 1
        }
