"""The compiled sweeps of ``repro verify`` against their reference
paths.

Every per-state sweep except congruence evaluates closures compiled
once per check: (b), (d), the induction invariant and (c) compile
M(snapshot) and the constraints over its extensions, (a) and agreement
read each trace's row off the shared trace table, and the Section 5.4
sweep compiles each equation.  Forcing a site onto its reference path (its
compile step raises) must give the same report, on the shipped
applications, on the sixteen courses mutants, on one failing
specification per check, and where a cell value leaves the carriers
or an axiom names a non-db predicate.  Every path decision is counted,
and a bug inside a compiled closure propagates.
"""

from types import SimpleNamespace

import pytest

from repro import obs
from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.compiler import UnsupportedTermError
from repro.algebraic.completeness import check_sufficient_completeness
from repro.algebraic.rewriting import RewriteEngine
from repro.applications import bank
from repro.applications.bank import (
    bank_algebraic,
    bank_carriers,
    bank_information,
    bank_interpretation,
)
from repro.applications.courses import (
    COURSE,
    STUDENT,
    courses_algebraic,
    courses_information,
    courses_information_carriers,
    courses_schema_source,
)
from repro.cli import APPLICATIONS
from repro.errors import ReproError
from repro.information.spec import InformationSpec
from repro.logic.parser import parse_formula
from repro.logic.signature import Signature
from repro.refinement import compiled, second_third
from repro.refinement.first_second import (
    check_static_consistency,
    check_transition_consistency,
    prove_static_consistency,
)
from repro.refinement.interpretation import Interpretation
from repro.refinement.reachability import compare_valid_reachable
from repro.refinement.second_third import (
    check_agreement,
    check_refinement,
)
from repro.rpr.ast import Schema, desugar
from repro.rpr.parser import parse_schema
from tests.algebraic.test_completeness import _c1_only_spec
from tests.algebraic.test_induction import _faulty_cancel_spec
from tests.applications.test_mutations import MUTANTS
from tests.refinement.test_first_second import dropping_enroll_spec
from tests.refinement.test_second_third import (
    BROKEN_CANCEL,
    interpret_n_of_u,
)

APPS = ["courses", "library", "projects", "bank"]


# ---------------------------------------------------------------------
# inputs: one design per case, as the checks take it
# ---------------------------------------------------------------------
class _Design:
    """The pieces of a three-level design the checks take."""

    def __init__(
        self, information, carriers, spec, interpretation=None,
        schema=None, representation=None, max_states=100_000,
    ):
        self.information = information
        self.carriers = carriers
        self.spec = spec
        self.interpretation = interpretation or Interpretation.homonym(
            information, spec.signature
        )
        self.schema = schema
        self.representation = representation
        self.max_states = max_states

    def algebra(self):
        return TraceAlgebra(self.spec)

    def graph(self, algebra):
        return algebra.explore(max_states=self.max_states)


def _app(name) -> _Design:
    framework = APPLICATIONS[name]()
    return _Design(
        framework.information,
        framework.carriers,
        framework.algebraic,
        framework.interpretation,
        framework.schema,
        framework.representation,
    )


def _courses(spec, schema_source=None, max_states=100_000) -> _Design:
    return _Design(
        courses_information(),
        courses_information_carriers(),
        spec,
        schema=parse_schema(schema_source or courses_schema_source()),
        max_states=max_states,
    )


# ---------------------------------------------------------------------
# the checks, and how each is forced onto its reference path
# ---------------------------------------------------------------------
def _static(design):
    algebra = design.algebra()
    return check_static_consistency(
        design.information, design.carriers, algebra,
        design.interpretation, design.graph(algebra),
    )


def _transitions(design):
    algebra = design.algebra()
    return check_transition_consistency(
        design.information, design.carriers, algebra,
        design.interpretation, design.graph(algebra),
    )


def _induction(design):
    return prove_static_consistency(
        design.information, design.carriers, design.algebra(),
        design.interpretation,
    )


def _inclusion(design):
    algebra = design.algebra()
    return compare_valid_reachable(
        design.information, design.carriers, algebra,
        design.interpretation, design.graph(algebra),
    )


def _completeness(design):
    return check_sufficient_completeness(design.spec, depth=2)


def _agreement(design):
    return check_agreement(
        design.algebra(), design.schema, design.representation, depth=2
    )


def _second_third(design):
    return check_refinement(
        design.spec, design.schema, design.representation
    )


def _refuse_compile(patch):
    def refuse(*args, **kwargs):
        raise UnsupportedTermError("forced onto the reference path")

    patch.setattr(compiled, "compile_ground_formula", refuse)
    patch.setattr(compiled, "compile_ground_term", refuse)


def _refuse_batch(patch):
    def refuse(self, trace, observations):
        raise ReproError("forced onto the reference path")

    patch.setattr(RewriteEngine, "evaluate_cells", refuse)


def _desugar_every_run(patch):
    # The compiled procedures expand each derived statement once, at
    # compile time; the interpreters then expand it at every run.
    interpret_n_of_u(patch)
    patch.setattr(
        Schema, "expansion", lambda self, statement: desugar(statement, self)
    )


#: check name -> (run the check, force its reference path).
SITES = {
    "static": (_static, _refuse_compile),
    "transitions": (_transitions, _refuse_compile),
    "induction": (_induction, _refuse_compile),
    "inclusion": (_inclusion, _refuse_compile),
    "completeness": (_completeness, _refuse_batch),
    "agreement": (_agreement, _refuse_batch),
    "second-third": (_second_third, interpret_n_of_u),
    "desugar": (_second_third, _desugar_every_run),
}


def _assert_reference_agrees(site, design, monkeypatch):
    run, force = SITES[site]
    compiled = run(design)
    with monkeypatch.context() as patch:
        force(patch)
        reference = run(design)
    assert str(compiled) == str(reference)
    assert compiled == reference
    return compiled


# ---------------------------------------------------------------------
# differential: compiled vs reference
# ---------------------------------------------------------------------
class TestApplications:
    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_same_report(self, app, site, monkeypatch):
        report = _assert_reference_agrees(site, _app(app), monkeypatch)
        assert report.ok


class TestMutants:
    @pytest.mark.parametrize(
        "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
    )
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_same_report(self, label, mutant, site, monkeypatch):
        _assert_reference_agrees(site, _courses(mutant), monkeypatch)


class TestFailingSpecifications:
    """One specification each check refutes."""

    def test_static_and_induction_faulty_cancel(self, monkeypatch):
        design = _courses(_faulty_cancel_spec())
        assert not _assert_reference_agrees("static", design, monkeypatch)
        assert not _assert_reference_agrees(
            "induction", design, monkeypatch
        )

    def test_transitions_drop_update(self, monkeypatch):
        report = _assert_reference_agrees(
            "transitions", _courses(dropping_enroll_spec()), monkeypatch
        )
        assert {t.update for t, _ in report.violations} == {"drop"}

    def test_inclusion_truncated_graph(self, monkeypatch):
        report = _assert_reference_agrees(
            "inclusion",
            _courses(courses_algebraic(), max_states=5),
            monkeypatch,
        )
        assert report.truncated and report.unreachable_valid

    def test_completeness_gap(self, monkeypatch):
        report = _assert_reference_agrees(
            "completeness", SimpleNamespace(spec=_c1_only_spec()),
            monkeypatch,
        )
        assert report.coverage.uncovered

    @pytest.mark.parametrize("site", ["second-third", "desugar"])
    def test_second_third_dropped_cancel_guard(self, site, monkeypatch):
        design = _courses(courses_algebraic(), BROKEN_CANCEL)
        report = _assert_reference_agrees(site, design, monkeypatch)
        assert {f.equation.label for f in report.failures} == {"eq6a"}


class TestExactOutsideTheCarriers:
    """A compiled check decides what its reference decides even where
    the reference's structures differ from the raw cells."""

    CHECKS = ["static", "transitions", "induction", "inclusion"]

    @pytest.mark.parametrize("site", CHECKS)
    def test_balance_beyond_the_money_carrier(self, site, monkeypatch):
        # The algebra counts to m3, the carriers stop at m2: a state
        # with balance m3 has no balance in M(state).
        spec = bank_algebraic(levels=4)
        design = _Design(
            bank_information(),
            bank_carriers(levels=3),
            spec,
            bank_interpretation(spec.signature),
        )
        report = _assert_reference_agrees(site, design, monkeypatch)
        if site != "transitions":
            assert not report

    @pytest.mark.parametrize("site", CHECKS)
    def test_interpreted_function_leaving_its_domain(
        self, site, monkeypatch
    ):
        # inc(m2) = m7, a value no signature declares.
        clamped = bank._inc_clamped
        with monkeypatch.context() as patch:
            patch.setattr(
                bank,
                "_inc_clamped",
                lambda top, value: {"m2": "m7", "m7": "m3"}.get(value)
                or clamped(top, value),
            )
            spec = bank_algebraic()
        design = _Design(
            bank_information(),
            bank_carriers(),
            spec,
            bank_interpretation(spec.signature),
            max_states=60,
        )
        report = _assert_reference_agrees(site, design, monkeypatch)
        if site != "transitions":
            assert not report

    @pytest.mark.parametrize(
        "site,name",
        [
            ("static", "static.fallback.outside_fragment"),
            ("transitions", "transitions.fallback.outside_fragment"),
            ("induction", "induction.invariant_fallback.outside_fragment"),
            ("inclusion", "inclusion.fallback.outside_fragment"),
        ],
    )
    def test_axioms_naming_a_non_db_predicate(self, site, name, monkeypatch):
        # A structure leaves ``special`` empty; the compiled checks
        # take the reference path.
        signature = Signature(sorts=[STUDENT, COURSE])
        signature.add_predicate("offered", [COURSE], db=True)
        signature.add_predicate("takes", [STUDENT, COURSE], db=True)
        signature.add_predicate("special", [COURSE])
        static = parse_formula(
            "forall c:course. offered(c) -> special(c)", signature
        )
        transition = parse_formula(
            "forall c:course. [](offered(c) -> [](offered(c) | special(c)))",
            signature,
            allow_modal=True,
        )
        spec = courses_algebraic()
        design = _Design(
            InformationSpec(signature, (static, transition)),
            courses_information_carriers(),
            spec,
            Interpretation.homonym(courses_information(), spec.signature),
        )
        report, counters = _counted(lambda: SITES[site][0](design))
        assert not report
        assert counters[name] == 1
        _assert_reference_agrees(site, design, monkeypatch)


# ---------------------------------------------------------------------
# every path decision is counted
# ---------------------------------------------------------------------
def _counted(run):
    tracer = obs.Tracer()
    with obs.activate(tracer):
        result = run()
    return result, tracer.counter_totals()


def _fallbacks(counters):
    return {
        name: value
        for name, value in counters.items()
        if "fallback" in name
    }


class TestFallbackCounters:
    @pytest.mark.parametrize(
        "run", [_static, _transitions, _inclusion, _induction,
                _completeness, _agreement],
    )
    def test_compiled_paths_count_no_fallback(self, run):
        _, counters = _counted(lambda: run(_app("courses")))
        assert _fallbacks(counters) == {}

    @pytest.mark.parametrize(
        "run,name,disabled",
        [
            (
                _static,
                "static.fallback.coverage",
                "static.fallback.disabled",
            ),
            (
                _transitions,
                "transitions.fallback.coverage",
                "transitions.fallback.disabled",
            ),
            (
                _inclusion,
                "inclusion.fallback.coverage",
                "inclusion.fallback.disabled",
            ),
            (
                _induction,
                "induction.invariant_fallback.coverage",
                "induction.invariant_fallback.disabled",
            ),
            # (a) takes no algebra: without a shared table it evaluates
            # its traces on the rewrite engine either way.
            (_completeness, "completeness.fallback.coverage", None),
            (
                _agreement,
                "agreement.fallback.coverage",
                "agreement.fallback.disabled",
            ),
        ],
    )
    def test_coverage(self, run, name, disabled, monkeypatch):
        # Coverage recording keeps the compiled path, so no
        # ``coverage`` reason is counted.  Only an unpacked algebra
        # takes the reference path, counted as ``disabled``.
        design = _app("courses")
        plain = run(design)
        with obs.activate(coverage=obs.CoverageRecorder()):
            covered, counters = _counted(lambda: run(design))
        assert name not in counters
        assert _fallbacks(counters) == {}
        assert str(covered) == str(plain)
        monkeypatch.setattr(
            design,
            "algebra",
            lambda: TraceAlgebra(design.spec, packed=False),
        )
        reference, counters = _counted(lambda: run(design))
        assert str(reference) == str(plain)
        if disabled is not None:
            assert counters[disabled] == 1

    @pytest.mark.parametrize(
        "run,name",
        [
            (_static, "static.fallback.outside_fragment"),
            (_transitions, "transitions.fallback.outside_fragment"),
            (_induction, "induction.invariant_fallback.outside_fragment"),
        ],
    )
    def test_compile_outside_fragment(self, run, name, monkeypatch):
        _refuse_compile(monkeypatch)
        report, counters = _counted(lambda: run(_app("courses")))
        assert report.ok
        assert counters[name] == 1

    @pytest.mark.parametrize(
        "check,name",
        [
            (check_static_consistency, "static.fallback.outside_fragment"),
            (
                check_transition_consistency,
                "transitions.fallback.outside_fragment",
            ),
            (compare_valid_reachable, "inclusion.fallback.outside_fragment"),
        ],
    )
    def test_read_outside_the_observations(self, check, name, monkeypatch):
        # The compiled closures would read cells the algebra does not
        # observe: the check takes its reference path instead.
        design = _app("courses")
        algebra = design.algebra()
        graph = design.graph(algebra)
        monkeypatch.setattr(
            TraceAlgebra, "observations", property(lambda self: ())
        )
        report, counters = _counted(
            lambda: check(
                design.information, design.carriers, algebra,
                design.interpretation, graph,
            )
        )
        assert report.ok
        assert counters[name] == 1

    def test_inclusion_counts_each_reason_once(self, monkeypatch):
        _refuse_compile(monkeypatch)
        report, counters = _counted(lambda: _inclusion(_app("courses")))
        assert report.ok
        assert counters["inclusion.fallback.outside_fragment"] == 1

    def test_agreement_object_path_baseline(self):
        design = _app("courses")
        _, counters = _counted(
            lambda: check_agreement(
                TraceAlgebra(design.spec, packed=False),
                design.schema,
                depth=2,
            )
        )
        assert counters["agreement.fallback.disabled"] == 1

    def test_cell_fallbacks_count_traces(self, monkeypatch):
        _refuse_batch(monkeypatch)
        completeness, counters = _counted(
            lambda: _completeness(_app("courses"))
        )
        assert (
            counters["completeness.cell_fallbacks"]
            == completeness.coverage.traces_checked
        )
        agreement, counters = _counted(lambda: _agreement(_app("courses")))
        assert counters["agreement.cell_fallbacks"] == agreement.states_checked

    def test_gap_traces_are_redone_cell_by_cell(self):
        report, counters = _counted(
            lambda: _completeness(SimpleNamespace(spec=_c1_only_spec()))
        )
        assert report.coverage.uncovered
        assert counters["completeness.cell_fallbacks"] >= 1

    @pytest.mark.parametrize("app", APPS)
    def test_four_applications(self, app, monkeypatch):
        framework = APPLICATIONS[app]()
        _, counters = _counted(framework.verify)
        assert _fallbacks(counters) == {}
        assert counters["congruence.by_construction"] == 1
        # Coverage recording keeps every fast path.
        with obs.activate(coverage=obs.CoverageRecorder()):
            _, counters = _counted(framework.verify)
        assert _fallbacks(counters) == {}
        assert counters["congruence.by_construction"] == 1
        assert counters["traces.by_plans"] == 1
        # An unpacked algebra is the one switch to the reference paths.
        monkeypatch.setattr(
            type(framework),
            "algebra",
            lambda self: TraceAlgebra(self.algebraic, packed=False),
        )
        _, counters = _counted(framework.verify)
        assert _fallbacks(counters) == {
            "explore.fallback.disabled": 1,
            "static.fallback.disabled": 1,
            "inclusion.fallback.disabled": 1,
            "transitions.fallback.disabled": 1,
            "induction.fallback.disabled": 1,
            "induction.invariant_fallback.disabled": 1,
            "congruence.fallback.disabled": 1,
            "agreement.fallback.disabled": 1,
        }


# ---------------------------------------------------------------------
# a bug inside a compiled closure is not a fallback
# ---------------------------------------------------------------------
def _bug(*args, **kwargs):
    raise RuntimeError("compiled closure bug")


class TestBugsPropagate:
    @pytest.mark.parametrize(
        "run", [_static, _transitions, _induction, _inclusion]
    )
    @pytest.mark.parametrize(
        "name,reads",
        [
            ("compile_ground_formula", frozenset({"cell"})),
            ("compile_ground_term", frozenset()),
        ],
    )
    def test_level_one_closures(self, run, name, reads, monkeypatch):
        monkeypatch.setattr(
            compiled, name, lambda *args, **kwargs: (_bug, reads)
        )
        with pytest.raises(RuntimeError, match="compiled closure bug"):
            run(_app("courses"))

    @pytest.mark.parametrize("run", [_completeness, _agreement])
    def test_batch(self, run, monkeypatch):
        monkeypatch.setattr(RewriteEngine, "evaluate_cells", _bug)
        with pytest.raises(RuntimeError, match="compiled closure bug"):
            run(_app("courses"))

    def test_equation_closures(self, monkeypatch):
        monkeypatch.setattr(
            second_third,
            "_compile_equation",
            lambda *args: (None, _bug, _bug, 0),
        )
        with pytest.raises(RuntimeError, match="compiled closure bug"):
            _second_third(_app("courses"))
