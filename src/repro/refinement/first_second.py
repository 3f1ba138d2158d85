"""Refinement of the information level by the functions level.

Paper, Section 4.3: "we say that T2 refines T1 iff the axioms in A2
are sufficient to guarantee that the updates preserve consistency with
respect to the static and transition constraints in A1."  Section 4.4
decomposes the proof obligation for the running example into:

  (a) sufficient completeness         — :mod:`repro.algebraic.completeness`
  (b) every reachable state is valid  — :func:`check_static_consistency`
  (c) every valid state is reachable  — :mod:`repro.refinement.reachability`
  (d) transition consistency          — :func:`check_transition_consistency`

"Parts (b) and (d) are equivalent to saying that the refinement is
correct."  This module implements (b) and (d) over the observational
state graph — the semantical characterization of correct refinement
the paper describes via the induced structure mapping M — plus the
syntactic extension of I to wffs (Section 4.3), which maps modal
formulas of L1 into first-order formulas of L2 extended with the
reachability predicate F.

(b), (d) and the induction invariant compile once per check
(:mod:`repro.refinement.compiled`): M(snapshot) from the ground
instances of I, and each constraint over its extensions.  Realizing
each state as a level-1 :class:`~repro.logic.structures.Structure` and
deciding the generic satisfaction relation stays the reference path,
taken when the algebra is not ``packed`` and when the constraints fall
outside the compilable fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebraic.algebra import (
    Snapshot,
    StateGraph,
    TraceAlgebra,
    Transition,
)
from repro.algebraic.completeness import (
    CompletenessReport,
    check_sufficient_completeness,
)
from repro.errors import RefinementError
from repro.information.consistency import (
    check_state,
    check_transition,
)
from repro.information.spec import InformationSpec
from repro.logic import formulas as fm
from repro.logic.signature import PredicateSymbol
from repro.logic.sorts import STATE, Sort
from repro.logic.substitution import Substitution
from repro.logic.terms import Term, Var
from repro.obs.stats import counter_delta, engine_counters
from repro.obs.tracer import count as _count, span as _span
from repro.refinement.compiled import (
    StructureMap,
    compile_or_fallback,
    compile_static,
    compile_transition,
    violated,
)
from repro.refinement.interpretation import Interpretation
from repro.refinement.reachability import (
    InclusionReport,
    compare_valid_reachable,
)
from repro.temporal.formulas import Necessarily, Possibly

__all__ = [
    "StaticConsistencyReport",
    "TransitionConsistencyReport",
    "FirstToSecondReport",
    "check_static_consistency",
    "prove_static_consistency",
    "check_transition_consistency",
    "check_refinement",
    "translate_axiom",
    "REACHABILITY_PREDICATE",
]

#: The predicate symbol F of sort <state, state> that the wff
#: translation adds to L2 (paper, Section 4.3: "we must extend L2 by
#: adding a predicate symbol F of sort <state, state>, which will stand
#: for the reachability relation R").
REACHABILITY_PREDICATE = PredicateSymbol("F", (STATE, STATE))


def _compile_states(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
    algebra: TraceAlgebra,
    interpretation: Interpretation,
    compile_constraints,
):
    """``(structure map, constraints)`` of one check, or ``None`` and
    the reason the check takes its reference path instead."""
    return compile_or_fallback(
        algebra,
        lambda: (
            StructureMap(information, carriers, algebra, interpretation),
            compile_constraints(information, carriers),
        ),
    )


# ---------------------------------------------------------------------
# (b) static consistency over the reachable states
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class StaticConsistencyReport:
    """Outcome of check (b): every reachable state is valid.

    Attributes:
        ok: True iff no reachable state violates a static constraint.
        states_checked: number of distinct reachable states examined.
        violations: (witness trace, axiom description) pairs.
    """

    ok: bool
    states_checked: int
    violations: tuple[tuple[Term, str], ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return (
                f"every reachable state is valid ({self.states_checked} "
                "states)"
            )
        lines = ["reachable-but-invalid states found:"]
        for trace, axiom in self.violations[:10]:
            lines.append(f"  {trace} violates {axiom}")
        return "\n".join(lines)


def check_static_consistency(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
    algebra: TraceAlgebra,
    interpretation: Interpretation,
    graph: StateGraph | None = None,
) -> StaticConsistencyReport:
    """Check G ⊆ V: every reachable state satisfies every static
    constraint (Section 4.4b).

    Each state's M(snapshot) is checked by the compiled constraints;
    the reference path realizes the witness trace as a structure and
    decides the generic satisfaction relation.
    """
    if graph is None:
        graph = algebra.explore()
    violations: list[tuple[Term, str]] = []
    with _span("static") as obs_span:
        before = engine_counters(algebra.engine)
        compiled, fallback = _compile_states(
            information, carriers, algebra, interpretation, compile_static
        )
        for snapshot, trace in graph.states.items():
            if compiled is not None:
                structure_map, constraints = compiled
                axioms = violated(
                    constraints, (structure_map.extensions(snapshot),)
                )
            else:
                structure = interpretation.structure_of_trace(
                    information, carriers, algebra, trace
                )
                report = check_state(information, structure)
                axioms = [str(axiom) for axiom, _ in report.violations]
            for axiom in axioms:
                violations.append((trace, axiom))
        obs_span.record(
            counter_delta(
                before, engine_counters(algebra.engine), len(graph.states)
            )
        )
        obs_span.count("static.violations", len(violations))
        if fallback is not None:
            obs_span.count(f"static.fallback.{fallback}")
    return StaticConsistencyReport(
        ok=not violations,
        states_checked=len(graph.states),
        violations=tuple(violations),
    )


def prove_static_consistency(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
    algebra: TraceAlgebra,
    interpretation: Interpretation | None = None,
    max_abstract_states: int = 1_000_000,
):
    """Check (b) as the paper actually proves it: by structural
    induction.

    "Consider the set V of all valid states (...)  The set G of
    reachable states is the least set of states containing initiate
    and closed under all the other update functions.  So, in order to
    show that the static constraint is satisfied at the functions
    level, i.e., G ⊆ V, it suffices to show that V contains initiate
    and is closed under all other update functions."  (Section 4.4b)

    The invariant is "the state satisfies every static constraint";
    the step is checked over *every abstract state* satisfying it —
    exactly the closure of V — via
    :func:`repro.algebraic.induction.prove_invariant` on ``algebra``,
    the trace algebra of the functions-level specification (a run
    passes its shared one).  The invariant decides the compiled
    constraints on M(snapshot); the reference realizes the snapshot
    as a structure under I and decides the generic satisfaction
    relation.

    Returns:
        An :class:`~repro.algebraic.induction.InductionReport`; if it
        is ok, G ⊆ V is *proved*, not merely enumerated.
    """
    from repro.algebraic.induction import prove_invariant
    from repro.logic.semantics import satisfies

    spec = algebra.spec
    if interpretation is None:
        interpretation = Interpretation.homonym(
            information, spec.signature
        )
    compiled, fallback = _compile_states(
        information, carriers, algebra, interpretation, compile_static
    )

    if compiled is not None:
        structure_map, constraints = compiled

        def invariant(snapshot) -> bool:
            state = (structure_map.extensions(snapshot),)
            return all(holds(state) for _, holds in constraints)

    else:
        _count(f"induction.invariant_fallback.{fallback}")

        def invariant(snapshot) -> bool:
            structure = interpretation.structure_of_snapshot(
                information, carriers, spec, snapshot
            )
            return all(
                satisfies(structure, axiom)
                for axiom in information.static_constraints
            )

    return prove_invariant(
        algebra, invariant, max_abstract_states=max_abstract_states
    )


# ---------------------------------------------------------------------
# (d) transition consistency over the update edges
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class TransitionConsistencyReport:
    """Outcome of check (d): every single-update transition obeys the
    transition constraints.  (The paper notes that consistency of all
    multi-step transitions then follows by induction.)

    Attributes:
        ok: True iff every edge passed.
        transitions_checked: number of update edges examined.
        violations: offending transitions with the violated axiom.
    """

    ok: bool
    transitions_checked: int
    violations: tuple[tuple[Transition, str], ...] = field(
        default_factory=tuple
    )

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return (
                f"every transition is acceptable "
                f"({self.transitions_checked} update edges)"
            )
        lines = ["unacceptable transitions found:"]
        for transition, axiom in self.violations[:10]:
            lines.append(
                f"  {transition.update}({', '.join(transition.params)}) "
                f"violates {axiom}"
            )
        return "\n".join(lines)


def _edge_violations(
    information, carriers, algebra, interpretation, graph, structures,
    compiled, transition,
) -> list[str]:
    """Violated-axiom strings of one update edge.

    ``structures`` maps each state to its level-1 state: extensions on
    the compiled path, a structure on the reference path.
    """
    if compiled is not None:
        structure_map, constraints = compiled
        after = structures.get(transition.target)
        if after is None:
            # An out-of-horizon target is a snapshot like any other.
            after = structure_map.extensions(transition.target)
        return violated(
            constraints, (structures[transition.source], after)
        )
    before = structures[transition.source]
    after = structures.get(transition.target)
    if after is None:
        # Target beyond the truncation horizon; realize it directly.
        witness = graph.states[transition.source]
        after = interpretation.structure_of_trace(
            information,
            carriers,
            algebra,
            algebra.apply(
                transition.update, *transition.params, trace=witness
            ),
        )
    report = check_transition(information, before, after)
    return [str(axiom) for axiom, _ in report.violations]


def check_transition_consistency(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
    algebra: TraceAlgebra,
    interpretation: Interpretation,
    graph: StateGraph | None = None,
) -> TransitionConsistencyReport:
    """Check (d): every update edge of the reachable state graph is an
    acceptable transition of the information-level theory.

    Every edge is counted and reported, but the transition constraints
    are evaluated once per distinct (source, target) pair of states,
    by the compiled constraints on the two states' M(snapshot); the
    reference path realizes every state as a structure and decides the
    constraints in the two-state universe.
    """
    if graph is None:
        graph = algebra.explore()
    with _span("transitions") as obs_span:
        counters_before = engine_counters(algebra.engine)
        compiled, fallback = _compile_states(
            information, carriers, algebra, interpretation, compile_transition
        )
        # Every state is realized once, up front.
        structures = {
            snapshot: (
                compiled[0].extensions(snapshot)
                if compiled is not None
                else interpretation.structure_of_trace(
                    information, carriers, algebra, trace
                )
            )
            for snapshot, trace in graph.states.items()
        }
        violations: list[tuple[Transition, str]] = []
        # An edge's verdict depends only on its endpoint states, so it
        # is computed once per distinct (source, target) pair and
        # replayed for every edge with that pair.
        verdicts: dict[tuple[Snapshot, Snapshot], list[str]] = {}
        # Walk states in discovery order and chain their outgoing
        # edges via the adjacency index; for breadth-first graphs this
        # replays graph.transitions exactly (edges of a state are
        # contiguous there).
        for snapshot in graph.states:
            for transition in graph.successors(snapshot):
                pair = (transition.source, transition.target)
                axioms = verdicts.get(pair)
                if axioms is None:
                    axioms = verdicts[pair] = _edge_violations(
                        information,
                        carriers,
                        algebra,
                        interpretation,
                        graph,
                        structures,
                        compiled,
                        transition,
                    )
                for axiom in axioms:
                    violations.append((transition, axiom))
        obs_span.record(
            counter_delta(
                counters_before,
                engine_counters(algebra.engine),
                len(graph.transitions),
            )
        )
        obs_span.count("transitions.edges", len(graph.transitions))
        obs_span.count("transitions.edge_checks", len(verdicts))
        obs_span.count("transitions.violations", len(violations))
        if fallback is not None:
            obs_span.count(f"transitions.fallback.{fallback}")
    return TransitionConsistencyReport(
        ok=not violations,
        transitions_checked=len(graph.transitions),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class FirstToSecondReport:
    """The full Section 4.4 verification bundle.

    Attributes:
        completeness: check (a) — sufficient completeness.
        static: check (b) — every reachable state valid.
        inclusion: checks (b) + (c) — G = V comparison.
        transitions: check (d) — transition consistency.
    """

    completeness: CompletenessReport
    static: StaticConsistencyReport
    inclusion: InclusionReport
    transitions: TransitionConsistencyReport

    @property
    def correct(self) -> bool:
        """True iff the refinement is correct: (b) and (d) hold.

        (The paper: "Parts (b) and (d) are equivalent to saying that
        the refinement is correct.")
        """
        return self.static.ok and self.transitions.ok

    @property
    def ok(self) -> bool:
        """True iff all four properties (a)-(d) hold."""
        return (
            self.completeness.ok
            and self.static.ok
            and self.inclusion.ok
            and self.transitions.ok
        )

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        return "\n".join(
            [
                "First-to-second level refinement check (Section 4.4):",
                f"(a) {self.completeness}",
                f"(b) {self.static}",
                f"(c) {self.inclusion}",
                f"(d) {self.transitions}",
                f"=> refinement correct: {self.correct}",
            ]
        )


def check_refinement(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
    algebra: TraceAlgebra,
    interpretation: Interpretation | None = None,
    completeness_depth: int = 2,
    max_states: int = 100_000,
) -> FirstToSecondReport:
    """Run the entire Section 4.4 proof plan mechanically.

    Args:
        information: the level-1 theory T1.
        carriers: finite carriers for T1's sorts (must match the
            algebraic parameter domains).
        algebra: the trace algebra of the level-2 spec T2.
        interpretation: the interpretation I (homonym by default).
        completeness_depth: trace depth for the coverage half of the
            sufficient-completeness check.
        max_states: exploration bound for the state graph.
    """
    if interpretation is None:
        interpretation = Interpretation.homonym(
            information, algebra.signature
        )
    graph = algebra.explore(max_states=max_states)
    completeness = check_sufficient_completeness(
        algebra.spec, depth=completeness_depth
    )
    static = check_static_consistency(
        information, carriers, algebra, interpretation, graph
    )
    inclusion = compare_valid_reachable(
        information, carriers, algebra, interpretation, graph
    )
    transitions = check_transition_consistency(
        information, carriers, algebra, interpretation, graph
    )
    return FirstToSecondReport(completeness, static, inclusion, transitions)


# ---------------------------------------------------------------------
# the syntactic extension of I to wffs (Section 4.3)
# ---------------------------------------------------------------------
def translate_axiom(
    interpretation: Interpretation,
    axiom: fm.Formula,
    state_var: Var | None = None,
) -> fm.Formula:
    """Extend I to map a wff of L1 into a wff of L2 + F.

    Db-predicate atoms become equalities ``I(p)[args, σ] = True``;
    the modal operators become quantifications over F-successors::

        <>P  |->  exists σ'. F(σ, σ') & I(P)[σ']
        []P  |->  forall σ'. F(σ, σ') -> I(P)[σ']

    The result is a first-order formula over L2 extended with the
    reachability predicate :data:`REACHABILITY_PREDICATE`; its free
    state variable is ``state_var`` (default ``sigma``).  This is the
    formula the paper displays in Section 4.4d for the transition
    constraint.
    """
    state_var = state_var or Var("sigma", STATE)
    counter = [0]

    def fresh_state() -> Var:
        counter[0] += 1
        return Var(f"sigma{counter[0]}", STATE)

    def walk(formula: fm.Formula, sigma: Var) -> fm.Formula:
        if isinstance(formula, (fm.TrueF, fm.FalseF)):
            return formula
        if isinstance(formula, fm.Atom):
            try:
                pred = interpretation.of(formula.predicate.name)
            except RefinementError:
                # Non-db predicate: kept unchanged (identity image).
                return formula
            substitution = Substitution(
                dict(zip(pred.variables, formula.args))
            ).bind(pred.state_var, sigma)
            return fm.Equals(
                substitution.apply(pred.term),
                _true_term(pred.term),
            )
        if isinstance(formula, fm.Equals):
            return formula
        if isinstance(formula, fm.Not):
            return fm.Not(walk(formula.body, sigma))
        if isinstance(formula, (fm.And, fm.Or, fm.Implies, fm.Iff)):
            return type(formula)(
                walk(formula.lhs, sigma), walk(formula.rhs, sigma)
            )
        if isinstance(formula, (fm.Forall, fm.Exists)):
            return type(formula)(formula.var, walk(formula.body, sigma))
        if isinstance(formula, Possibly):
            successor = fresh_state()
            return fm.Exists(
                successor,
                fm.And(
                    fm.Atom(REACHABILITY_PREDICATE, (sigma, successor)),
                    walk(formula.body, successor),
                ),
            )
        if isinstance(formula, Necessarily):
            successor = fresh_state()
            return fm.Forall(
                successor,
                fm.Implies(
                    fm.Atom(REACHABILITY_PREDICATE, (sigma, successor)),
                    walk(formula.body, successor),
                ),
            )
        raise TypeError(f"cannot translate {formula!r}")

    return walk(axiom, state_var)


def _true_term(example: Term) -> Term:
    """Build the Boolean constant True compatible with ``example``'s
    signature (the interpretation terms are Boolean by construction)."""
    from repro.logic.signature import FunctionSymbol
    from repro.logic.sorts import BOOLEAN
    from repro.logic.terms import App

    return App(FunctionSymbol("True", (), BOOLEAN), ())
