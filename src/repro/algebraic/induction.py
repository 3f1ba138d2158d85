"""Structural induction over abstract states.

Paper, Section 4.1: finitely generated algebras let us "employ the
principle of structural induction (on terms) as a proof rule", and the
Section 4.4b proof applies it in a particular shape: to show every
reachable state is valid, "it suffices to show that V contains
initiate and is closed under all other update functions" — closure of
the *predicate*, quantified over arbitrary states satisfying it, not
merely over states already reached.

This module mechanizes exactly that proof rule.  Because every
Q-equation's right-hand side and condition refer to queries **at the
predecessor state only**, the successor snapshot is a function of the
current snapshot alone — so updates act on *abstract* states (snapshot
vectors), whether or not any trace realizes them.  An invariant
``P`` is proved by:

* **base**: the initial snapshot satisfies P;
* **step**: for every abstract snapshot satisfying P (enumerated over
  the full observation-value space) and every update instance, the
  abstract successor satisfies P.

A successful check is a genuine induction proof of "P holds in every
reachable state" — stronger evidence than reachability enumeration,
because the step is verified on all P-states, including unreachable
ones (if the step fails only on unreachable states, the invariant is
simply not inductive and must be strengthened, the classic
invariant-strengthening situation).

Both halves are statements about distinct abstract states, so the
proof does their work once per state: P is evaluated once per
snapshot, and the step applies the compiled update plans of
:class:`~repro.algebraic.exploration.PackedExplorer` to value rows.
:func:`abstract_successor` stays the reference step (see
:func:`prove_invariant` for when it runs)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import SpecificationError
from repro.algebraic.algebra import Snapshot, TraceAlgebra
from repro.algebraic.rewriting import RewriteEngine
from repro.algebraic.spec import AlgebraicSpec
from repro.logic.sorts import BOOLEAN, STATE
from repro.logic.terms import App, Term, Var
from repro.obs.tracer import count as _count

__all__ = [
    "AbstractState",
    "abstract_successor",
    "all_snapshots",
    "make_abstract_engine",
    "InductionReport",
    "prove_invariant",
]


@dataclass(frozen=True)
class AbstractState(Term):
    """A state-sorted term standing for "any state with this
    snapshot"; resolved by the rewrite engine's state oracle."""

    snapshot: Snapshot

    @property
    def sort(self):
        """The sort of the term."""
        return STATE

    def free_vars(self) -> frozenset[Var]:
        """The set of variables occurring in the term."""
        return frozenset()

    def subterms(self) -> Iterator[Term]:
        """Yield the term itself and every subterm, pre-order."""
        yield self

    def depth(self) -> int:
        """Height of the term tree."""
        return 1

    def size(self) -> int:
        """Total number of nodes in the term tree."""
        return 1

    def __str__(self) -> str:
        return f"<abstract {self.snapshot}>"


def _oracle(query: str, params: tuple, state_term: Term):
    if isinstance(state_term, AbstractState):
        return state_term.snapshot.value(query, tuple(params))
    return None


def make_abstract_engine(spec: AlgebraicSpec) -> RewriteEngine:
    """A rewrite engine that can evaluate queries on
    :class:`AbstractState` terms (snapshot-valued states)."""
    return RewriteEngine(spec, state_oracle=_oracle)


_engine = make_abstract_engine


def abstract_successor(
    spec: AlgebraicSpec,
    snapshot: Snapshot,
    update: str,
    params: tuple[str, ...],
    engine: RewriteEngine | None = None,
) -> Snapshot:
    """The snapshot after applying ``update(params)`` to *any* state
    whose snapshot is ``snapshot``, over the same cells.

    Well-defined because Q-equation right-hand sides and conditions
    only query the predecessor state (the structural-decrease property
    checked by :func:`repro.algebraic.completeness.check_termination`).
    """
    engine = engine or _engine(spec)
    signature = spec.signature
    symbol = signature.update(update)
    args = [
        signature.value(sort, value)
        for sort, value in zip(symbol.arg_sorts[:-1], params)
    ]
    successor_term = App(symbol, (*args, AbstractState(snapshot)))
    entries = []
    for cell, _ in snapshot.entries:
        name, values = cell
        query_symbol = signature.query(name)
        value_terms = [
            signature.value(sort, value)
            for sort, value in zip(query_symbol.arg_sorts[:-1], values)
        ]
        observation = App(query_symbol, (*value_terms, successor_term))
        entries.append((cell, engine.evaluate(observation)))
    return Snapshot(tuple(entries))


def all_snapshots(algebra: TraceAlgebra) -> Iterator[Snapshot]:
    """Every abstract snapshot over the observation-value space, keyed
    by ``algebra``'s observations.

    Boolean observations range over {False, True}; observations of a
    parameter result sort range over that sort's domain.  The count is
    exponential in the number of observations — intended for the small
    carriers of bounded verification.
    """
    signature = algebra.signature
    cells = algebra.observations
    spaces: list[tuple] = []
    for name, _ in cells:
        result_sort = signature.query(name).result_sort
        if result_sort == BOOLEAN:
            spaces.append((False, True))
        else:
            spaces.append(tuple(signature.domain(result_sort)))
    for combination in itertools.product(*spaces):
        yield Snapshot(tuple(zip(cells, combination)))


@dataclass(frozen=True)
class InductionReport:
    """Outcome of an inductive invariant proof attempt.

    Attributes:
        ok: True iff base and step both hold — the invariant is
            *proved* for all reachable states.
        base_ok: the initial snapshot satisfies the invariant.
        step_ok: the invariant is closed under every update on every
            abstract P-state.
        states_examined: number of abstract P-states the step checked.
        counterexamples: (snapshot, update, params, successor) step
            failures (the snapshot may be unreachable; then the
            invariant is not inductive and needs strengthening).
    """

    ok: bool
    base_ok: bool
    step_ok: bool
    states_examined: int
    counterexamples: tuple[
        tuple[Snapshot, str, tuple[str, ...], Snapshot], ...
    ] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return (
                "invariant PROVED by structural induction "
                f"(step checked on {self.states_examined} abstract "
                "states)"
            )
        lines = ["induction FAILED:"]
        if not self.base_ok:
            lines.append("  base: the initial state violates the invariant")
        for snapshot, update, params, successor in (
            self.counterexamples[:5]
        ):
            lines.append(
                f"  step: {update}({', '.join(params)}) maps P-state "
                f"{snapshot} to non-P-state {successor}"
            )
        return "\n".join(lines)


def prove_invariant(
    algebra: TraceAlgebra,
    invariant: Callable[[Snapshot], bool],
    max_abstract_states: int = 1_000_000,
) -> InductionReport:
    """Prove ``invariant`` for all reachable states by structural
    induction on traces (the Section 4.4b proof rule).

    The invariant must be a *pure* predicate on snapshots: it is
    evaluated once per distinct snapshot, and that verdict is reused
    every time the snapshot comes up again, as a P-state or as a step
    successor.

    Step successors come from the compiled update plans (the programs
    ``repro serve`` runs) of the algebra's packed explorer, the one
    exploration and the trace table use, applied to each snapshot's
    value row; while coverage records, they record the equation each
    cell fires, as the reference's rewriting would.
    :func:`abstract_successor`, object rewriting over
    :class:`AbstractState` terms, remains the reference and computes
    the step instead when the algebra is not ``packed``, when the
    specification is outside the plan fragment, and after a plan
    fails mid-proof: the whole proof then reruns on it, so a dispatch
    gap surfaces as the object path's exact ``IncompletenessError``.
    Each counts ``induction.fallback.<reason>``: ``disabled``,
    ``outside_fragment`` or ``dispatch_gap``.

    Args:
        algebra: the trace algebra of the specification (which must
            be structurally terminating, so successors are
            snapshot-determined); every snapshot is keyed by its
            observations.
        invariant: pure predicate on snapshots.
        max_abstract_states: safety bound on the abstract state space.

    Raises:
        SpecificationError: if the abstract space exceeds the bound.
    """
    # Imported here: exploration imports the pipeline package, which
    # imports this module.
    from repro.algebraic.exploration import PackedUnsupported

    spec = algebra.spec
    updates = list(algebra.update_instances())
    verdicts: dict[Snapshot, bool] = {}

    def holds(snapshot: Snapshot) -> bool:
        verdict = verdicts.get(snapshot)
        if verdict is None:
            verdict = verdicts[snapshot] = bool(invariant(snapshot))
        return verdict

    base_ok = holds(algebra.snapshot(algebra.initial_trace()))
    steps = {"packed": 0, "object": 0}
    explorer, fallback = _plan_explorer(algebra)
    report = None
    if explorer is not None:
        try:
            report = _induct(
                algebra,
                holds,
                base_ok,
                updates,
                _plan_step(explorer, steps),
                max_abstract_states,
            )
        except PackedUnsupported:
            fallback = "dispatch_gap"
    if report is None:
        report = _induct(
            algebra,
            holds,
            base_ok,
            updates,
            _object_step(spec, updates, steps),
            max_abstract_states,
        )
    _count("induction.invariant_evals", len(verdicts))
    _count("induction.packed_steps", steps["packed"])
    _count("induction.object_steps", steps["object"])
    if fallback is not None:
        _count(f"induction.fallback.{fallback}")
    return report


def _plan_explorer(algebra: TraceAlgebra):
    """The algebra's packed explorer, whose plans compute the step, or
    ``None`` with the reason the proof takes the object step instead
    (checked in the order of :meth:`TraceAlgebra._explore_packed`)."""
    if not algebra.packed:
        return None, "disabled"
    explorer = algebra.packed_explorer()
    if explorer is None:
        return None, "outside_fragment"
    return explorer, None


def _plan_step(explorer, steps: dict[str, int]):
    """Successors by the explorer's compiled plans, over value rows."""
    cells = explorer.cells
    instances = explorer.instances
    apply_instance = explorer.applier()

    def successors(snapshot: Snapshot) -> Iterator[Snapshot]:
        row = tuple(value for _, value in snapshot.entries)
        get = dict(snapshot.entries).__getitem__
        for instance in instances:
            steps["packed"] += 1
            target = apply_instance(instance, row, get)
            if target is row:
                yield snapshot
            else:
                yield Snapshot(tuple(zip(cells, target)))

    return successors


def _object_step(
    spec: AlgebraicSpec,
    updates: list[tuple[str, tuple[str, ...]]],
    steps: dict[str, int],
):
    """Successors by :func:`abstract_successor`, the reference step."""
    engine = _engine(spec)

    def successors(snapshot: Snapshot) -> Iterator[Snapshot]:
        for update, params in updates:
            steps["object"] += 1
            yield abstract_successor(
                spec, snapshot, update, params, engine
            )

    return successors


def _induct(
    algebra: TraceAlgebra,
    holds: Callable[[Snapshot], bool],
    base_ok: bool,
    updates: list[tuple[str, tuple[str, ...]]],
    successors: Callable[[Snapshot], Iterator[Snapshot]],
    max_abstract_states: int,
) -> InductionReport:
    """The step of :func:`prove_invariant` over every abstract P-state,
    with ``successors`` yielding one successor per update instance."""
    counterexamples = []
    examined = 0
    for index, snapshot in enumerate(all_snapshots(algebra)):
        if index >= max_abstract_states:
            raise SpecificationError(
                "abstract state space exceeds max_abstract_states; "
                "shrink the domains"
            )
        if not holds(snapshot):
            continue
        examined += 1
        for (update, params), successor in zip(
            updates, successors(snapshot)
        ):
            if not holds(successor):
                counterexamples.append(
                    (snapshot, update, params, successor)
                )
                if len(counterexamples) >= 10:
                    return InductionReport(
                        False,
                        base_ok,
                        False,
                        examined,
                        tuple(counterexamples),
                    )
    step_ok = not counterexamples
    return InductionReport(
        ok=base_ok and step_ok,
        base_ok=base_ok,
        step_ok=step_ok,
        states_examined=examined,
        counterexamples=tuple(counterexamples),
    )
