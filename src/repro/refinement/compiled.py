"""Level-1 states and constraints compiled once per check.

The reference path of the Section 4.4 checks (b), (c), (d) and the
induction invariant realizes a state as the level-1 structure
M(state) — the extension of each db-predicate ``p`` is the set of
carrier tuples on which I(p) holds
(:meth:`~repro.refinement.interpretation.Interpretation.structure_of_trace`)
— and decides the generic satisfaction relation on it.  This module
compiles both halves once per check:

* :class:`StructureMap` compiles every ground instance of I(p) over
  the carriers with :func:`~repro.algebraic.compiler.compile_ground_term`
  into a closure over snapshot cells, so M(snapshot) is read off the
  snapshot instead of rewriting a witness trace;
* :func:`compile_static` and :func:`compile_transition` compile each
  axiom with :func:`~repro.algebraic.compiler.compile_ground_formula`
  into a closure over extensions.  Quantifiers range over the carriers
  and atoms test membership in an extension, as in a
  :class:`~repro.logic.structures.Structure`; a transition constraint
  is compiled at both states of the two-state universe of
  :func:`~repro.information.consistency.check_transition`.

The closures read M(snapshot), never raw cells, so a cell value
outside the carriers is judged exactly as the structure judges it.
Anything outside the compilable fragment raises
:class:`~repro.algebraic.compiler.UnsupportedTermError`, and the
caller takes its reference path.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, TypeVar

from repro.algebraic.algebra import Snapshot, TraceAlgebra
from repro.algebraic.compiler import (
    UnsupportedTermError,
    _combine,
    _junction,
    compile_ground_formula,
    compile_ground_term,
)
from repro.information.spec import InformationSpec
from repro.logic import formulas as fm
from repro.logic.sorts import Sort
from repro.logic.structures import Structure
from repro.logic.terms import App, Term, Var
from repro.refinement.interpretation import Interpretation
from repro.temporal.formulas import Necessarily, Possibly, is_modal

__all__ = [
    "Constraint",
    "Extensions",
    "StructureMap",
    "compile_or_fallback",
    "compile_static",
    "compile_transition",
    "violated",
]

#: A level-1 state: one extension per db-predicate, in the order of
#: ``information.db_predicates``.
Extensions = tuple[frozenset[tuple[str, ...]], ...]

#: A compiled axiom: its text and a closure deciding it on a tuple of
#: states — ``(state,)`` for a static constraint, ``(before, after)``
#: for a transition constraint.
Constraint = tuple[str, Callable[[tuple[Extensions, ...]], bool]]

#: Accessibility of the two-state universe, reflexively closed: state
#: 0 is ``before``, state 1 is ``after``.
_REACH = ((0, 1), (1,))

_CONNECTIVES = {
    fm.And: "and",
    fm.Or: "or",
    fm.Implies: "implies",
    fm.Iff: "iff",
}

T = TypeVar("T")


def compile_or_fallback(
    algebra: TraceAlgebra, build: Callable[[], T]
) -> tuple[T | None, str | None]:
    """``(build(), None)``, or ``None`` and the reason the check takes
    its reference path: ``disabled`` when ``algebra`` is not
    ``packed``, or ``outside_fragment``."""
    if not algebra.packed:
        return None, "disabled"
    try:
        return build(), None
    except UnsupportedTermError:
        return None, "outside_fragment"


class StructureMap:
    """M(snapshot), from every ground instance of I(p) over the
    carriers compiled once into a closure over snapshot cells.

    Raises:
        UnsupportedTermError: if an instance falls outside the
            compilable fragment or reads a cell outside
            ``algebra.observations``.
        SignatureError: if a carrier value is not declared by the
            algebra's signature (as when the reference realizes I(p)).
    """

    def __init__(
        self,
        information: InformationSpec,
        carriers: dict[Sort, list[str]],
        algebra: TraceAlgebra,
        interpretation: Interpretation,
    ):
        signature = algebra.signature
        observed = frozenset(algebra.observations)
        self._instances: list[list[tuple[tuple[str, ...], Callable]]] = []
        for predicate in information.db_predicates:
            interp = interpretation.of(predicate.name)
            instances = []
            domains = [carriers[sort] for sort in predicate.arg_sorts]
            for params in itertools.product(*domains):
                # An undeclared carrier value raises here, as in
                # Interpretation.realize.
                for var, value in zip(interp.variables, params):
                    signature.value(var.sort, value)
                closure, reads = compile_ground_term(
                    interp.term,
                    dict(zip(interp.variables, params)),
                    signature,
                )
                if not reads <= observed:
                    raise UnsupportedTermError(
                        f"I({predicate.name}) reads cells outside the "
                        "observations"
                    )
                instances.append((params, closure))
            self._instances.append(instances)

    def extensions(self, snapshot: Snapshot) -> Extensions:
        """The extensions of M(snapshot)."""
        get = dict(snapshot.entries).__getitem__
        return tuple(
            frozenset(params for params, holds in instances if holds(get))
            for instances in self._instances
        )


def compile_static(
    information: InformationSpec, carriers: dict[Sort, list[str]]
) -> list[Constraint]:
    """Each static constraint, decided on ``(state,)``."""
    compiler = _Compiler(information, carriers)
    return [
        (str(axiom), compiler.at(axiom, {}, 0)[0])
        for axiom in information.static_constraints
    ]


def compile_transition(
    information: InformationSpec, carriers: dict[Sort, list[str]]
) -> list[Constraint]:
    """Each transition constraint, decided on ``(before, after)``: it
    must hold at both states of the two-state universe."""
    compiler = _Compiler(information, carriers)
    constraints = []
    for axiom in information.transition_constraints:
        at_before, before_reads = compiler.at(axiom, {}, 0)
        at_after, after_reads = compiler.at(axiom, {}, 1)
        both, _ = _combine(
            "and", at_before, before_reads, at_after, after_reads
        )
        constraints.append((str(axiom), both))
    return constraints


def violated(
    constraints: list[Constraint], states: tuple[Extensions, ...]
) -> list[str]:
    """The texts of the constraints failing on ``states``, in
    declaration order."""
    return [text for text, holds in constraints if not holds(states)]


class _Compiler:
    """Compiles level-1 axioms into closures over a tuple of states."""

    def __init__(
        self,
        information: InformationSpec,
        carriers: dict[Sort, list[str]],
    ):
        # Quantifiers range over the carriers exactly as in a Structure.
        self._carrier = Structure(information.signature, carriers).carrier
        self._index = {
            predicate.name: k
            for k, predicate in enumerate(information.db_predicates)
        }

    def at(self, formula: fm.Formula, env: dict[Var, str], state: int):
        """``formula`` at ``state`` of the two-state universe, as
        ``(closure, reads)``; modal-free parts go to
        :func:`compile_ground_formula`."""
        if not is_modal(formula):
            return compile_ground_formula(
                formula,
                env,
                self._carrier,
                partial(self._atom, state),
                self._equals,
            )
        if isinstance(formula, (Possibly, Necessarily)):
            return self._junction_of(
                [(formula.body, env, j) for j in _REACH[state]],
                isinstance(formula, Necessarily),
            )
        if isinstance(formula, fm.Not):
            body, reads = self.at(formula.body, env, state)
            return (lambda states: not body(states)), reads
        if type(formula) in _CONNECTIVES:
            return _combine(
                _CONNECTIVES[type(formula)],
                *self.at(formula.lhs, env, state),
                *self.at(formula.rhs, env, state),
            )
        if isinstance(formula, (fm.Forall, fm.Exists)):
            return self._junction_of(
                [
                    (formula.body, {**env, formula.var: value}, state)
                    for value in self._carrier(formula.var.sort)
                ],
                isinstance(formula, fm.Forall),
            )
        raise UnsupportedTermError(f"cannot compile {formula}")

    def _junction_of(self, branches, conjunctive: bool):
        parts = [self.at(*branch) for branch in branches]
        reads = set().union(*(reads for _, reads in parts))
        return _junction([closure for closure, _ in parts], reads, conjunctive)

    def _atom(self, state: int, atom: fm.Atom, env: dict[Var, str]):
        name = atom.predicate.name
        if name not in self._index:
            # A structure leaves every other predicate empty; such an
            # atom is left to the reference path.
            raise UnsupportedTermError(f"{name} is not a db-predicate")
        k = self._index[name]
        args = tuple(_value(arg, env) for arg in atom.args)
        return (
            lambda states: args in states[state][k]
        ), frozenset({(state, name, args)})

    def _equals(self, equals: fm.Equals, env: dict[Var, str]):
        value = _value(equals.lhs, env) == _value(equals.rhs, env)
        return (lambda states: value), frozenset()


def _value(term: Term, env: dict[Var, str]) -> str:
    """A term's value as a structure evaluates it: a bound variable's
    value, or a constant's own name."""
    if isinstance(term, Var) and term in env:
        return env[term]
    if isinstance(term, App) and not term.args:
        return term.symbol.name
    raise UnsupportedTermError(f"{term} is not a variable or constant")
