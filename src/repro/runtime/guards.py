"""Admission guards: verified constraints as runtime checks.

The information level states *what* a consistent database is (static
constraints) and which steps are acceptable (transition constraints,
Section 4.4 b/d); verification established that the algebraic level
respects them.  The serving runtime makes the constraints operational:
each axiom is grounded over the application's carriers into
**instances** — one per outer-∀ binding — and each instance is
compiled, through the refinement interpretation I (db-predicate →
L2 Boolean term), into a closure over store cells plus its static read
set (:mod:`repro.algebraic.compiler`).

Admission is then O(delta): instances are indexed by the cells they
read, and an update only re-checks the instances whose reads intersect
its write set.  The skip is sound by induction:

* a **static** instance whose reads are disjoint from the delta
  evaluates identically before and after, and it held before;
* a **transition** instance is compiled in the same two-state universe
  as :func:`repro.information.consistency.check_transition` (reflexive
  closure of ``{(before, after)}``, checked at both states).  If its
  reads miss the delta it evaluates as on the identity step
  ``(before, before)``, and the identity step held by induction: it is
  checked once at startup (:meth:`AdmissionGuard.check_now`) and
  re-established at every admitted step by the at-``after`` half of
  the two-state check.

A failing instance is reported as a :class:`GuardViolation` — a
provenance-style witness naming the axiom, the carrier binding of the
failing instance, and the cells it read.

On top of the instance index sits a second compilation stage:
**decision tables**.  Every cell ranges over a small finite domain
(Boolean, or the query's declared result domain), so instances sharing
a read set are conjoined and evaluated over *every* valuation of those
cells once, at compile time.  The admission hot path then performs a
single tuple-membership test per read-set group instead of re-running
the instance closures; groups that hold under every valuation are
tautologies of the cell representation (e.g. totality/functionality of
a stored function) and are dropped entirely.  Instance closures remain
the source of truth for witnesses and for :meth:`check_now`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import ServingError
from repro.algebraic.compiler import (
    Cell,
    Getter,
    UnsupportedTermError,
    _combine,
    _const,
    _junction,
    compile_ground_formula,
    compile_ground_term,
)
from repro.algebraic.spec import AlgebraicSpec
from repro.information.spec import InformationSpec
from repro.logic import formulas as fm
from repro.logic.sorts import BOOLEAN, Sort
from repro.logic.terms import App, Term, Var
from repro.refinement.interpretation import Interpretation
from repro.temporal.formulas import Necessarily, Possibly, is_modal

__all__ = ["AdmissionGuard", "GuardViolation"]

#: Accessibility of the two-state step universe, reflexively closed —
#: state 0 is ``before``, state 1 is ``after``; mirrors
#: ``transition_pair(before, after).reflexive_closure()``.
_REACH = ((0, 1), (1,))

#: Valuation-count cap for decision-table compilation; a read-set
#: group whose valuation space is larger keeps its closures instead.
_TABLE_LIMIT = 4096


@dataclass(frozen=True)
class GuardViolation:
    """Witness of one rejected update.

    Attributes:
        kind: ``"precondition"``, ``"static"`` or ``"transition"``.
        constraint: the violated axiom (or precondition), printed.
        binding: carrier values of the failing instance's outer-∀
            variables (empty for preconditions).
        cells: the store cells the failing check read — the
            provenance of the rejection.
    """

    kind: str
    constraint: str
    binding: tuple[tuple[str, str], ...] = ()
    cells: tuple[Cell, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready form (used by the server's error responses)."""
        return {
            "kind": self.kind,
            "constraint": self.constraint,
            "binding": dict(self.binding),
            "cells": [
                [query, list(params)] for query, params in self.cells
            ],
        }

    def __str__(self) -> str:
        where = (
            " at " + ", ".join(f"{k}={v}" for k, v in self.binding)
            if self.binding
            else ""
        )
        return f"{self.kind} violation{where}: {self.constraint}"


@dataclass(frozen=True)
class _Instance:
    """One grounded constraint instance with its compiled check."""

    axiom: fm.Formula
    kind: str
    binding: tuple[tuple[str, str], ...]
    closure: Callable
    reads: frozenset[Cell] = field(default_factory=frozenset)

    def violation(self) -> GuardViolation:
        return GuardViolation(
            self.kind,
            str(self.axiom),
            self.binding,
            tuple(sorted(self.reads)),
        )


@dataclass(frozen=True)
class _Table:
    """All instances sharing one read set, as a decision table.

    Attributes:
        cells: the read cells, in a fixed order.
        allowed: for a static table, the set of permitted value tuples
            (one value per cell); for a transition table, the set of
            permitted ``(before tuple, after tuple)`` pairs.  ``None``
            when the valuation space exceeded :data:`_TABLE_LIMIT` —
            the hot path then falls back to ``members``.
        members: the underlying instances (witness lookup, fallback).
    """

    cells: tuple[Cell, ...]
    allowed: frozenset | None
    members: tuple[_Instance, ...]

    def static_witness(self, get: Getter) -> GuardViolation:
        """The violation of the first member failing on ``get``."""
        for instance in self.members:
            if not instance.closure(get):
                return instance.violation()
        return self.members[0].violation()

    def transition_witness(self, gets) -> GuardViolation:
        """The violation of the first member failing on the step."""
        for instance in self.members:
            if not instance.closure(gets):
                return instance.violation()
        return self.members[0].violation()


class AdmissionGuard:
    """Per-update admission checks for one verified application.

    Args:
        information: the level-1 specification whose axioms guard
            admission.
        spec: the algebraic specification serving the store (its
            signature interprets the compiled L2 terms).
        carriers: finite carrier sets, by sort, used to ground the
            axioms (the same carriers verification used).
        interpretation: the refinement interpretation I; defaults to
            the homonym interpretation.

    Raises:
        ServingError: if an axiom falls outside the compilable
            fragment (the shipped applications are all inside it).
    """

    def __init__(
        self,
        information: InformationSpec,
        spec: AlgebraicSpec,
        carriers: dict[Sort, list[str]],
        interpretation: Interpretation | None = None,
    ):
        self.information = information
        self.spec = spec
        self.signature = spec.signature
        self.carriers = {
            sort: list(values) for sort, values in carriers.items()
        }
        self.interpretation = interpretation or Interpretation.homonym(
            information, spec.signature
        )
        self._static: list[_Instance] = []
        self._transition: list[_Instance] = []
        self._static_by_cell: dict[Cell, list[_Instance]] = {}
        self._transition_by_cell: dict[Cell, list[_Instance]] = {}
        self._static_tables: list[_Table] = []
        self._transition_tables: list[_Table] = []
        self._static_tables_by_cell: dict[Cell, list[_Table]] = {}
        self._transition_tables_by_cell: dict[Cell, list[_Table]] = {}
        try:
            self._compile_axioms()
            self._build_tables()
        except UnsupportedTermError as exc:
            raise ServingError(
                f"cannot compile admission guards: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _domain_of(self, sort: Sort) -> Iterable[str]:
        values = self.carriers.get(sort)
        if values is not None:
            return values
        return self.signature.domain(sort)

    def _resolve_arg(self, term: Term, env: dict[Var, str]) -> str:
        if isinstance(term, Var):
            try:
                return env[term]
            except KeyError:
                raise UnsupportedTermError(
                    f"unbound variable {term} in guard atom"
                ) from None
        if isinstance(term, App) and not term.args:
            return term.symbol.name
        raise UnsupportedTermError(
            f"guard atom argument {term} is not a variable or constant"
        )

    def _atom_hook(self, atom: fm.Atom, env: dict[Var, str]):
        """Compile a db-predicate atom through the interpretation I."""
        values = tuple(
            self._resolve_arg(arg, env) for arg in atom.args
        )
        interp = self.interpretation.of(atom.predicate.name)
        inner_env: dict[Var, str] = dict(
            zip(interp.variables, values)
        )
        return compile_ground_term(
            interp.term, inner_env, self.signature
        )

    def _compile_axioms(self) -> None:
        for axiom in self.information.static_constraints:
            for binding, body in self._peel(axiom):
                closure, reads = compile_ground_formula(
                    body,
                    {var: value for var, value in binding},
                    domain_of=self._domain_of,
                    atom_hook=self._atom_hook,
                )
                if not reads and closure(None):
                    continue  # instance folded to True: unfalsifiable
                instance = _Instance(
                    axiom,
                    "static",
                    tuple((v.name, value) for v, value in binding),
                    closure,
                    frozenset(reads),
                )
                self._static.append(instance)
                for cell in instance.reads:
                    self._static_by_cell.setdefault(cell, []).append(
                        instance
                    )
        for axiom in self.information.transition_constraints:
            for binding, body in self._peel(axiom):
                env = {var: value for var, value in binding}
                # holds_at_every_state: the constraint must hold
                # evaluated at *both* universe states.
                at_before, before_reads = self._compile_modal(
                    body, env, 0
                )
                at_after, after_reads = self._compile_modal(
                    body, env, 1
                )
                both, reads = _combine(
                    "and", at_before, before_reads, at_after,
                    after_reads,
                )
                if not reads and both(None):
                    continue  # instance folded to True: unfalsifiable
                instance = _Instance(
                    axiom,
                    "transition",
                    tuple((v.name, value) for v, value in binding),
                    both,
                    frozenset(reads),
                )
                self._transition.append(instance)
                for cell in instance.reads:
                    self._transition_by_cell.setdefault(
                        cell, []
                    ).append(instance)

    # ------------------------------------------------------------------
    # decision tables
    # ------------------------------------------------------------------
    def _cell_values(self, cell: Cell) -> tuple:
        """Every value the cell can hold: Boolean queries store
        ``False``/``True``, others their result sort's domain."""
        sort = self.signature.query(cell[0]).result_sort
        if sort == BOOLEAN:
            return (False, True)
        return tuple(self._domain_of(sort))

    def _build_tables(self) -> None:
        """Conjoin instances by read set into decision tables and
        drop read-set groups holding under every valuation (see the
        module docstring); rebuilds the instance index without the
        dropped tautologies."""
        self._static, self._static_tables, static = self._tabulate(
            self._static, transition=False
        )
        self._transition, self._transition_tables, transition = (
            self._tabulate(self._transition, transition=True)
        )
        #: Read-set groups per constraint kind: ``tabulated`` into a
        #: decision table, kept as ``closures`` (valuation space over
        #: :data:`_TABLE_LIMIT`) or dropped as ``tautologies``.
        self.table_counts = {"static": static, "transition": transition}
        self._static_by_cell = _index_by_cell(self._static)
        self._transition_by_cell = _index_by_cell(self._transition)
        self._static_tables_by_cell = _index_by_cell(
            self._static_tables
        )
        self._transition_tables_by_cell = _index_by_cell(
            self._transition_tables
        )

    def _tabulate(
        self, instances: list[_Instance], transition: bool
    ) -> tuple[list[_Instance], list[_Table], dict[str, int]]:
        groups: dict[frozenset[Cell], list[_Instance]] = {}
        for instance in instances:
            groups.setdefault(instance.reads, []).append(instance)
        kept: list[_Instance] = []
        tables: list[_Table] = []
        tally = {"tabulated": 0, "closures": 0, "tautologies": 0}
        for reads, members in groups.items():
            cells = tuple(sorted(reads))
            domains = [self._cell_values(cell) for cell in cells]
            space = 1
            for domain in domains:
                space *= len(domain)
            if transition:
                space *= space
            if not (0 < space <= _TABLE_LIMIT):
                tally["closures"] += 1
                kept.extend(members)
                tables.append(
                    _Table(cells, None, tuple(members))
                )
                continue
            valuations = list(itertools.product(*domains))
            allowed = set()
            if transition:
                getters = [
                    dict(zip(cells, values)).__getitem__
                    for values in valuations
                ]
                for i, before_values in enumerate(valuations):
                    for j, after_values in enumerate(valuations):
                        gets = (getters[i], getters[j])
                        if all(
                            m.closure(gets) for m in members
                        ):
                            allowed.add(
                                (before_values, after_values)
                            )
            else:
                for values in valuations:
                    get = dict(zip(cells, values)).__getitem__
                    if all(m.closure(get) for m in members):
                        allowed.add(values)
            if len(allowed) == space:
                tally["tautologies"] += 1
                continue  # tautology of the cell representation
            tally["tabulated"] += 1
            kept.extend(members)
            tables.append(
                _Table(cells, frozenset(allowed), tuple(members))
            )
        return kept, tables, tally

    def _peel(self, axiom: fm.Formula):
        """Ground an axiom's outer-∀ prefix over the carriers, yielding
        ``(binding, body)`` instances."""
        prefix: list[Var] = []
        body = axiom
        while isinstance(body, fm.Forall):
            prefix.append(body.var)
            body = body.body
        if not prefix:
            yield (), body
            return
        domains = [tuple(self._domain_of(v.sort)) for v in prefix]
        for values in itertools.product(*domains):
            yield tuple(zip(prefix, values)), body

    def _compile_modal(
        self, formula: fm.Formula, env: dict[Var, str], idx: int
    ):
        """Compile a (possibly modal) formula at universe state ``idx``
        into a closure over ``gets = (get_before, get_after)``."""
        if isinstance(formula, (Possibly, Necessarily)):
            conjunctive = isinstance(formula, Necessarily)
            parts = []
            reads: set[Cell] = set()
            for j in _REACH[idx]:
                closure, sub_reads = self._compile_modal(
                    formula.body, env, j
                )
                if not sub_reads:
                    constant = bool(closure(None))
                    if constant != conjunctive:
                        return _const(constant), frozenset()
                    continue
                parts.append(closure)
                reads |= sub_reads
            closure, reads = _junction(parts, reads, conjunctive)
            return closure, frozenset(reads)
        if isinstance(formula, fm.TrueF):
            return _const(True), frozenset()
        if isinstance(formula, fm.FalseF):
            return _const(False), frozenset()
        if isinstance(formula, fm.Atom):
            closure, reads = self._atom_hook(formula, env)
            if not reads:
                return _const(bool(closure(None))), frozenset()
            return (lambda gets: closure(gets[idx])), reads
        if isinstance(formula, fm.Equals):
            value = self._resolve_arg(
                formula.lhs, env
            ) == self._resolve_arg(formula.rhs, env)
            return _const(value), frozenset()
        if isinstance(formula, fm.Not):
            body, reads = self._compile_modal(formula.body, env, idx)
            if not reads:
                return _const(not body(None)), frozenset()
            return (lambda gets: not body(gets)), reads
        if isinstance(
            formula, (fm.And, fm.Or, fm.Implies, fm.Iff)
        ):
            lhs, lreads = self._compile_modal(formula.lhs, env, idx)
            rhs, rreads = self._compile_modal(formula.rhs, env, idx)
            name = {
                fm.And: "and",
                fm.Or: "or",
                fm.Implies: "implies",
                fm.Iff: "iff",
            }[type(formula)]
            closure, reads = _combine(name, lhs, lreads, rhs, rreads)
            return closure, frozenset(reads)
        if isinstance(formula, (fm.Forall, fm.Exists)):
            var = formula.var
            conjunctive = isinstance(formula, fm.Forall)
            parts = []
            reads: set[Cell] = set()
            for value in self._domain_of(var.sort):
                inner = dict(env)
                inner[var] = value
                closure, sub_reads = self._compile_modal(
                    formula.body, inner, idx
                )
                if not sub_reads:
                    constant = bool(closure(None))
                    if constant != conjunctive:
                        return _const(constant), frozenset()
                    continue
                parts.append(closure)
                reads |= sub_reads
            closure, reads = _junction(parts, reads, conjunctive)
            return closure, frozenset(reads)
        if is_modal(formula):
            raise UnsupportedTermError(
                f"unsupported modal construct {formula!r}"
            )
        raise UnsupportedTermError(
            f"cannot compile guard formula {formula!r}"
        )

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    @property
    def static_tables(self) -> tuple[_Table, ...]:
        """The static decision tables (tautologies already dropped) —
        the unit the relational compiler lowers to membership
        tables."""
        return tuple(self._static_tables)

    @property
    def transition_tables(self) -> tuple[_Table, ...]:
        """The transition decision tables."""
        return tuple(self._transition_tables)

    @property
    def static_instances(self) -> int:
        """Number of grounded static-constraint instances."""
        return len(self._static)

    @property
    def transition_instances(self) -> int:
        """Number of grounded transition-constraint instances."""
        return len(self._transition)

    def static_for(self, cells: Iterable[Cell]):
        """The static instances reading any of ``cells`` (the
        pipeline precomputes this per update plan)."""
        return tuple(_gather(self._static_by_cell, cells))

    def static_tables_for(self, cells: Iterable[Cell]):
        """The static decision tables touching any of ``cells`` (the
        admission hot path's unit of work)."""
        return tuple(_gather(self._static_tables_by_cell, cells))

    def transition_tables_for(self, cells: Iterable[Cell]):
        """The transition decision tables touching any of ``cells``."""
        return tuple(_gather(self._transition_tables_by_cell, cells))

    def static_violations(
        self, get: Getter, cells: Iterable[Cell] | None = None
    ) -> list[GuardViolation]:
        """Static instances failing on the state read through ``get``.

        With ``cells`` given, only the instances reading one of those
        cells are re-checked (the incremental path); ``None`` checks
        every instance.
        """
        if cells is None:
            candidates = self._static
        else:
            candidates = _gather(self._static_by_cell, cells)
        return [
            instance.violation()
            for instance in candidates
            if not instance.closure(get)
        ]

    def transition_violations(
        self,
        before: Getter,
        after: Getter,
        cells: Iterable[Cell] | None = None,
    ) -> list[GuardViolation]:
        """Transition instances failing on the step ``before → after``
        (two-state universe, reflexive, checked at both states)."""
        if cells is None:
            candidates = self._transition
        else:
            candidates = _gather(self._transition_by_cell, cells)
        gets = (before, after)
        return [
            instance.violation()
            for instance in candidates
            if not instance.closure(gets)
        ]

    def check_now(self, get: Getter) -> list[GuardViolation]:
        """Full (non-incremental) check of the current state: every
        static instance, and every transition instance on the identity
        step — the induction base the incremental path relies on."""
        return self.static_violations(get) + self.transition_violations(
            get, get
        )


def _gather(index: dict[Cell, list], cells: Iterable[Cell]) -> list:
    seen: set[int] = set()
    out: list = []
    for cell in cells:
        for item in index.get(cell, ()):
            if id(item) not in seen:
                seen.add(id(item))
                out.append(item)
    return out


def _index_by_cell(items: Iterable) -> dict[Cell, list]:
    index: dict[Cell, list] = {}
    for item in items:
        cells = (
            item.cells if isinstance(item, _Table) else item.reads
        )
        for cell in cells:
            index.setdefault(cell, []).append(item)
    return index
