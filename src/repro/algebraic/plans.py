"""Compiled per-(update, params) apply programs over observation cells.

Extracted from :mod:`repro.runtime.state` so both consumers of the
cell representation share one compiler:

* the serving runtime's :class:`~repro.runtime.state.MaterializedState`
  applies one update in O(delta) against its live cell dict;
* the packed state-space explorer
  (:class:`repro.algebraic.exploration.PackedExplorer`) applies every
  ground update instance to value rows during BFS, which is what makes
  exploration an order of magnitude faster than re-reducing each
  successor trace.

An :class:`UpdatePlan` grounds the Q-equations of one update instance
into per-cell dispatch lists of ``(condition, rhs, equation index)``
closures over a cell reader (see :mod:`repro.algebraic.compiler`),
in declaration order — mirroring
:class:`~repro.algebraic.rewriting.RewriteEngine` exactly: the first
entry whose condition holds fires; an exhausted dispatch list is a
sufficient-completeness failure.  Cells whose dispatch is *sealed* by
an unconditional entry and writes nothing (pure frame cells) are
pruned; cells with an unsealed dispatch are kept even when they never
write, so the incompleteness error of the trace semantics is
preserved.

Grounding and closure compilation are two separate stages.
:meth:`UpdatePlanner.ground` produces a :class:`SymbolicPlan` whose
dispatch entries keep the grounded *formulas and terms* (each paired
with its grounding environment and the compiled closure), so plan
consumers that target a representation other than Python closures —
the spec→relational compiler in :mod:`repro.relational` lowers the
same entries to SQL — share one grounding semantics with the serving
runtime and the packed explorer.  :meth:`UpdatePlanner.compile` is now
a thin projection of the symbolic plan onto its closures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.errors import ServingError, SignatureError
from repro.algebraic.compiler import (
    Cell,
    Getter,
    UnsupportedTermError,
    compile_ground_formula,
    compile_ground_term,
)
from repro.algebraic.description import StructuredDescription
from repro.algebraic.spec import AlgebraicSpec
from repro.logic import formulas as fm
from repro.logic.sorts import STATE
from repro.logic.terms import App, Term, Var

__all__ = [
    "GroundEntry",
    "GroundExpr",
    "SymbolicPlan",
    "UpdatePlan",
    "UpdatePlanner",
]

Value = Hashable

#: A grounding environment, as a sorted tuple of ``(variable, value)``
#: pairs (hashable so symbolic plans stay frozen).
Env = tuple[tuple[Var, str], ...]


def _freeze_env(env: dict[Var, str]) -> Env:
    return tuple(sorted(env.items(), key=lambda item: item[0].name))


@dataclass(frozen=True)
class GroundExpr:
    """A grounded formula or term with its compiled closure.

    Attributes:
        node: the original L2 formula (conditions, preconditions) or
            term (right-hand sides) — ground under ``env``.
        env: values for every non-state free variable of ``node``.
        closure: the compiled evaluation closure over a cell reader.
        reads: the store cells the closure may touch.
    """

    node: object
    env: Env
    closure: Callable[[Getter], Value]
    reads: frozenset[Cell] = frozenset()


@dataclass(frozen=True)
class GroundEntry:
    """One symbolic dispatch entry of a candidate write cell.

    Attributes:
        condition: the grounded firing condition; ``None`` means
            unconditional (no condition, or one that constant-folded
            to True at grounding time — statically-False conditions
            are dropped entirely).
        rhs: the grounded right-hand side; ``None`` marks an identity
            (frame/otherwise) entry that writes nothing.
        index: the equation's index in ``spec.equations``.
    """

    condition: GroundExpr | None
    rhs: GroundExpr | None
    index: int


@dataclass(frozen=True)
class SymbolicPlan:
    """The grounded (but representation-independent) form of one
    update instance: what :class:`UpdatePlan` compiles to closures and
    :mod:`repro.relational.lowering` compiles to SQL.

    Attributes:
        update: the update function's name.
        params: its ground parameter values.
        actions: per candidate write cell, the ordered symbolic
            dispatch entries (declaration order, trimmed and sealed
            exactly like the closure plan).
        precondition: the grounded admission predicate from the
            update's structured description, or ``None``.
    """

    update: str
    params: tuple[str, ...]
    actions: tuple[tuple[Cell, tuple[GroundEntry, ...]], ...]
    precondition: GroundExpr | None = None

    @property
    def candidate_cells(self) -> tuple[Cell, ...]:
        """The cells this plan may write (superset of any delta)."""
        return tuple(cell for cell, _ in self.actions)


@dataclass(frozen=True)
class UpdatePlan:
    """The compiled apply program for one ground update instance.

    Attributes:
        update: the update function's name.
        params: its ground parameter values.
        actions: per candidate write cell, the ordered dispatch list of
            ``(condition, rhs, equation index)`` closures;
            ``condition is None`` means unconditional, ``rhs is None``
            means identity (no write); the index names the equation in
            ``spec.equations`` (for fire-set reporting).
        precondition: compiled admission predicate from the update's
            structured description, or ``None`` when the update has no
            precondition (or no description was supplied).
        precondition_reads: cells the precondition may read — the
            witness cells reported when admission fails.
        precondition_text: the precondition formula, printed (for the
            rejection witness).
        fallback: True when the equations fall outside the canonical
            fragment and applying must go through the rewrite engine.
    """

    update: str
    params: tuple[str, ...]
    actions: tuple[
        tuple[
            Cell,
            tuple[
                tuple[
                    Callable[[Getter], bool] | None,
                    Callable[[Getter], Value] | None,
                    int,
                ],
                ...,
            ],
        ],
        ...,
    ]
    precondition: Callable[[Getter], bool] | None
    precondition_reads: frozenset[Cell]
    precondition_text: str = ""
    fallback: bool = False

    @property
    def candidate_cells(self) -> tuple[Cell, ...]:
        """The cells this plan may write (superset of any delta)."""
        return tuple(cell for cell, _ in self.actions)

    def fire_sets(self) -> dict[tuple[str, str], frozenset[int]]:
        """The equations that *could* fire per ``(query, update)``
        dispatch cell — the static counterpart of the coverage layer's
        per-equation fire sets, used to key delta exploration."""
        out: dict[tuple[str, str], set[int]] = {}
        for (query, _values), entries in self.actions:
            bucket = out.setdefault((query, self.update), set())
            for _condition, _rhs, index in entries:
                bucket.add(index)
        return {key: frozenset(value) for key, value in out.items()}


def _is_identity(lhs: App, rhs: Term) -> bool:
    """True iff ``rhs`` is the lhs query applied to the same parameter
    pattern at the bare pre-state variable (a frame/otherwise branch).
    Terms are interned, so pattern equality is object comparison."""
    return (
        isinstance(rhs, App)
        and rhs.symbol == lhs.symbol
        and rhs.args[:-1] == lhs.args[:-1]
        and isinstance(rhs.args[-1], Var)
        and rhs.args[-1].sort == STATE
    )


class UpdatePlanner:
    """Compiles :class:`UpdatePlan` objects for one specification.

    Args:
        spec: the algebraic specification whose Q-equations define the
            cell transitions.
        descriptions: optional structured descriptions; when given,
            each update's precondition is compiled into the plan's
            admission predicate (the serving runtime passes them, the
            explorer — which follows raw trace semantics — does not).
    """

    def __init__(
        self,
        spec: AlgebraicSpec,
        descriptions: list[StructuredDescription] | None = None,
    ):
        self.spec = spec
        self.signature = spec.signature
        self._descriptions = {
            d.update: d for d in (descriptions or [])
        }
        self._equals_hook = self._make_equals_hook()
        self._equation_index = {
            id(equation): index
            for index, equation in enumerate(spec.equations)
        }

    # ------------------------------------------------------------------
    # parameter validation
    # ------------------------------------------------------------------
    def check_params(
        self, update: str, params: tuple[str, ...]
    ) -> None:
        """Validate an update instance against the signature.

        Raises:
            ServingError: unknown update, wrong arity, or a value
                outside its sort's declared domain.
        """
        try:
            symbol = self.signature.update(update)
        except SignatureError as exc:
            raise ServingError(str(exc)) from None
        sorts = symbol.arg_sorts[:-1]
        if len(params) != len(sorts):
            raise ServingError(
                f"update {update!r} takes {len(sorts)} parameter(s), "
                f"got {len(params)}"
            )
        for value, sort in zip(params, sorts):
            if value not in self.signature.domain(sort):
                raise ServingError(
                    f"{value!r} is not a declared value of sort "
                    f"{sort} (update {update!r})"
                )

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def ground(
        self, update: str, params: tuple[str, ...]
    ) -> SymbolicPlan:
        """Ground one update instance into a :class:`SymbolicPlan`.

        Raises:
            UnsupportedTermError: the equations fall outside the
                canonical fragment (:meth:`compile` catches this and
                returns a ``fallback`` plan instead).
        """
        params = tuple(params)
        self.check_params(update, params)
        precondition = self._ground_precondition(update, params)
        actions = self._ground_actions(update, params)
        return SymbolicPlan(update, params, actions, precondition)

    def compile(
        self, update: str, params: tuple[str, ...]
    ) -> UpdatePlan:
        """Ground and compile one update instance into a plan (the
        ``fallback`` flag marks non-canonical equation sets)."""
        params = tuple(params)
        self.check_params(update, params)
        pre = self._ground_precondition(update, params)
        precondition = pre.closure if pre is not None else None
        pre_reads = pre.reads if pre is not None else frozenset()
        pre_text = str(pre.node) if pre is not None else ""
        try:
            symbolic = self._ground_actions(update, params)
        except UnsupportedTermError:
            return UpdatePlan(
                update,
                params,
                (),
                precondition,
                pre_reads,
                pre_text,
                fallback=True,
            )
        actions = tuple(
            (
                cell,
                tuple(
                    (
                        entry.condition.closure
                        if entry.condition is not None
                        else None,
                        entry.rhs.closure
                        if entry.rhs is not None
                        else None,
                        entry.index,
                    )
                    for entry in entries
                ),
            )
            for cell, entries in symbolic
        )
        return UpdatePlan(
            update, params, actions, precondition, pre_reads, pre_text
        )

    def _make_equals_hook(self):
        signature = self.signature

        def hook(equality: fm.Equals, env: dict[Var, str]):
            lhs, lreads = compile_ground_term(
                equality.lhs, env, signature
            )
            rhs, rreads = compile_ground_term(
                equality.rhs, env, signature
            )
            return (
                lambda get: lhs(get) == rhs(get)
            ), lreads | rreads

        return hook

    def _compile_condition(
        self, condition: fm.Formula, env: dict[Var, str]
    ):
        return compile_ground_formula(
            condition,
            env,
            domain_of=self.signature.domain,
            atom_hook=None,
            equals_hook=self._equals_hook,
        )

    def _ground_precondition(
        self, update: str, params: tuple[str, ...]
    ) -> GroundExpr | None:
        description = self._descriptions.get(update)
        if description is None or description.precondition is None:
            return None
        env = dict(zip(description.params, params))
        closure, reads = self._compile_condition(
            description.precondition, env
        )
        return GroundExpr(
            description.precondition, _freeze_env(env), closure, reads
        )

    def _ground_actions(self, update: str, params: tuple[str, ...]):
        """Ground every Q-equation of ``update`` at ``params`` into the
        per-cell symbolic dispatch lists."""
        signature = self.signature
        per_cell: dict[Cell, list[GroundEntry]] = {}
        for query_symbol in signature.queries:
            equations = self.spec.equations_for(
                query_symbol.name, update
            )
            if not equations:
                raise UnsupportedTermError(
                    f"no equation defines {query_symbol.name} over "
                    f"{update}"
                )
            for equation in equations:
                self._ground_equation(
                    equation, params, per_cell
                )
            # A cell no equation's pattern grounds gets an empty,
            # unsealed dispatch: the trace semantics finds no equation
            # for it, so applying must not treat it as a frame cell.
            domains = [
                signature.domain(sort)
                for sort in query_symbol.arg_sorts[:-1]
            ]
            for values in itertools.product(*domains):
                per_cell.setdefault((query_symbol.name, values), [])
        actions = []
        for cell, entries in per_cell.items():
            live = []
            for entry in entries:
                live.append(entry)
                if entry.condition is None:
                    break  # later entries are dead
            # Prune pure frame cells — but only when the dispatch is
            # sealed by an unconditional entry: an unsealed identity
            # cell can still fail to fire, and that incompleteness
            # must surface exactly like the trace semantics.
            writes = any(entry.rhs is not None for entry in live)
            sealed = live and live[-1].condition is None
            if writes or not sealed:
                actions.append((cell, tuple(live)))
        return tuple(actions)

    def _ground_equation(
        self,
        equation,
        params: tuple[str, ...],
        per_cell: dict[Cell, list[GroundEntry]],
    ) -> None:
        lhs = equation.lhs
        if not isinstance(lhs, App):
            raise UnsupportedTermError("non-application lhs")
        state_pat = lhs.args[-1]
        if not isinstance(state_pat, App) or not isinstance(
            state_pat.args[-1], Var
        ):
            raise UnsupportedTermError("non-canonical state pattern")

        # Bind the update-argument pattern against the actual params.
        binding: dict[Var, str] = {}
        for pattern, value in zip(state_pat.args[:-1], params):
            if isinstance(pattern, Var):
                bound = binding.get(pattern)
                if bound is None:
                    binding[pattern] = value
                elif bound != value:
                    return  # repeated variable disagrees: no match
            elif isinstance(pattern, App) and not pattern.args:
                if pattern.symbol.name != value:
                    return  # constant pattern differs: no match
            else:
                raise UnsupportedTermError(
                    "nested term in update-argument position"
                )

        # Enumerate the query-argument pattern over unbound variables.
        free: list[Var] = []
        for pattern in lhs.args[:-1]:
            if isinstance(pattern, Var):
                if pattern not in binding and pattern not in free:
                    free.append(pattern)
            elif not (
                isinstance(pattern, App) and not pattern.args
            ):
                raise UnsupportedTermError(
                    "nested term in query-argument position"
                )
        domains = [self.signature.domain(v.sort) for v in free]
        identity = _is_identity(lhs, equation.rhs)
        query_name = lhs.symbol.name
        eq_index = self._equation_index.get(id(equation), -1)
        for choice in itertools.product(*domains):
            env = dict(binding)
            env.update(zip(free, choice))
            values = tuple(
                env[p] if isinstance(p, Var) else p.symbol.name
                for p in lhs.args[:-1]
            )
            cell: Cell = (query_name, values)
            entries = per_cell.setdefault(cell, [])
            if entries and entries[-1].condition is None:
                continue  # dispatch already sealed by an
                # unconditional entry
            condition = None
            if equation.condition is not None:
                closure, reads = self._compile_condition(
                    equation.condition, env
                )
                if not reads:
                    if not closure(None):
                        continue  # statically never fires here
                    # statically always fires: unconditional entry
                else:
                    condition = GroundExpr(
                        equation.condition,
                        _freeze_env(env),
                        closure,
                        reads,
                    )
            if identity:
                rhs = None
            else:
                rhs_closure, rhs_reads = compile_ground_term(
                    equation.rhs, env, self.signature
                )
                rhs = GroundExpr(
                    equation.rhs,
                    _freeze_env(env),
                    rhs_closure,
                    rhs_reads,
                )
            entries.append(GroundEntry(condition, rhs, eq_index))
