"""The incremental materialized-state store.

A served database state is the set of all *simple observations* — one
cell ``(query name, parameter values)`` per ground query instance,
exactly the entries of an interned
:class:`~repro.algebraic.algebra.Snapshot`.  Rather than re-reducing
the whole trace through the rewrite engine on every request, the store
keeps the cells in a plain dict and applies one update in O(delta):

1. the Q-equations ``q(a, u(b, U)) = rhs`` for update ``u`` are
   compiled **once per (update, params) pair** into an
   :class:`~repro.algebraic.plans.UpdatePlan` by the shared
   :class:`~repro.algebraic.plans.UpdatePlanner` (also used by the
   packed state-space explorer) — for each candidate write cell, an
   ordered dispatch list of ``(condition, rhs, equation index)``
   closures over the pre-state; equation order is declaration order,
   mirroring :class:`~repro.algebraic.rewriting.RewriteEngine`;
2. applying the plan evaluates the dispatch per candidate cell against
   the current cells and collects only the cells whose value changes.

Identity equations (frame equations and precondition-false
"otherwise" branches) are detected at the pattern level and never
produce writes; conditions that constant-fold to False are pruned at
compile time, so a typical plan touches a handful of cells.

Equations outside the canonical synthesized shape fall back to
:func:`~repro.algebraic.induction.abstract_successor` — the full
snapshot-to-snapshot evaluation used by the structural-induction
proofs — which keeps the store correct for any specification, just not
incremental.  The differential tests in ``tests/runtime/`` pin both
paths to full trace re-reduction.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from repro.errors import IncompletenessError, ServingError
from repro.algebraic.algebra import Snapshot, TraceAlgebra
from repro.algebraic.compiler import Cell
from repro.algebraic.description import StructuredDescription
from repro.algebraic.induction import (
    abstract_successor,
    make_abstract_engine,
)
from repro.algebraic.plans import UpdatePlan, UpdatePlanner
from repro.algebraic.spec import AlgebraicSpec
from repro.logic.sorts import BOOLEAN

__all__ = ["MaterializedState", "UpdatePlan"]

Value = Hashable


class MaterializedState:
    """A mutable cell store for one algebraic specification.

    Args:
        spec: the (verified) algebraic specification.
        descriptions: the structured descriptions the equations were
            synthesized from; when given, each update's precondition is
            compiled into the plan's admission predicate, so the
            runtime can *reject* precondition-false requests instead of
            silently no-opping like the trace semantics.

    The initial cells are the entries of the initial trace's snapshot,
    so the store starts in exactly the state ``initiate`` denotes.
    """

    def __init__(
        self,
        spec: AlgebraicSpec,
        descriptions: list[StructuredDescription] | None = None,
    ):
        self.spec = spec
        self.signature = spec.signature
        self._algebra = TraceAlgebra(spec)
        self._abstract_engine = None
        self._planner = UpdatePlanner(spec, descriptions)
        self._plans: dict[tuple[str, tuple[str, ...]], UpdatePlan] = {}
        initial = self._algebra.snapshot(self._algebra.initial_trace())
        self._cells: dict[Cell, Value] = {
            (query, params): value
            for (query, params), value in initial.entries
        }

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, cell: Cell) -> Value:
        """The current value of one cell.

        Raises:
            ServingError: for an unknown query/parameter combination.
        """
        try:
            return self._cells[cell]
        except KeyError:
            raise ServingError(
                f"unknown observation cell {cell!r}"
            ) from None

    def query(self, name: str, params: tuple[str, ...]) -> Value:
        """Answer the query ``name(params)`` from the current cells."""
        return self.get((name, tuple(params)))

    @property
    def cells(self) -> Mapping[Cell, Value]:
        """Read-only view of the current cells."""
        return dict(self._cells)

    @property
    def getter(self) -> Callable[[Cell], Value]:
        """The raw cell reader compiled closures evaluate against."""
        return self._cells.__getitem__

    def snapshot(self) -> Snapshot:
        """The current state as an interned
        :class:`~repro.algebraic.algebra.Snapshot` (for differential
        tests and the abstract-successor fallback)."""
        return Snapshot(tuple(sorted(self._cells.items())))

    def load(self, cells: Mapping[Cell, Value]) -> None:
        """Replace the store contents (journal/snapshot recovery).

        Raises:
            ServingError: if the cell set differs from the schema's,
                or a value falls outside its query's result domain
                (the guards' decision tables assume domain values).
        """
        incoming = {
            (query, tuple(params)): value
            for (query, params), value in cells.items()
        }
        if set(incoming) != set(self._cells):
            raise ServingError(
                "recovered cells do not match the specification's "
                "observation schema"
            )
        for (query, params), value in incoming.items():
            sort = self.signature.query(query).result_sort
            values = (
                (False, True)
                if sort == BOOLEAN
                else self.signature.domain(sort)
            )
            if value not in values:
                raise ServingError(
                    f"recovered value {value!r} of cell "
                    f"{(query, params)!r} is outside the query's "
                    "result domain"
                )
        self._cells = incoming

    # ------------------------------------------------------------------
    # plan compilation
    # ------------------------------------------------------------------
    def plan(self, update: str, params: tuple[str, ...]) -> UpdatePlan:
        """The compiled :class:`~repro.algebraic.plans.UpdatePlan` for
        one ground update instance (cached).

        Raises:
            ServingError: unknown update or ill-sorted parameters.
        """
        key = (update, tuple(params))
        cached = self._plans.get(key)
        if cached is not None:
            return cached
        built = self._planner.compile(update, key[1])
        self._plans[key] = built
        return built

    @property
    def plan_counts(self) -> dict[str, int]:
        """Update plans compiled so far, and how many of them are
        ``fallback`` plans (equations outside the canonical fragment,
        so applying goes through the rewrite engine)."""
        plans = self._plans.values()
        return {
            "compiled": len(plans),
            "fallback": sum(1 for plan in plans if plan.fallback),
        }

    # ------------------------------------------------------------------
    # applying updates
    # ------------------------------------------------------------------
    def compute_writes(self, plan: UpdatePlan) -> dict[Cell, Value]:
        """Evaluate the plan against the current cells and return the
        delta — only the cells whose value actually changes.  The
        store is not modified.

        Raises:
            IncompletenessError: if no equation fires for a candidate
                cell (the specification is not sufficiently complete).
        """
        if plan.fallback:
            return self._fallback_writes(plan)
        cells = self._cells
        get = cells.__getitem__
        writes: dict[Cell, Value] = {}
        for cell, entries in plan.actions:
            for condition, rhs, _index in entries:
                if condition is not None and not condition(get):
                    continue
                if rhs is not None:
                    value = rhs(get)
                    if value != cells[cell]:
                        writes[cell] = value
                break
            else:
                raise IncompletenessError(
                    f"no equation applies to cell {cell} under "
                    f"{plan.update}{plan.params}: the specification "
                    "is not sufficiently complete"
                )
        return writes

    def _fallback_writes(self, plan: UpdatePlan) -> dict[Cell, Value]:
        if self._abstract_engine is None:
            self._abstract_engine = make_abstract_engine(self.spec)
        successor = abstract_successor(
            self.spec,
            self.snapshot(),
            plan.update,
            plan.params,
            engine=self._abstract_engine,
        )
        return {
            (query, params): value
            for (query, params), value in successor.entries
            if self._cells[(query, params)] != value
        }

    def commit(self, writes: Mapping[Cell, Value]) -> None:
        """Apply a previously computed delta to the cells."""
        self._cells.update(writes)

    def apply(
        self, update: str, params: tuple[str, ...]
    ) -> dict[Cell, Value]:
        """Plan, evaluate and commit one update; returns the delta.

        Note: this bypasses admission guards — it is the raw trace
        semantics (precondition-false updates no-op).  The guarded
        path lives in :class:`repro.runtime.service.SpecRuntime`.
        """
        writes = self.compute_writes(self.plan(update, tuple(params)))
        self.commit(writes)
        return writes
