"""Packed value-row exploration.

The object BFS in :meth:`~repro.algebraic.algebra.TraceAlgebra.explore`
re-reduces every successor *trace* through the rewrite engine — each
edge costs a full snapshot (|observations| query evaluations).  For
specifications in the canonical synthesized fragment the successor
snapshot is a pure function of the *source snapshot*: the same
per-update :class:`~repro.algebraic.plans.UpdatePlan` programs the
serving runtime applies in O(delta).  :class:`PackedExplorer` runs the
identical breadth-first construction directly over packed value rows
(one tuple of observation values per state), applying plans instead of
rewriting, and materializes witness traces and interned snapshots only
at the rate states are *discovered* — the ≥10x of BENCH_kernel.json.

Byte-identity with the object path is a hard invariant: same state
discovery order, same witness traces, same transition list, same
truncation.  Anything outside the fragment (U-equations, state
normalization, a plan falling back to the rewrite engine) raises
:class:`PackedUnsupported` at construction, and any error during a run
makes the algebra fall back to the object BFS so spec errors surface
with their exact term-level messages.
"""

from __future__ import annotations

from collections import deque

from repro.algebraic.plans import UpdatePlanner
from repro.logic.terms import App, Term

__all__ = ["PackedExplorer", "PackedUnsupported"]


class PackedUnsupported(Exception):
    """The specification falls outside the packed-explorable fragment."""


class PackedExplorer:
    """Value-row BFS for one :class:`~repro.algebraic.algebra.TraceAlgebra`.

    Args:
        algebra: the trace algebra to explore.  Must be in the
            canonical fragment: no U-equations, no state
            normalization, and every ground update instance must
            compile to a non-fallback plan.

    Raises:
        PackedUnsupported: when any of those conditions fail.
    """

    def __init__(self, algebra) -> None:
        self.algebra = algebra
        self._initial: tuple | None = None
        spec = algebra.spec
        if algebra.normalize:
            raise PackedUnsupported("state normalization active")
        if spec.u_equations:
            raise PackedUnsupported("specification has U-equations")
        #: The algebra's observation cells, the order of every value
        #: row (:attr:`TraceAlgebra.observations`).
        self.cells = algebra.observations
        self._cell_index = {cell: i for i, cell in enumerate(self.cells)}
        planner = UpdatePlanner(spec)
        signature = algebra.signature
        #: One entry per ground update instance, in
        #: ``update_instances()`` order: (update, params, symbol,
        #: argument value terms, indexed plan actions).
        self.instances = []
        for update, params in algebra.update_instances():
            plan = planner.compile(update, params)
            if plan.fallback:
                raise PackedUnsupported(
                    f"update {update}{params} falls outside the "
                    "canonical plan fragment"
                )
            symbol = signature.update(update)
            arg_terms = tuple(
                signature.value(sort, value)
                for sort, value in zip(symbol.arg_sorts[:-1], params)
            )
            actions = tuple(
                (self._cell_index[cell], entries)
                for cell, entries in plan.actions
            )
            self.instances.append(
                (update, params, symbol, arg_terms, actions)
            )

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def initial_row(self) -> tuple:
        """The initial state's value row, evaluated once per explorer:
        :meth:`explore` and the trace table
        (:mod:`repro.algebraic.tracetable`) both read it.  It comes
        from the algebra's snapshot, so arena batch evaluation and
        tracer counts behave exactly like the object path's first
        snapshot."""
        if self._initial is None:
            snapshot = self.algebra.snapshot(self.algebra.initial_trace())
            self._initial = tuple(value for _, value in snapshot.entries)
        return self._initial

    def apply_instance(self, instance, row: tuple, get) -> tuple:
        """Apply one update instance's compiled plan to a value row.

        Args:
            instance: an entry of :attr:`instances`.
            row: the source state's values, in :attr:`cells` order.
            get: the cell reader over ``row`` the plan's closures call
                (shared by every instance applied to one row).

        Returns:
            The target row (``row`` itself when nothing changes).

        Raises:
            PackedUnsupported: no equation fires for some cell (a
                sufficient-completeness gap the object path reports).
        """
        _update, _params, _symbol, _arg_terms, actions = instance
        out = None
        for index, entries in actions:
            for condition, rhs, _eq in entries:
                if condition is not None and not condition(get):
                    continue
                if rhs is not None:
                    value = rhs(get)
                    if value != row[index]:
                        if out is None:
                            out = list(row)
                        out[index] = value
                break
            else:
                # Dispatch exhausted: incompleteness.  Raising makes
                # the algebra fall back to the object path, which
                # reports the failure with its exact term message.
                raise PackedUnsupported(
                    f"no equation fires for cell {self.cells[index]}"
                )
        return row if out is None else tuple(out)

    def explore(self, max_states: int, max_depth: int | None):
        """Run the packed BFS; byte-identical to
        :meth:`TraceAlgebra._explore_serial`.

        Returns:
            ``(graph, items)``: the state graph and the number of
            snapshots it took (the initial one plus one per edge).
        """
        # Imported here: algebra imports this module lazily, and this
        # module only needs the graph dataclasses at run time.
        from repro.algebraic.algebra import (
            Snapshot,
            StateGraph,
            Transition,
        )

        algebra = self.algebra
        cells = self.cells
        instances = self.instances

        initial_row = self.initial_row()
        initial_trace = algebra.initial_trace()
        items = 1
        snap_of: dict[tuple, Snapshot] = {
            initial_row: Snapshot(tuple(zip(cells, initial_row)))
        }
        initial_snapshot = snap_of[initial_row]
        states: dict[Snapshot, Term] = {initial_snapshot: initial_trace}
        transitions: list[Transition] = []
        truncated = False
        frontier: deque[tuple[tuple, Snapshot, Term, int]] = deque(
            [(initial_row, initial_snapshot, initial_trace, 0)]
        )
        while frontier:
            row, source_snapshot, trace, depth = frontier.popleft()
            if max_depth is not None and depth >= max_depth:
                continue
            get = dict(zip(cells, row)).__getitem__
            for instance in instances:
                target_row = self.apply_instance(instance, row, get)
                update, params, symbol, arg_terms, _actions = instance
                items += 1
                target_snapshot = snap_of.get(target_row)
                if target_snapshot is None:
                    target_snapshot = Snapshot(
                        tuple(zip(cells, target_row))
                    )
                    snap_of[target_row] = target_snapshot
                transitions.append(
                    Transition(
                        source_snapshot, update, params, target_snapshot
                    )
                )
                if target_snapshot not in states:
                    if len(states) >= max_states:
                        truncated = True
                        continue
                    successor = App(symbol, (*arg_terms, trace))
                    states[target_snapshot] = successor
                    frontier.append(
                        (
                            target_row,
                            target_snapshot,
                            successor,
                            depth + 1,
                        )
                    )
        graph = StateGraph(
            initial_snapshot, states, transitions, truncated
        )
        return graph, items
