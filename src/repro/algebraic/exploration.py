"""Packed value-row exploration with incremental (delta) re-runs.

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

**Delta exploration.**  A run can emit an *edge artifact*: the pool of
value rows it saw plus, for every expanded row, the target row of each
update instance — a memo keyed purely by values.  Because a target row
depends only on the source row and the equations of that one update
(the Markov property of the plan fragment), the memo stays valid for
every update whose equations are textually unchanged.  A later run
given the artifact (``verify --cache-dir`` threads it through the
PR-4 result cache) recomputes only the instances whose equations
changed and the rows never seen before; everything else replays from
the memo.  The artifact is validated against the signature fingerprint
and the cell/instance layout before use, so a stale or foreign
artifact degrades to a full explore, never a wrong graph.
"""

from __future__ import annotations

from collections import deque

from repro.algebraic.plans import UpdatePlanner
from repro.logic.terms import App, Term
from repro.pipeline.fingerprint import describe_signature, digest

__all__ = [
    "PackedExplorer",
    "PackedUnsupported",
    "delta_counters",
    "reset_delta_counters",
    "edge_artifact_name",
    "EDGE_ARTIFACT_FORMAT",
]

#: Bump when the edge-artifact payload shape changes; old artifacts
#: then fail validation (a full explore, never a wrong graph).
EDGE_ARTIFACT_FORMAT = 1

#: Process-wide delta statistics, aggregated over every packed
#: exploration (the ``delta_reexplored_states`` field of the
#: ``[kernel]`` stats line).
_DELTA_COUNTERS = {
    "runs": 0,
    "delta_runs": 0,
    "reexplored_states": 0,
    "cached_transitions": 0,
    "recomputed_transitions": 0,
}


def delta_counters() -> dict[str, int]:
    """A copy of the process-wide delta-exploration counters."""
    return dict(_DELTA_COUNTERS)


def reset_delta_counters() -> None:
    """Zero the process-wide delta-exploration counters (tests)."""
    for key in _DELTA_COUNTERS:
        _DELTA_COUNTERS[key] = 0


def edge_artifact_name(signature) -> str:
    """The result-cache entry name for a specification's edge
    artifact, keyed by the signature fingerprint (an edited signature
    gets a fresh entry; edited equations revalidate per update)."""
    return f"explore-edges-{digest(describe_signature(signature))[:32]}"


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
        spec = algebra.spec
        if algebra.normalize:
            raise PackedUnsupported("state normalization active")
        if spec.u_equations:
            raise PackedUnsupported("specification has U-equations")
        #: Sorted observation cells — exactly the key order of
        #: :class:`~repro.algebraic.algebra.Snapshot` entries.
        self.cells = tuple(sorted(algebra.observations))
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
        #: Current per-(query, update) equation renderings — the delta
        #: validity key for cached edges.
        self._equation_renderings = self._render_equations(spec)
        self._signature_digest = digest(describe_signature(signature))

    # ------------------------------------------------------------------
    # delta keys & artifact plumbing
    # ------------------------------------------------------------------
    def _render_equations(self, spec) -> dict[str, list[str]]:
        renderings: dict[str, list[str]] = {}
        queries = [q.name for q in self.algebra.signature.queries]
        updates = [u.name for u in self.algebra.signature.updates]
        for update in updates:
            for query in queries:
                renderings[f"{query}|{update}"] = [
                    str(equation)
                    for equation in spec.equations_for(query, update)
                ]
        return renderings

    def _load_edge_cache(self, artifact: dict | None):
        """Validate a prior run's artifact and split it into the
        reusable edge memo plus the per-instance validity mask.

        Returns ``(edges, instance_ok)`` where ``edges`` maps a source
        value row to the tuple of target rows (one per instance, in
        instance order) and ``instance_ok[i]`` says instance ``i``'s
        equations are unchanged since the artifact was built.  Returns
        ``(None, None)`` for a missing/stale/foreign artifact.
        """
        if not isinstance(artifact, dict):
            return None, None
        if artifact.get("format") != EDGE_ARTIFACT_FORMAT:
            return None, None
        if artifact.get("signature") != self._signature_digest:
            return None, None
        cells = tuple(
            (name, tuple(params))
            for name, params in artifact.get("cells", ())
        )
        if cells != self.cells:
            return None, None
        stored_instances = tuple(
            (update, tuple(params))
            for update, params in artifact.get("instances", ())
        )
        if stored_instances != tuple(
            (update, params)
            for update, params, _, _, _ in self.instances
        ):
            return None, None
        stored_equations = artifact.get("equations")
        if not isinstance(stored_equations, dict):
            return None, None
        unchanged_updates = set()
        for update in {u for u, *_ in self.instances}:
            if all(
                stored_equations.get(f"{query.name}|{update}")
                == self._equation_renderings[f"{query.name}|{update}"]
                for query in self.algebra.signature.queries
            ):
                unchanged_updates.add(update)
        instance_ok = tuple(
            update in unchanged_updates
            for update, *_ in self.instances
        )
        try:
            pool = [
                tuple(row) for row in artifact["pool"]
            ]
            edges = {
                pool[source]: tuple(pool[target] for target in targets)
                for source, targets in artifact["edges"]
            }
        except (KeyError, TypeError, IndexError):
            return None, None
        return edges, instance_ok

    def _build_artifact(
        self, edges: dict[tuple, tuple]
    ) -> dict:
        """Serialize the run's complete edge memo (JSON-shaped, for
        the result cache)."""
        pool_index: dict[tuple, int] = {}
        pool: list[list] = []

        def row_id(row: tuple) -> int:
            idx = pool_index.get(row)
            if idx is None:
                idx = len(pool)
                pool_index[row] = idx
                pool.append(list(row))
            return idx

        packed_edges = [
            [row_id(source), [row_id(target) for target in targets]]
            for source, targets in edges.items()
        ]
        return {
            "format": EDGE_ARTIFACT_FORMAT,
            "signature": self._signature_digest,
            "cells": [
                [name, list(params)] for name, params in self.cells
            ],
            "instances": [
                [update, list(params)]
                for update, params, _, _, _ in self.instances
            ],
            "equations": {
                key: list(value)
                for key, value in self._equation_renderings.items()
            },
            "pool": pool,
            "edges": packed_edges,
        }

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def _initial_row(self) -> tuple:
        """The initial state's value row (via the algebra's snapshot,
        so arena batch evaluation and tracer counts behave exactly
        like the object path's first snapshot)."""
        snapshot = self.algebra.snapshot(self.algebra.initial_trace())
        keys = tuple(key for key, _ in snapshot.entries)
        if keys != self.cells:
            raise PackedUnsupported("snapshot keys disagree with cells")
        return tuple(value for _, value in snapshot.entries)

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

    def explore(
        self,
        max_states: int,
        max_depth: int | None,
        edge_cache: dict | None = None,
    ):
        """Run the packed BFS; byte-identical to
        :meth:`TraceAlgebra._explore_serial`.

        Returns:
            ``(graph, items)`` with ``graph.artifact`` set to this
            run's refreshed edge memo and ``graph.delta`` to the run's
            delta statistics.
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
        cached_edges, instance_ok = self._load_edge_cache(edge_cache)
        using_cache = cached_edges is not None
        all_cached = using_cache and all(instance_ok)

        initial_row = self._initial_row()
        initial_trace = algebra.initial_trace()
        items = 1
        snap_of: dict[tuple, Snapshot] = {
            initial_row: Snapshot(tuple(zip(cells, initial_row)))
        }
        initial_snapshot = snap_of[initial_row]
        states: dict[Snapshot, Term] = {initial_snapshot: initial_trace}
        transitions: list[Transition] = []
        truncated = False
        new_edges: dict[tuple, tuple] = {}
        reexplored = 0
        cached_transitions = 0
        recomputed_transitions = 0
        frontier: deque[tuple[tuple, Snapshot, Term, int]] = deque(
            [(initial_row, initial_snapshot, initial_trace, 0)]
        )
        while frontier:
            row, source_snapshot, trace, depth = frontier.popleft()
            if max_depth is not None and depth >= max_depth:
                continue
            cached_row = (
                cached_edges.get(row) if using_cache else None
            )
            if cached_row is not None and all_cached:
                targets = cached_row
                cached_transitions += len(targets)
            else:
                get = None
                if cached_row is None:
                    reexplored += 1
                targets = []
                for i, instance in enumerate(instances):
                    if cached_row is not None and instance_ok[i]:
                        targets.append(cached_row[i])
                        cached_transitions += 1
                        continue
                    if get is None:
                        get = dict(zip(cells, row)).__getitem__
                    targets.append(self.apply_instance(instance, row, get))
                    recomputed_transitions += 1
                targets = tuple(targets)
            new_edges[row] = targets
            for instance, target_row in zip(instances, targets):
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
        graph.artifact = self._build_artifact(new_edges)
        graph.delta = {
            "used_cache": using_cache,
            "reexplored_states": reexplored if using_cache else len(new_edges),
            "expanded_states": len(new_edges),
            "cached_transitions": cached_transitions,
            "recomputed_transitions": recomputed_transitions,
        }
        _DELTA_COUNTERS["runs"] += 1
        if using_cache:
            _DELTA_COUNTERS["delta_runs"] += 1
            _DELTA_COUNTERS["reexplored_states"] += reexplored
        else:
            _DELTA_COUNTERS["reexplored_states"] += len(new_edges)
        _DELTA_COUNTERS["cached_transitions"] += cached_transitions
        _DELTA_COUNTERS["recomputed_transitions"] += recomputed_transitions
        return graph, items
