"""Finitely generated trace algebras.

Paper, Sections 4.1-4.2: the models of an algebraic specification are
restricted to *finitely generated* algebras — "those in which every
element is the value of a variable-free term" — so every state is the
value of a trace ``u_n(..., u_1(..., initiate))`` and structural
induction on traces is a valid proof rule.

:class:`TraceAlgebra` realizes the initial such algebra for a
specification with finite parameter domains: states are trace terms,
queries are evaluated by the rewriting engine, and two traces denote
the same abstract state iff all *simple observations* agree on them
(the paper's observability condition).  :meth:`TraceAlgebra.explore`
performs the observational-state-space construction used by all
refinement checks.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator
from weakref import WeakValueDictionary

from repro.errors import ReproError, SpecificationError
from repro.algebraic.rewriting import RewriteEngine, Value
from repro.algebraic.spec import AlgebraicSpec
from repro.obs.stats import counter_delta, engine_counters
from repro.obs.switch import SWITCH
from repro.obs.tracer import count as _count, span as _span
from repro.logic.terms import App, Term

__all__ = ["TraceAlgebra", "Snapshot", "StateGraph", "Transition"]


_EMPTY_RELATION: frozenset = frozenset()

#: Live interned snapshots, keyed by their entry tuples.  Exploration
#: revisits the same abstract state once per incoming edge; interning
#: makes the revisit a dictionary hit on a precomputed hash and makes
#: snapshot equality (the hottest comparison of every refinement
#: check) an identity test.
_SNAPSHOT_INTERN: WeakValueDictionary = WeakValueDictionary()


class Snapshot:
    """The observational content of a state: the value of every simple
    observation.

    Snapshots are immutable, hash-consed (structurally equal live
    snapshots are the same object, with the hash precomputed at
    construction) and carry lazily built lookup indices, so
    :meth:`value` and :meth:`relation` are dictionary reads instead of
    linear scans over the entries.

    Attributes:
        entries: sorted tuple of ``((query_name, params), value)``
            pairs, one per simple observation.
    """

    __slots__ = ("entries", "_hash", "_lookup", "_relations", "__weakref__")

    def __new__(
        cls,
        entries: tuple[tuple[tuple[str, tuple[str, ...]], Value], ...],
    ) -> "Snapshot":
        entries = tuple(entries)
        cached = _SNAPSHOT_INTERN.get(entries)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash(entries))
        object.__setattr__(self, "_lookup", None)
        object.__setattr__(self, "_relations", None)
        _SNAPSHOT_INTERN[entries] = self
        return self

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError("Snapshot is immutable")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError("Snapshot is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # Interning makes identity decide for live snapshots; the
        # structural branch only runs on hash collisions.
        return self is other or (
            type(other) is Snapshot and self.entries == other.entries
        )

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __lt__(self, other) -> bool:
        if type(other) is not Snapshot:
            return NotImplemented
        return self.entries < other.entries

    def __le__(self, other) -> bool:
        if type(other) is not Snapshot:
            return NotImplemented
        return self.entries <= other.entries

    def __gt__(self, other) -> bool:
        if type(other) is not Snapshot:
            return NotImplemented
        return self.entries > other.entries

    def __ge__(self, other) -> bool:
        if type(other) is not Snapshot:
            return NotImplemented
        return self.entries >= other.entries

    def __reduce__(self):
        # Re-intern on unpickling (e.g. crossing worker processes).
        return (Snapshot, (self.entries,))

    def value(self, query: str, params: tuple[str, ...]) -> Value:
        """The recorded value of observation ``query(params)``."""
        lookup = self._lookup
        if lookup is None:
            lookup = dict(self.entries)
            object.__setattr__(self, "_lookup", lookup)
        return lookup[(query, params)]

    def relation(self, query: str) -> frozenset[tuple[str, ...]]:
        """The parameter tuples on which a Boolean query is True."""
        relations = self._relations
        if relations is None:
            grouped: dict[str, list[tuple[str, ...]]] = {}
            for (name, args), value in self.entries:
                if value is True:
                    grouped.setdefault(name, []).append(args)
            relations = {
                name: frozenset(args) for name, args in grouped.items()
            }
            object.__setattr__(self, "_relations", relations)
        return relations.get(query, _EMPTY_RELATION)

    def __str__(self) -> str:
        positives = [
            f"{name}({', '.join(args)})={value}"
            for (name, args), value in self.entries
            if value is not False
        ]
        return "{" + ", ".join(positives) + "}"

    def __repr__(self) -> str:
        return f"Snapshot(entries={self.entries!r})"


@dataclass(frozen=True)
class Transition:
    """One edge of the observational state graph.

    Attributes:
        source: snapshot before the update.
        update: update function name.
        params: the update's parameter values.
        target: snapshot after the update.
    """

    source: Snapshot
    update: str
    params: tuple[str, ...]
    target: Snapshot


@dataclass
class StateGraph:
    """The observational state space reachable from ``initiate``.

    Attributes:
        initial: snapshot of the initial state.
        states: every reachable snapshot, mapped to a *witness trace*
            (a shortest trace denoting it).
        transitions: every (source, update, params, target) edge.
        truncated: True iff exploration stopped at ``max_states``
            before exhausting the space.
    """

    initial: Snapshot
    states: dict[Snapshot, Term]
    transitions: list[Transition] = field(default_factory=list)
    truncated: bool = False
    #: Source-indexed adjacency map, built lazily on the first
    #: :meth:`successors` call and rebuilt if transitions were added
    #: since (detected by length, sufficient for the append-only use).
    _adjacency: dict[Snapshot, list[Transition]] | None = field(
        default=None, repr=False, compare=False
    )
    _adjacency_size: int = field(default=-1, repr=False, compare=False)

    def successors(self, snapshot: Snapshot) -> Iterator[Transition]:
        """Yield the outgoing transitions of ``snapshot``.

        Uses a precomputed adjacency index instead of scanning the
        full transition list; within a source, transitions keep their
        order in :attr:`transitions` (for the breadth-first graphs
        built by :meth:`TraceAlgebra.explore` the outgoing edges of a
        state are contiguous there, so iterating states in discovery
        order and chaining their successors replays the transition
        list exactly).
        """
        if (
            self._adjacency is None
            or self._adjacency_size != len(self.transitions)
        ):
            index: dict[Snapshot, list[Transition]] = {}
            for transition in self.transitions:
                index.setdefault(transition.source, []).append(transition)
            self._adjacency = index
            self._adjacency_size = len(self.transitions)
        return iter(self._adjacency.get(snapshot, ()))

    def __len__(self) -> int:
        return len(self.states)


class TraceAlgebra:
    """The finitely generated algebra of an algebraic specification.

    Args:
        spec: the algebraic specification.
        initial: name of the initial-state constant (default
            ``"initiate"``).
        fuel: rewriting fuel per query evaluation (passed through to
            :class:`RewriteEngine`).
    """

    def __init__(
        self,
        spec: AlgebraicSpec,
        initial: str = "initiate",
        fuel: int | None = None,
        normalize: bool = False,
        packed: bool = True,
    ):
        self.spec = spec
        self.signature = spec.signature
        if fuel is None:
            self.engine = RewriteEngine(spec)
        else:
            self.engine = RewriteEngine(spec, fuel=fuel)
        self._initial_name = initial
        #: When True, every trace built by :meth:`apply` is normalized
        #: by the specification's U-equations (a no-op for
        #: specifications without them).
        self.normalize = normalize
        #: When True (the default), the checks may take their fast
        #: paths: explore, the trace table, congruence, agreement and
        #: the induction step on the packed explorer's compiled
        #: plans, and (b), (c), (d) and the induction invariant on
        #: compiled closures.  ``packed=False`` sends every one of
        #: them down its reference path (the differential baseline),
        #: counted as ``<check>.fallback.disabled``.
        self.packed = packed
        self._observations = self._build_observations()
        #: Lazily built packed explorer (None until first use; False
        #: once the spec proved outside the packed fragment).
        self._packed_explorer = None

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------
    def initial_trace(self) -> App:
        """The ground trace term ``initiate``."""
        return self.signature.initial_term(self._initial_name)

    def apply(self, update: str, *params: str, trace: Term) -> App:
        """Build the trace ``update(params..., trace)`` from parameter
        *values* (domain strings)."""
        symbol = self.signature.update(update)
        args = [
            self.signature.value(sort, value)
            for sort, value in zip(symbol.arg_sorts[:-1], params)
        ]
        if len(params) != len(symbol.arg_sorts) - 1:
            raise SpecificationError(
                f"{update} expects {len(symbol.arg_sorts) - 1} "
                f"parameter(s), got {len(params)}"
            )
        term = App(symbol, (*args, trace))
        if self.normalize:
            return self.engine.normalize_state(term)
        return term

    def query(self, name: str, *params: str, trace: Term) -> Value:
        """Evaluate query ``name`` with parameter *values* on a trace."""
        symbol = self.signature.query(name)
        args = [
            self.signature.value(sort, value)
            for sort, value in zip(symbol.arg_sorts[:-1], params)
        ]
        if len(params) != len(symbol.arg_sorts) - 1:
            raise SpecificationError(
                f"{name} expects {len(symbol.arg_sorts) - 1} "
                f"parameter(s), got {len(params)}"
            )
        return self.engine.evaluate(App(symbol, (*args, trace)))

    def update_instances(self) -> Iterator[tuple[str, tuple[str, ...]]]:
        """Yield every (update name, parameter values) instance over
        the declared parameter domains."""
        for symbol in self.signature.updates:
            domains = [
                self.signature.domain(sort)
                for sort in symbol.arg_sorts[:-1]
            ]
            for params in itertools.product(*domains):
                yield symbol.name, params

    def successor_traces(
        self, trace: Term
    ) -> Iterator[tuple[str, tuple[str, ...], App]]:
        """Yield (update, params, new trace) for every update instance."""
        for update, params in self.update_instances():
            yield update, params, self.apply(update, *params, trace=trace)

    def traces(self, depth: int) -> Iterator[Term]:
        """Yield every ground trace with at most ``depth`` updates,
        breadth-first (the initial trace first).

        The count grows as (number of update instances)**depth; keep
        ``depth`` small or use :meth:`explore`, which deduplicates by
        observational equality.
        """
        frontier: deque[tuple[Term, int]] = deque([(self.initial_trace(), 0)])
        while frontier:
            trace, used = frontier.popleft()
            yield trace
            if used < depth:
                for _, _, successor in self.successor_traces(trace):
                    frontier.append((successor, used + 1))

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def _build_observations(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        observations: list[tuple[str, tuple[str, ...]]] = []
        for symbol in self.signature.queries:
            domains = [
                self.signature.domain(sort)
                for sort in symbol.arg_sorts[:-1]
            ]
            for params in itertools.product(*domains):
                observations.append((symbol.name, params))
        return tuple(sorted(observations))

    @property
    def observations(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Every simple observation ``(query, parameter values)``
        instantiable over the declared domains (paper, Section 4.1),
        sorted: the key order of every :class:`Snapshot`, and so the
        cell order of every value row built on this algebra."""
        return self._observations

    def snapshot(self, trace: Term) -> Snapshot:
        """Evaluate every simple observation on ``trace``.

        By the observability condition, the snapshot identifies the
        abstract state the trace denotes.
        """
        tracer = SWITCH.tracer
        if tracer is not None:
            tracer.count("algebra.snapshots")
        values = self.engine.evaluate_cells(trace, self._observations)
        return Snapshot(tuple(zip(self._observations, values)))

    def observationally_equal(self, left: Term, right: Term) -> bool:
        """True iff all simple observations agree on the two traces —
        the paper's criterion for ``s = s'``."""
        return self.snapshot(left) == self.snapshot(right)

    # ------------------------------------------------------------------
    # observational state space
    # ------------------------------------------------------------------
    def explore(
        self,
        max_states: int = 100_000,
        max_depth: int | None = None,
    ) -> StateGraph:
        """Breadth-first construction of the reachable observational
        state space (the set G of Section 4.4b, modulo observational
        equality).

        Args:
            max_states: stop (and mark the graph truncated) after this
                many distinct snapshots.
            max_depth: optionally bound the number of updates applied.

        Returns:
            The :class:`StateGraph` with one node per distinct
            snapshot, a witness trace per node, and every update edge
            between explored nodes.
        """
        with _span("explore") as obs_span:
            before = engine_counters(self.engine)
            packed = self._explore_packed(max_states, max_depth)
            if packed is not None:
                graph, items = packed
            else:
                graph, items = self._explore_serial(max_states, max_depth)
            obs_span.record(
                counter_delta(before, engine_counters(self.engine), items)
            )
            obs_span.count("explore.states", len(graph.states))
            obs_span.count("explore.transitions", len(graph.transitions))
        return graph

    def packed_explorer(self):
        """This algebra's
        :class:`~repro.algebraic.exploration.PackedExplorer`, built on
        first use, or ``None`` when the specification falls outside
        the canonical plan fragment."""
        explorer = self._packed_explorer
        if explorer is None:
            from repro.algebraic.exploration import (
                PackedExplorer,
                PackedUnsupported,
            )

            try:
                explorer = PackedExplorer(self)
            except PackedUnsupported:
                explorer = False
            self._packed_explorer = explorer
        return explorer or None

    def _explore_packed(
        self, max_states: int, max_depth: int | None
    ) -> tuple[StateGraph, int] | None:
        """Try the packed value-row explorer; ``None`` falls back to
        the object BFS, counted as ``explore.fallback.<reason>``:
        ``disabled`` (``packed=False``), ``outside_fragment``,
        ``unsupported_midrun`` (a plan gap during the run) or
        ``spec_error`` (a specification error the object path reports
        with its exact message)."""
        from repro.algebraic.exploration import PackedUnsupported

        if not self.packed:
            return _object_path("disabled")
        explorer = self.packed_explorer()
        if explorer is None:
            return _object_path("outside_fragment")
        try:
            return explorer.explore(max_states, max_depth)
        except PackedUnsupported:
            return _object_path("unsupported_midrun")
        except ReproError:
            # The object path re-raises the underlying specification
            # error (incompleteness, non-termination, ...) with the
            # exact term-level message.  Anything else is a bug in the
            # packed explorer and propagates.
            return _object_path("spec_error")

    def _explore_serial(
        self, max_states: int, max_depth: int | None
    ) -> tuple[StateGraph, int]:
        initial = self.initial_trace()
        initial_snapshot = self.snapshot(initial)
        items = 1
        states: dict[Snapshot, Term] = {initial_snapshot: initial}
        transitions: list[Transition] = []
        truncated = False
        frontier: deque[tuple[Snapshot, Term, int]] = deque(
            [(initial_snapshot, initial, 0)]
        )
        while frontier:
            source_snapshot, trace, depth = frontier.popleft()
            if max_depth is not None and depth >= max_depth:
                continue
            for update, params, successor in self.successor_traces(trace):
                target_snapshot = self.snapshot(successor)
                items += 1
                transitions.append(
                    Transition(
                        source_snapshot, update, params, target_snapshot
                    )
                )
                if target_snapshot not in states:
                    if len(states) >= max_states:
                        truncated = True
                        continue
                    states[target_snapshot] = successor
                    frontier.append(
                        (target_snapshot, successor, depth + 1)
                    )
        graph = StateGraph(initial_snapshot, states, transitions, truncated)
        return graph, items


def _object_path(reason: str) -> None:
    """Count why exploration falls back to the object BFS."""
    _count(f"explore.fallback.{reason}")
