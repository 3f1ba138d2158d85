"""`SpecRuntime`: the admission pipeline of the serving runtime.

One update request flows through five stages, all O(delta):

1. **plan** — the cached compiled :class:`~repro.runtime.state.UpdatePlan`
   for the ground update term;
2. **precondition** — the structured description's condition for state
   change; a false precondition *rejects* the request (the trace
   semantics would silently no-op, so rejection and no-op denote the
   same successor state — which is what keeps the differential tests
   against trace re-reduction valid);
3. **evaluate** — the plan computes the write set against the current
   cells without mutating them;
4. **guard** — static instances reading a written cell are re-checked
   on the overlay (post) state, transition instances on the
   (before, overlay) step; any violation rejects the request with its
   witness, leaving store and journal untouched;
5. **commit** — the delta is applied, the sequence number advances and
   the update term is journaled (rejections never reach the journal).

Construction recovers from the journal directory when one is given:
snapshot load, replay of surviving entries, then a full guard check —
the induction base for the incremental guard skipping (see
:mod:`repro.runtime.guards`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.errors import ServingError
from repro.obs.switch import SWITCH
from repro.obs.tracer import span as _span
from repro.algebraic.description import StructuredDescription
from repro.core.framework import DesignFramework
from repro.runtime.guards import AdmissionGuard, GuardViolation
from repro.runtime.journal import Journal
from repro.runtime.state import Cell, MaterializedState

__all__ = ["ExecutionResult", "SpecRuntime"]

Value = Hashable

_MISSING = object()


@dataclass
class ExecutionResult:
    """Outcome of one update request.

    Attributes:
        accepted: True iff the update was admitted (a precondition-true
            update whose delta is empty is admitted with no effects).
        seq: the journal sequence number after the request — advanced
            only by an admitted, state-changing update.
        update: the requested update function.
        params: its ground parameters.
        delta: the committed cell writes (empty when rejected/no-op).
        violation: the guard witness when rejected, else ``None``.
    """

    accepted: bool
    seq: int
    update: str
    params: tuple[str, ...]
    delta: dict[Cell, Value] = field(default_factory=dict)
    violation: GuardViolation | None = None

    def to_dict(self) -> dict:
        """JSON-ready form (the server's update response body)."""
        return {
            "accepted": self.accepted,
            "seq": self.seq,
            "update": self.update,
            "params": list(self.params),
            "delta": [
                [query, list(params), value]
                for (query, params), value in sorted(self.delta.items())
            ],
            "violation": (
                None
                if self.violation is None
                else self.violation.to_dict()
            ),
        }


#: Valuation cap for precondition decision tables (matches the
#: guards' table compilation).
_CONDITION_TABLE_LIMIT = 4096


def _tabulate_condition(closure, reads, guard):
    """Compile a precondition closure into ``(cells, allowed)`` by
    enumerating the read cells' valuations; ``allowed`` is ``None``
    when the space is too large (the caller keeps the closure)."""
    cells = tuple(sorted(reads))
    domains = [guard._cell_values(cell) for cell in cells]
    space = 1
    for domain in domains:
        space *= len(domain)
    if not (0 < space <= _CONDITION_TABLE_LIMIT):
        return cells, None
    allowed = frozenset(
        values
        for values in itertools.product(*domains)
        if closure(dict(zip(cells, values)).__getitem__)
    )
    return cells, allowed


class SpecRuntime:
    """A served instance of one verified application.

    Args:
        framework: the three-level design (information axioms become
            the admission guards; the algebraic spec drives the store).
        descriptions: structured descriptions supplying per-update
            preconditions; without them precondition-false updates
            no-op instead of being rejected.
        data_dir: journal directory; ``None`` serves in-memory only.
        fsync_batch / fsync: journal group-commit knobs
            (see :class:`~repro.runtime.journal.Journal`).
        compact_every: auto-compact after this many journaled updates
            (``None`` disables; :meth:`compact` is always available).

    Raises:
        ServingError: if recovery produces a state violating the
            application's own constraints (damaged snapshot), or the
            guards cannot be compiled.
    """

    def __init__(
        self,
        framework: DesignFramework,
        descriptions: list[StructuredDescription] | None = None,
        data_dir: str | None = None,
        fsync_batch: int = 64,
        fsync: bool = True,
        compact_every: int | None = None,
    ):
        self.framework = framework
        self.name = framework.name
        self.store = MaterializedState(
            framework.algebraic, descriptions
        )
        self.guard = AdmissionGuard(
            framework.information,
            framework.algebraic,
            framework.carriers,
            framework.interpretation,
        )
        self.journal = (
            Journal(data_dir, fsync_batch=fsync_batch, fsync=fsync)
            if data_dir is not None
            else None
        )
        self.seq = 0
        self.accepted_count = 0
        self.rejected_count = 0
        self.query_count = 0
        self._compact_every = compact_every
        self._since_compaction = 0
        #: Per-plan admission artifacts, keyed like the plan cache:
        #: the precomputed precondition witness and the guard
        #: instances reading any of the plan's candidate write cells
        #: (a superset of any delta's readers, so checking them is
        #: sound and needs no per-request index walk).
        self._admission: dict[
            tuple[str, tuple[str, ...]], tuple
        ] = {}
        #: Cached ``runtime.update.<kind>.<outcome>`` histogram names
        #: so the telemetry hot path never formats strings.
        self._tel_names: dict[tuple[str, str], str] = {}
        self._started = time.monotonic()
        self.recovery_warnings: list[str] = []
        if self.journal is not None:
            self._recover()
        self._base_check()

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        with _span("runtime.recover", application=self.name):
            recovered = self.journal.recover()
            self.recovery_warnings = list(recovered.warnings)
            if recovered.cells is not None:
                self.store.load(recovered.cells)
            self.seq = recovered.seq
            for seq, update, params in recovered.entries:
                self.store.apply(update, params)
                self.seq = seq

    def _base_check(self) -> None:
        violations = self.guard.check_now(self.store.getter)
        if violations:
            raise ServingError(
                "recovered state violates the application's "
                "constraints: "
                + "; ".join(str(v) for v in violations)
            )

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def query(self, name: str, params: Iterable[str]) -> Value:
        """Answer one query from the materialized cells."""
        self.query_count += 1
        telemetry = SWITCH.telemetry
        if telemetry is not None:
            t0 = time.perf_counter_ns()
            value = self.store.query(name, tuple(params))
            telemetry.observe(
                "runtime.query",
                time.perf_counter_ns() - t0,
                counter="runtime.queries",
            )
            return value
        return self.store.query(name, tuple(params))

    def _tel_name(self, update: str, outcome: str) -> str:
        """The cached histogram name for one (update, outcome)."""
        key = (update, outcome)
        name = self._tel_names.get(key)
        if name is None:
            name = f"runtime.update.{update}.{outcome}"
            self._tel_names[key] = name
        return name

    def _admission_of(self, plan) -> tuple:
        """The cached admission artifacts for one plan: the
        precondition as (cells, allowed-valuations, witness) and the
        guard decision tables touching the plan's candidate cells."""
        key = (plan.update, plan.params)
        cached = self._admission.get(key)
        if cached is None:
            precondition = None
            if plan.precondition is not None:
                witness = GuardViolation(
                    "precondition",
                    plan.precondition_text,
                    tuple(
                        (f"p{i}", value)
                        for i, value in enumerate(plan.params)
                    ),
                    tuple(sorted(plan.precondition_reads)),
                )
                precondition = (
                    *_tabulate_condition(
                        plan.precondition,
                        plan.precondition_reads,
                        self.guard,
                    ),
                    witness,
                )
            cells = plan.candidate_cells
            cached = (
                precondition,
                self.guard.static_tables_for(cells),
                self.guard.transition_tables_for(cells),
            )
            self._admission[key] = cached
        return cached

    def execute(
        self, update: str, params: Iterable[str]
    ) -> ExecutionResult:
        """Admit or reject one update request (the five-stage
        pipeline described in the module docstring)."""
        params = tuple(params)
        telemetry = SWITCH.telemetry
        started = time.perf_counter_ns() if telemetry is not None else 0
        store = self.store
        plan = store.plan(update, params)
        get = store.getter
        precondition, statics, transitions = self._admission_of(plan)

        if precondition is not None:
            pre_cells, allowed, witness = precondition
            if allowed is not None:
                holds = (
                    tuple(map(get, pre_cells)) in allowed
                )
            else:
                holds = bool(plan.precondition(get))
            if not holds:
                return self._reject(update, params, witness, started)

        writes = store.compute_writes(plan)
        if not writes:
            self.accepted_count += 1
            if telemetry is not None:
                telemetry.observe(
                    self._tel_name(update, "admit"),
                    time.perf_counter_ns() - started,
                    counter="runtime.updates.accepted",
                    update=update,
                    outcome="noop",
                )
            return ExecutionResult(True, self.seq, update, params)

        missing = _MISSING
        writes_get = writes.get

        def after(cell: Cell) -> Value:
            value = writes_get(cell, missing)
            if value is missing:
                return get(cell)
            return value

        if plan.fallback:
            # The plan has no static candidate-cell set; index the
            # guards by the actual delta instead.
            statics = self.guard.static_tables_for(writes)
            transitions = self.guard.transition_tables_for(writes)
        for table in statics:
            allowed = table.allowed
            if allowed is not None:
                if tuple(map(after, table.cells)) not in allowed:
                    return self._reject(
                        update,
                        params,
                        table.static_witness(after),
                        started,
                    )
            else:
                for instance in table.members:
                    if not instance.closure(after):
                        return self._reject(
                            update,
                            params,
                            instance.violation(),
                            started,
                        )
        if transitions:
            gets = (get, after)
            for table in transitions:
                allowed = table.allowed
                if allowed is not None:
                    step = (
                        tuple(map(get, table.cells)),
                        tuple(map(after, table.cells)),
                    )
                    if step not in allowed:
                        return self._reject(
                            update,
                            params,
                            table.transition_witness(gets),
                            started,
                        )
                else:
                    for instance in table.members:
                        if not instance.closure(gets):
                            return self._reject(
                                update,
                                params,
                                instance.violation(),
                                started,
                            )

        store.commit(writes)
        self.seq += 1
        self.accepted_count += 1
        if self.journal is not None:
            self.journal.append(self.seq, update, params)
            self._since_compaction += 1
            if (
                self._compact_every is not None
                and self._since_compaction >= self._compact_every
            ):
                self.compact()
        if telemetry is not None:
            telemetry.observe(
                self._tel_name(update, "admit"),
                time.perf_counter_ns() - started,
                counter="runtime.updates.accepted",
                update=update,
                outcome="commit",
            )
        return ExecutionResult(True, self.seq, update, params, writes)

    def _reject(
        self,
        update: str,
        params: tuple[str, ...],
        violation: GuardViolation,
        started: int = 0,
    ) -> ExecutionResult:
        self.rejected_count += 1
        if started:
            telemetry = SWITCH.telemetry
            telemetry.observe(
                self._tel_name(update, "reject"),
                time.perf_counter_ns() - started,
                counter="runtime.updates.rejected",
                update=update,
                violation=violation.kind,
            )
            telemetry.inc(f"runtime.rejected.{violation.kind}")
        return ExecutionResult(
            False, self.seq, update, params, {}, violation
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Snapshot the store into the journal directory and truncate
        the journal (no-op without a journal)."""
        if self.journal is None:
            return
        with _span("runtime.compact", application=self.name):
            self.journal.compact(self.store.cells, self.seq)
        self._since_compaction = 0

    def flush(self) -> None:
        """Force the journal's buffered appends to disk."""
        if self.journal is not None:
            self.journal.flush()

    def close(self) -> None:
        """Flush and release the journal."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "SpecRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def stats(self) -> dict:
        """Serving counters (the server's ``stats`` response body)."""
        out = {
            "application": self.name,
            "seq": self.seq,
            "uptime_seconds": round(
                time.monotonic() - self._started, 3
            ),
            "accepted": self.accepted_count,
            "rejected": self.rejected_count,
            "queries": self.query_count,
            "cells": len(self.store.cells),
            "static_instances": self.guard.static_instances,
            "transition_instances": self.guard.transition_instances,
            "plans": self.store.plan_counts,
            "guard_tables": {
                kind: dict(tally)
                for kind, tally in self.guard.table_counts.items()
            },
            "recovery_warnings": list(self.recovery_warnings),
        }
        if self.journal is not None:
            out["journal"] = {
                "appends": self.journal.appends,
                "syncs": self.journal.syncs,
                "compactions": self.journal.compactions,
            }
        return out

    def metrics_registry(self):
        """The serving counters folded into the ``runtime.*``
        namespace of a :class:`~repro.obs.metrics.MetricsRegistry`
        — the one schema shared by ``--metrics-json`` and the
        server's ``stats`` op."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.record_runtime(self.stats)
        return registry
