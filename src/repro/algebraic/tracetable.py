"""One table of the depth-bounded traces and their observation rows.

Three checks read every ground trace of at most d updates together
with the value of every simple observation on it: (a) coverage
(Section 4.4a), the observational congruence check (Section 4.1) and
level-2/level-3 agreement.  :func:`build_trace_table` builds them
once per application, on the run's shared trace algebra:

* the traces come in :meth:`TraceAlgebra.traces` breadth-first order,
  so the traces of at most d updates are a *prefix* of the table, of
  Σ_{k≤d} nᵏ rows for n update instances;
* each row holds the observation values in
  :attr:`TraceAlgebra.observations` order, or ``None`` where
  evaluating them raised a specification error; a reader redoes such
  a row with its per-cell reference loop, which words the gap.

**Rows by plans.**  Inside the canonical plan fragment (the algebra's
:class:`~repro.algebraic.exploration.PackedExplorer` constructs), only
the initial row is evaluated by rewriting, and it is the explorer's,
shared with exploration.  Every other trace ``u(a, t)`` is built from
the explorer's instance as ``App(u, (*a, t))``, the interned term
:meth:`TraceAlgebra.apply` builds, and its row is the plan of ``u(a)``
applied to the row of its parent ``t``
(:meth:`~repro.algebraic.exploration.PackedExplorer.apply_instance`),
once per distinct parent row.  The explorer's rows are in observation
order, so they are the table's rows as they stand.  The build counts
``traces.by_plans``.

**The reference.**  :func:`evaluate_rows`, one
:meth:`~repro.algebraic.rewriting.RewriteEngine.evaluate_cells` batch
per trace in breadth-first order, builds the table instead, counted
as ``traces.fallback.<reason>``: ``outside_fragment`` (the explorer
does not construct), ``dispatch_gap`` (a plan's dispatch runs out
mid-build) or ``spec_error`` (a closure raises a specification
error).

**Plan rows equal the reference rows,** by induction along the
breadth-first order.  The initial rows are one batch on one engine.
Take a later trace ``u(a, t)``: its parent ``t`` comes earlier, so the
reference has evaluated every cell of ``t`` on this engine, and the
engine's memo keeps them.  By the lemma of
:func:`repro.algebraic.observation._congruent_by_construction`, the
engine evaluates a cell ``c`` of ``u(a, t)`` by firing the first
entry of the plan's dispatch for ``c`` whose condition holds on the
row of ``t``, and every cell that condition and its right-hand side
read is a cell of ``t``: a memo hit, which spends no fuel and no
recursion depth.  So each cell fires exactly one equation over its
parent's memoized cells, and its value is the plan's.  Nor could the
batch have raised: one equation spends one unit of fuel (rows agree
even at ``fuel=1``), it nests no deeper than its parent's memo hits,
and a dispatch that runs out, or a closure that raises, makes the
build fall back instead.

While coverage records, or when the algebra is not ``packed``, no
table is built: each reader runs its own reference loop, so coverage
payloads are exactly those of the standalone checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.rewriting import Value
from repro.errors import ReproError
from repro.logic.terms import App, Term
from repro.obs.stats import counter_delta, engine_counters
from repro.obs.switch import SWITCH
from repro.obs.tracer import count as _count, record as _record

__all__ = ["Row", "TraceTable", "build_trace_table", "evaluate_rows"]

#: One trace's observation values, or ``None`` where the batch raised.
Row = tuple[Value, ...] | None


def evaluate_rows(
    algebra: TraceAlgebra, traces: Iterable[Term]
) -> Iterator[tuple[Term, Row]]:
    """Yield each trace with its batch-evaluated observation row
    (``None`` when the batch raised a specification error), lazily."""
    engine = algebra.engine
    observations = algebra.observations
    for trace in traces:
        try:
            row = tuple(engine.evaluate_cells(trace, observations))
        except ReproError:
            row = None
        yield trace, row


@dataclass(frozen=True)
class TraceTable:
    """The traces of at most :attr:`depth` updates and their rows.

    Attributes:
        algebra: the trace algebra the rows were evaluated on.
        depth: the deepest trace length the table holds.
        traces: every trace, breadth-first.
        rows: each trace's observation row, or ``None`` where the
            batch raised.
        width: the number of update instances (n above).
        successors: the memoized plan applications: each row the
            plans were applied to (every row of a trace of fewer than
            :attr:`depth` updates), mapped to its successors' rows in
            ``update_instances()`` order.  Empty when the reference
            built the table.
    """

    algebra: TraceAlgebra
    depth: int
    traces: tuple[Term, ...]
    rows: tuple[Row, ...]
    width: int
    successors: Mapping[Row, tuple[Row, ...]]

    def entries(
        self, algebra: TraceAlgebra, depth: int
    ) -> list[tuple[Term, Row]] | None:
        """The ``(trace, row)`` pairs a depth-``depth`` reader on
        ``algebra`` reads: the prefix of traces with at most ``depth``
        updates.  ``None`` when the table cannot serve the reader (it
        was built on another algebra, or is shallower)."""
        if algebra is not self.algebra or depth > self.depth:
            return None
        size = sum(self.width**k for k in range(max(depth, 0) + 1))
        return list(zip(self.traces[:size], self.rows[:size]))


def build_trace_table(
    algebra: TraceAlgebra, depth: int
) -> TraceTable | None:
    """Build the rows of every trace of at most ``depth`` updates, by
    plans where the fragment allows, else by the reference.

    The rewrite work and the traces built (``items``) are counted on
    the active span.  Returns ``None``, evaluating nothing, while
    coverage records or when the algebra is not ``packed``.
    """
    if SWITCH.coverage is not None or not algebra.packed:
        return None
    before = engine_counters(algebra.engine)
    built = _by_plans(algebra, depth)
    if built is None:
        traces: list[Term] = []
        rows: list[Row] = []
        for trace, row in evaluate_rows(algebra, algebra.traces(depth)):
            traces.append(trace)
            rows.append(row)
        successors: Mapping[Row, tuple[Row, ...]] = {}
    else:
        traces, rows, successors = built
    _record(
        counter_delta(before, engine_counters(algebra.engine), len(traces))
    )
    width = sum(1 for _ in algebra.update_instances())
    return TraceTable(
        algebra, depth, tuple(traces), tuple(rows), width, successors
    )


def _by_plans(algebra: TraceAlgebra, depth: int):
    """``(traces, rows, successors)`` by the explorer's plans, or
    ``None`` where the reference must build the table, counting why."""
    # Imported here, as in TraceAlgebra: the packed explorer and the
    # plan compiler load only when a check uses them.
    from repro.algebraic.exploration import PackedUnsupported

    explorer = algebra.packed_explorer()
    if explorer is None:
        reason = "outside_fragment"
    else:
        try:
            built = _apply_plans(algebra, explorer, depth)
        except PackedUnsupported:
            reason = "dispatch_gap"
        except ReproError:
            # The reference words the specification error; anything
            # else is a bug in the plans and propagates.
            reason = "spec_error"
        else:
            _count("traces.by_plans")
            return built
    _count(f"traces.fallback.{reason}")
    return None


def _apply_plans(algebra: TraceAlgebra, explorer, depth: int):
    """Build the table level by level, in :meth:`TraceAlgebra.traces`
    order, applying each instance's plan once per distinct parent
    row."""
    cells = explorer.cells
    instances = explorer.instances
    apply_instance = explorer.apply_instance
    traces: list[Term] = [algebra.initial_trace()]
    rows: list[tuple] = [explorer.initial_row()]
    applied: dict[tuple, tuple[tuple, ...]] = {}
    start = 0
    for _ in range(depth):
        end = len(traces)
        for index in range(start, end):
            row = rows[index]
            children = applied.get(row)
            if children is None:
                get = dict(zip(cells, row)).__getitem__
                children = applied[row] = tuple(
                    apply_instance(instance, row, get)
                    for instance in instances
                )
            parent = traces[index]
            for _update, _params, symbol, arg_terms, _ in instances:
                traces.append(App(symbol, (*arg_terms, parent)))
            rows.extend(children)
        start = end
    return traces, rows, applied
