"""One table of the depth-bounded traces and their observation rows.

Three checks read every ground trace of at most d updates together
with the value of every simple observation on it: (a) coverage
(Section 4.4a), the observational congruence check (Section 4.1) and
level-2/level-3 agreement.  :func:`build_trace_table` evaluates them
once per application, on the run's shared trace algebra:

* the traces come in :meth:`TraceAlgebra.traces` breadth-first order,
  so the traces of at most d updates are a *prefix* of the table, of
  Σ_{k≤d} nᵏ rows for n update instances;
* each row holds the observation values from one
  :meth:`~repro.algebraic.rewriting.RewriteEngine.evaluate_cells`
  batch (the reference semantics), in
  :attr:`TraceAlgebra.observations` order, or ``None`` where the batch
  raised a specification error; a reader redoes such a row with its
  per-cell reference loop, which words the gap.

While coverage records, or when the algebra is not ``packed``, no
table is built: each reader runs its own reference loop, so coverage
payloads are exactly those of the standalone checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.rewriting import Value
from repro.errors import ReproError
from repro.logic.terms import Term
from repro.obs.stats import counter_delta, engine_counters
from repro.obs.switch import SWITCH
from repro.obs.tracer import record as _record

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
    """

    algebra: TraceAlgebra
    depth: int
    traces: tuple[Term, ...]
    rows: tuple[Row, ...]
    width: int

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
    """Evaluate every trace of at most ``depth`` updates once.

    The rewrite work and the traces evaluated (``items``) are counted
    on the active span.  Returns ``None``, evaluating nothing, while
    coverage records or when the algebra is not ``packed``.
    """
    if SWITCH.coverage is not None or not algebra.packed:
        return None
    before = engine_counters(algebra.engine)
    traces: list[Term] = []
    rows: list[Row] = []
    for trace, row in evaluate_rows(algebra, algebra.traces(depth)):
        traces.append(trace)
        rows.append(row)
    _record(
        counter_delta(before, engine_counters(algebra.engine), len(traces))
    )
    width = sum(1 for _ in algebra.update_instances())
    return TraceTable(algebra, depth, tuple(traces), tuple(rows), width)
