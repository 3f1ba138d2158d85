"""Sufficient completeness of algebraic specifications.

Paper, Section 4.1: "We call an algebraic specification T = (L, A)
sufficiently complete iff for every ground term of the form
q(t1,...,tn), where q is a query function, there exists a parameter
name p such that A ⊢ q(t1,...,tn) = p.  Intuitively, a sufficiently
complete algebraic specification is one enabling the evaluation of all
queries."

Section 4.4a reduces the check to "termination of this system of
[mutually] recursive definitions (...) the basic idea is checking the
absence of circularity".  This module implements both halves:

* **Structural termination** (:func:`check_termination`): every query
  application in a rhs or condition must apply to a state that is a
  *proper subterm* of the lhs state (in constructor-based equations,
  the matched inner state variable).  A query call whose state argument
  re-applies an update does not decrease and is reported; if such
  non-decreasing calls form a cycle in the query dependency graph
  (built with :mod:`networkx`), the system is circular — the exact
  hazard the paper describes with ``offered``/``takes`` reducing to
  each other.

* **Constructor/ condition coverage** (:func:`check_coverage`): for
  every query and every constructor there must be equations, and for
  every ground instance over the parameter domains at least one
  equation's condition must hold — checked exhaustively on all traces
  up to a depth bound (the empirical counterpart of case exhaustion).
  Each trace's cells are evaluated in one batch on the engine's term
  arena, or, in the pipeline, read from the rows of the shared trace
  table (:mod:`repro.algebraic.tracetable`, built by plans inside the
  plan fragment); a trace with a gap is redone cell by cell, the
  reference loop, which words the gaps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import networkx as nx

from repro.errors import (
    IncompletenessError,
    NonTerminationError,
    ReproError,
)
from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.spec import AlgebraicSpec
from repro.algebraic.tracetable import TraceTable, evaluate_rows
from repro.logic.terms import App, Term, Var
from repro.obs.stats import counter_delta, engine_counters
from repro.obs.switch import SWITCH
from repro.obs.tracer import count as _count, record as _record, span as _span

__all__ = [
    "TerminationReport",
    "CoverageReport",
    "CompletenessReport",
    "check_termination",
    "check_coverage",
    "check_sufficient_completeness",
]


@dataclass(frozen=True)
class TerminationReport:
    """Outcome of the structural termination analysis.

    Attributes:
        ok: True iff the analysis certifies termination.
        structural: True iff *every* query call in every rhs/condition
            strictly decreases the state (the simple certificate).
        non_decreasing_calls: equations containing query calls whose
            state argument does not decrease, with the offending call.
        cycles: cycles of non-decreasing dependencies between queries
            (each a list of query names) — actual circularity.
    """

    ok: bool
    structural: bool
    non_decreasing_calls: tuple[tuple[ConditionalEquation, Term], ...] = (
        field(default_factory=tuple)
    )
    cycles: tuple[tuple[str, ...], ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.structural:
            return "terminating (all query calls structurally decrease)"
        if self.ok:
            return (
                "terminating (non-decreasing calls exist but form no "
                "dependency cycle)"
            )
        lines = ["possibly non-terminating; circular dependencies:"]
        for cycle in self.cycles:
            lines.append("  " + " -> ".join((*cycle, cycle[0])))
        return "\n".join(lines)


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of the constructor/condition coverage check.

    Attributes:
        ok: True iff every query evaluated on every checked trace.
        missing_constructors: (query, constructor) pairs with no
            defining equation at all.
        uncovered: ground query terms on which no equation's condition
            held (conditions not exhaustive), as strings.
        traces_checked: number of traces exhaustively evaluated.
    """

    ok: bool
    missing_constructors: tuple[tuple[str, str], ...] = field(
        default_factory=tuple
    )
    uncovered: tuple[str, ...] = field(default_factory=tuple)
    traces_checked: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return (
                f"covered (all queries evaluate on {self.traces_checked} "
                "traces)"
            )
        lines = ["coverage gaps:"]
        for query, constructor in self.missing_constructors:
            lines.append(
                f"  no equation for query {query!r} on constructor "
                f"{constructor!r}"
            )
        for term in self.uncovered:
            lines.append(f"  no condition held for {term}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CompletenessReport:
    """Combined sufficient-completeness verdict (Section 4.4a)."""

    termination: TerminationReport
    coverage: CoverageReport

    @property
    def ok(self) -> bool:
        """True iff both termination and coverage hold."""
        return self.termination.ok and self.coverage.ok

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        verdict = (
            "sufficiently complete"
            if self.ok
            else "NOT sufficiently complete"
        )
        return (
            f"{verdict}\n  termination: {self.termination}\n"
            f"  coverage: {self.coverage}"
        )


def _query_calls(spec: AlgebraicSpec, term: Term) -> list[App]:
    """All query applications occurring in ``term``."""
    return [
        sub
        for sub in term.subterms()
        if isinstance(sub, App) and spec.signature.is_query(sub.symbol)
    ]


def _equation_query_calls(
    spec: AlgebraicSpec, equation: ConditionalEquation
) -> list[App]:
    calls = _query_calls(spec, equation.rhs)
    if equation.condition is not None:
        for term in equation.condition.terms():
            calls.extend(_query_calls(spec, term))
    return calls


def check_termination(spec: AlgebraicSpec) -> TerminationReport:
    """Certify termination of the Q-equation system, or exhibit the
    circularity.

    A call ``q'(..., S)`` inside the equation for ``q(..., u(..., U))``
    *decreases* iff S is the bare state variable U (or, more generally,
    contains no update application).  Decreasing calls always
    terminate by induction on trace length.  Non-decreasing calls are
    collected into a dependency graph; the system is certified iff that
    graph is acyclic (a cycle is the paper's circularity hazard).
    """
    graph = nx.DiGraph()
    for symbol in spec.signature.queries:
        graph.add_node(symbol.name)
    non_decreasing: list[tuple[ConditionalEquation, Term]] = []
    for equation in spec.q_equations:
        for call in _equation_query_calls(spec, equation):
            state_arg = call.args[-1]
            decreasing = isinstance(state_arg, Var) or not any(
                isinstance(sub, App)
                and (
                    spec.signature.is_update(sub.symbol)
                    or spec.signature.is_initial(sub.symbol)
                )
                for sub in state_arg.subterms()
            )
            if not decreasing:
                non_decreasing.append((equation, call))
                graph.add_edge(equation.head_query, call.symbol.name)
    cycles = tuple(
        tuple(cycle) for cycle in nx.simple_cycles(graph)
    )
    structural = not non_decreasing
    return TerminationReport(
        ok=not cycles,
        structural=structural,
        non_decreasing_calls=tuple(non_decreasing),
        cycles=cycles,
    )


#: The early-exit cap on recorded coverage gaps: the scan stops once
#: this many are recorded.
_UNCOVERED_CAP = 10


def _missing_constructors(spec: AlgebraicSpec) -> list[tuple[str, str]]:
    signature = spec.signature
    missing: list[tuple[str, str]] = []
    constructors = [s.name for s in signature.updates] + [
        s.name for s in signature.initials
    ]
    for query in signature.queries:
        for constructor in constructors:
            if not spec.equations_for(query.name, constructor):
                missing.append((query.name, constructor))
    return missing


def check_coverage(
    spec: AlgebraicSpec,
    depth: int = 3,
    max_traces: int = 5_000,
    table: TraceTable | None = None,
) -> CoverageReport:
    """Check that every query evaluates on every trace up to ``depth``.

    First reports (query, constructor) pairs with no defining equation
    (static gap); then exhaustively evaluates all simple observations
    on all traces up to the depth bound, recording terms on which no
    equation's condition held (dynamic gap).

    A trace's observations are the row of the shared ``table`` when
    one was built on ``spec`` (the check then reads its prefix and
    evaluates nothing else), or one
    :meth:`~repro.algebraic.rewriting.RewriteEngine.evaluate_cells`
    batch on a trace algebra of its own.  The reference
    loop, one query per cell, redoes a trace whose batch raised, and
    runs every trace while coverage records.

    The rewrite work and the cells evaluated (``items``) are counted
    on the active span.
    """
    missing = _missing_constructors(spec)
    # While coverage records, fire sets come from the reference loop.
    batch = SWITCH.coverage is None
    if not batch:
        _count("completeness.fallback.coverage")
    entries = None
    if batch and table is not None and table.algebra.spec is spec:
        entries = table.entries(table.algebra, depth)
    if entries is not None:
        algebra = table.algebra
    else:
        algebra = TraceAlgebra(spec)
        traces = algebra.traces(depth)
        entries = (
            evaluate_rows(algebra, traces)
            if batch
            else ((trace, None) for trace in traces)
        )
    observations = algebra.observations
    before = engine_counters(algebra.engine)
    items = 0
    uncovered: list[str] = []
    traces_checked = 0
    for trace, row in itertools.islice(entries, max_traces):
        traces_checked += 1
        if row is not None:
            items += len(observations)
            continue
        if batch:
            _count("completeness.cell_fallbacks")
        for name, params in observations:
            items += 1
            try:
                algebra.query(name, *params, trace=trace)
            except (IncompletenessError, NonTerminationError) as exc:
                uncovered.append(str(exc))
                if len(uncovered) >= _UNCOVERED_CAP:
                    break
        if len(uncovered) >= _UNCOVERED_CAP:
            break
    report = CoverageReport(
        ok=not missing and not uncovered,
        missing_constructors=tuple(missing),
        uncovered=tuple(uncovered),
        traces_checked=traces_checked,
    )
    _record(counter_delta(before, engine_counters(algebra.engine), items))
    return report


def check_sufficient_completeness(
    spec: AlgebraicSpec,
    depth: int = 3,
    max_traces: int = 5_000,
    table: TraceTable | None = None,
) -> CompletenessReport:
    """Run both halves of the Section 4.4a check and combine them
    (``table``: the shared trace table, if one was built)."""
    with _span("completeness") as obs_span:
        with _span("completeness.termination"):
            termination = check_termination(spec)
        try:
            with _span("completeness.coverage", depth=depth):
                coverage = check_coverage(
                    spec, depth=depth, max_traces=max_traces, table=table
                )
        except ReproError as exc:  # pragma: no cover - defensive
            coverage = CoverageReport(
                ok=False, uncovered=(str(exc),), traces_checked=0
            )
        obs_span.count(
            "completeness.traces_checked", coverage.traces_checked
        )
    return CompletenessReport(termination=termination, coverage=coverage)
