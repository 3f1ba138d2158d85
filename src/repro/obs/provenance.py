"""Provenance records and counterexample rendering.

Every pipeline :class:`~repro.pipeline.check.Check` gets a provenance
record: which fingerprinted inputs it read, which parameter bounds it
ran under, and a digest of the coverage it exercised — the audit trail
that says *what a green check actually proved*.  On failure the same
module renders the witnesses as **minimal violating traces**: the
explorer's witness traces are breadth-first (shortest update count
from ``initiate``), so peeling a witness term yields the minimal state
sequence + update names the paper's Section 4.4 arguments reason
about, instead of a raw exception string.

Provenance records deliberately exclude anything that varies between
equivalent runs — wall times and cache hit/ran statuses — so the
records (and the coverage documents embedding them) are
byte-identical across worker counts and across cold/warm cache runs.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import ReproError
from repro.logic.terms import App, Term
from repro.obs.coverage import payload_digest

__all__ = [
    "trace_updates",
    "render_counterexample",
    "counterexamples_of",
    "minimal_witnesses",
    "render_failures",
    "pipeline_provenance",
]

#: Canonical check order for failure rendering (the graph's
#: declaration order).
_CHECK_ORDER = (
    "explore",
    "traces",
    "completeness",
    "static",
    "inclusion",
    "transitions",
    "induction",
    "congruence",
    "grammar",
    "second-third",
    "agreement",
)


# ---------------------------------------------------------------------
# trace peeling and rendering
# ---------------------------------------------------------------------
def trace_updates(term: Term) -> list[tuple[str, tuple[str, ...]]]:
    """The update sequence of a ground trace, initial-first.

    A trace term nests as ``u_n(p, u_{n-1}(p', ... initiate))``; this
    peels it into ``[(update, params), ...]`` in application order.
    """
    steps: list[tuple[str, tuple[str, ...]]] = []
    while isinstance(term, App) and term.args:
        params = tuple(str(arg) for arg in term.args[:-1])
        steps.append((term.symbol.name, params))
        term = term.args[-1]
    steps.reverse()
    return steps


def _prefixes(term: Term) -> list[Term]:
    """Every prefix of a trace term, initial-first (the state
    sequence's witnesses)."""
    chain: list[Term] = []
    while isinstance(term, App) and term.args:
        chain.append(term)
        term = term.args[-1]
    chain.append(term)
    chain.reverse()
    return chain


def render_counterexample(
    term: Term, algebra=None, indent: str = "    "
) -> str:
    """A minimal violating trace as a state sequence + update names.

    Witness traces from the explorer are breadth-first, hence of
    minimal update count.  When ``algebra`` is given each line also
    shows the observational snapshot reached (the state sequence); a
    specification error while evaluating it (the spec under
    verification may be incomplete or non-terminating) degrades the
    line to the bare update.
    """
    lines: list[str] = []
    for prefix in _prefixes(term):
        if isinstance(prefix, App) and prefix.args:
            params = ", ".join(str(arg) for arg in prefix.args[:-1])
            step = f"-> {prefix.symbol.name}({params})"
        else:
            step = str(prefix)
        snapshot = ""
        if algebra is not None:
            try:
                snapshot = f"  {algebra.snapshot(prefix)}"
            except ReproError:
                snapshot = ""
        lines.append(f"{indent}{step}{snapshot}")
    return "\n".join(lines)


# ---------------------------------------------------------------------
# per-check counterexample extraction
# ---------------------------------------------------------------------
def counterexamples_of(
    name: str, report: Any, algebra=None, graph=None
) -> list[str]:
    """Rendered minimal counterexamples of one failed check's report.

    Returns an empty list for passing (or absent) reports.  ``graph``
    supplies breadth-first witness traces for violations stated on
    snapshots rather than traces (transition consistency).
    """
    if report is None or bool(getattr(report, "ok", report)):
        return []
    out: list[str] = []
    violations = getattr(report, "violations", None)
    if name == "static" and violations:
        for trace, axiom in violations:
            out.append(
                f"axiom {axiom} fails after the trace:\n"
                + render_counterexample(trace, algebra)
            )
    elif name == "transitions" and violations:
        for transition, axiom in violations:
            witness = graph.states.get(transition.source) if graph else None
            params = ", ".join(transition.params)
            update = f"{transition.update}({params})"
            if witness is not None:
                out.append(
                    f"axiom {axiom} fails for update {update} "
                    "applied after the trace:\n"
                    + render_counterexample(witness, algebra)
                )
            else:
                out.append(
                    f"axiom {axiom} fails for update {update} "
                    f"from state {transition.source}"
                )
    elif name == "congruence" and violations:
        for violation in violations:
            params = ", ".join(violation.params)
            out.append(
                f"{violation.update}({params}, .) separates the "
                "observationally equal traces:\n"
                + render_counterexample(violation.left, algebra)
                + "\n  and\n"
                + render_counterexample(violation.right, algebra)
            )
    elif name == "inclusion":
        for structure, trace in getattr(
            report, "invalid_reachable", ()
        ):
            out.append(
                "reachable but invalid structure "
                f"{structure} via the trace:\n"
                + render_counterexample(trace, algebra)
            )
        for structure in getattr(report, "unreachable_valid", ()):
            out.append(f"valid but unreachable structure: {structure}")
    elif name == "completeness":
        coverage = getattr(report, "coverage", None)
        if coverage is not None:
            for missing in getattr(coverage, "missing_constructors", ()):
                query, constructor = missing
                out.append(
                    f"no equation covers query {query!r} on "
                    f"constructor {constructor!r}"
                )
            for uncovered in getattr(coverage, "uncovered", ()):
                out.append(str(uncovered))
        termination = getattr(report, "termination", None)
        if termination is not None and not termination.ok:
            for equation, call in getattr(
                termination, "non_decreasing_calls", ()
            ):
                out.append(
                    f"non-decreasing call {call} in {equation.describe()}"
                )
            for cycle in getattr(termination, "cycles", ()):
                out.append(
                    "query dependency cycle: " + " -> ".join(cycle)
                )
    elif name == "induction":
        for counterexample in getattr(report, "counterexamples", ()):
            out.append(str(counterexample))
    elif name in ("second-third", "agreement"):
        for failure in getattr(report, "failures", ()):
            out.append(str(failure))
    elif name == "grammar" and report is False:
        out.append(
            "the schema source is not generated by the RPR W-grammar"
        )
    return out


def minimal_witnesses(
    rendered: list[str], limit: int = 1
) -> tuple[list[str], int]:
    """The ``limit`` shortest rendered witnesses, plus the count of
    witnesses dropped.

    Shortness is measured in trace steps (rendered lines) with the
    text itself as the deterministic tie-break, so the selection is
    stable across worker counts and cache states.
    """
    ordered = sorted(rendered, key=lambda s: (s.count("\n"), s))
    return ordered[:limit], max(0, len(ordered) - limit)


def render_failures(
    results: Mapping[str, Any],
    algebra=None,
    graph_provider: Callable[[], Any] | None = None,
) -> str | None:
    """The minimal counterexample for every failing check, or ``None``.

    Each failing check contributes its single shortest witness (the
    explorer's traces are breadth-first, so the shortest rendering is
    a genuinely minimal violation) plus a count of further witnesses.

    Args:
        results: check name -> report object.
        algebra: optional trace algebra for state-sequence rendering.
        graph_provider: lazily builds the state graph (only invoked
            when a snapshot-based violation needs a witness trace).
    """
    blocks: list[str] = []
    graph = None
    for name in _CHECK_ORDER:
        report = results.get(name)
        if report is None or bool(getattr(report, "ok", report)):
            continue
        if (
            name == "transitions"
            and graph is None
            and graph_provider is not None
        ):
            try:
                graph = graph_provider()
            except ReproError:
                graph = None
        rendered = counterexamples_of(
            name, report, algebra=algebra, graph=graph
        )
        if rendered:
            picked, dropped = minimal_witnesses(rendered)
            body = "\n".join(picked)
            if dropped:
                body += (
                    f"\n    ... and {dropped} more "
                    f"counterexample{'s' if dropped != 1 else ''}"
                )
            blocks.append(f"[{name}] minimal counterexample:\n{body}")
    if not blocks:
        return None
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------
# per-check provenance records
# ---------------------------------------------------------------------
def pipeline_provenance(
    framework, result, graph, algebra=None
) -> list[dict]:
    """Provenance records for every execution of a pipeline run.

    Args:
        framework: the verified
            :class:`~repro.core.framework.DesignFramework`.
        result: the :class:`~repro.pipeline.scheduler.PipelineResult`.
        graph: the :class:`~repro.pipeline.graph.CheckGraph` the run
            used (source of each check's declared inputs and params).
        algebra: optional trace algebra for witness rendering.

    Each record carries the check's input fingerprints, its parameter
    bounds, a combined fingerprint over both, the
    digest of the coverage the check recorded, and rendered witnesses
    on failure.  Statuses (hit vs ran) and timings are deliberately
    omitted — see the module docstring.
    """
    from repro.pipeline.fingerprint import (
        combine_fingerprint,
        framework_parts,
    )

    parts = framework_parts(framework)
    records: list[dict] = []
    for execution in result.executions:
        check = graph[execution.name]
        run = execution.run
        record: dict[str, Any] = {
            "name": check.name,
            "title": check.title,
            "inputs": {key: parts[key] for key in check.inputs},
            "params": dict(sorted(check.params.items())),
            "fingerprint": combine_fingerprint(
                check.name, parts, check.inputs, check.params
            ),
            "ok": None if execution.status == "aborted" else execution.ok,
            "skipped": bool(run is not None and run.skipped),
            "aborted": execution.status == "aborted",
            "coverage_digest": (
                payload_digest(run.coverage)
                if run is not None and run.coverage is not None
                else None
            ),
        }
        if run is not None and not execution.ok:
            rendered = counterexamples_of(
                check.name, run.result, algebra=algebra
            )
            picked, dropped = minimal_witnesses(rendered, limit=3)
            record["witnesses"] = picked
            record["witnesses_dropped"] = dropped
        records.append(record)
    return records
