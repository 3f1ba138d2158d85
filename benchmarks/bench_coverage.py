"""E16 — proof-coverage overhead and report-render cost.

Coverage recording shares the tracer's switch: with the ``coverage``
slot of :data:`repro.obs.switch.SWITCH` empty every instrumentation
point is one attribute load and branch, and that case is already
covered by the 5% gate of :mod:`benchmarks.bench_obs`.  What this module measures is coverage *ON* — the opt-in
cost of recording dispatch cells and fired-equation sets on the
rewrite hot path.  ``benchmarks/check_obs_overhead.py --coverage-run``
gates the pair ``bench_snapshot_cov_off`` / ``bench_snapshot_cov_on``
at 1.15 (<= 15% within-run overhead).

The render benchmarks quantify the cold path: assembling the coverage
document over a full courses run and emitting the byte-stable JSON
and the self-contained HTML report.
"""

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.rewriting import RewriteEngine
from repro.applications.courses import courses_algebraic
from repro.logic.terms import App
from repro.obs.coverage import (
    CoverageRecorder,
    coverage_document,
    coverage_json,
    state_graph_census,
)
from repro.obs.report_html import coverage_html
from repro.obs.switch import SWITCH, activate


def _snapshot_setup():
    """The courses spec, a 30-update churn trace, and the observation
    terms of a full snapshot (mirrors ``bench_obs._snapshot_setup``
    so the cov-off numbers are comparable across the two modules)."""
    spec = courses_algebraic()
    algebra = TraceAlgebra(spec)
    steps = [
        ("offer", "c1"),
        ("enroll", "s1", "c1"),
        ("offer", "c2"),
        ("transfer", "s1", "c1", "c2"),
        ("cancel", "c1"),
        ("enroll", "s2", "c2"),
        ("offer", "c1"),
    ]
    trace = algebra.initial_trace()
    for index in range(30):
        name, *params = steps[index % len(steps)]
        trace = algebra.apply(name, *params, trace=trace)
    signature = spec.signature
    terms = []
    for name, params in algebra.observations:
        symbol = signature.query(name)
        args = [
            signature.value(sort, value)
            for sort, value in zip(symbol.arg_sorts[:-1], params)
        ]
        terms.append(App(symbol, (*args, trace)))
    return spec, terms


def bench_snapshot_cov_off(benchmark):
    """Baseline: the full snapshot workload, coverage disabled."""
    spec, terms = _snapshot_setup()
    assert SWITCH.coverage is None

    def run():
        engine = RewriteEngine(spec)
        return [engine.evaluate(term) for term in terms]

    benchmark(run)


def bench_snapshot_cov_on(benchmark):
    """The identical workload with coverage ON and a fresh recorder
    per call — the gated <= 15% comparison against cov_off."""
    spec, terms = _snapshot_setup()

    def run():
        with activate(coverage=CoverageRecorder()):
            engine = RewriteEngine(spec)
            return [engine.evaluate(term) for term in terms]

    benchmark(run)


def bench_explore_cov_on(benchmark):
    """Full state-space exploration with coverage ON (informational:
    exploration records nothing per state, only the final census)."""
    spec = courses_algebraic()

    def run():
        recorder = CoverageRecorder()
        with activate(coverage=recorder):
            graph = TraceAlgebra(spec).explore()
            recorder.record_explore(state_graph_census(graph))
            return graph

    benchmark(run)


def _recorded_run():
    """A merged recorder over a full courses pipeline run (the input
    of the render benchmarks)."""
    from repro.cli import APPLICATIONS

    framework = APPLICATIONS["courses"]()
    recorder = CoverageRecorder()
    with activate(coverage=recorder):
        framework.verify_pipeline()
    return framework.algebraic, recorder


def bench_document_assemble(benchmark):
    """Assembling the coverage document from a merged recorder."""
    spec, recorder = _recorded_run()
    benchmark(
        coverage_document, recorder, spec, application="courses"
    )


def bench_document_json(benchmark):
    """Byte-stable JSON emission of one coverage document."""
    spec, recorder = _recorded_run()
    document = coverage_document(recorder, spec, application="courses")
    benchmark(coverage_json, document)


def bench_document_html(benchmark):
    """Self-contained HTML rendering of one coverage document."""
    spec, recorder = _recorded_run()
    document = coverage_document(recorder, spec, application="courses")
    benchmark(coverage_html, document)
