"""Span-based observability for the verification engine.

``repro.obs`` is the instrumentation seam of the system: a
zero-dependency span tracer (:mod:`repro.obs.tracer`), the per-check
statistics records read off its span counters
(:mod:`repro.obs.stats`), a named counter/gauge registry
(:mod:`repro.obs.metrics`), and trace exporters
(:mod:`repro.obs.export`) — Chrome ``chrome://tracing`` JSON, a flat
JSONL event log, and a human summary tree.

Tracing, proof coverage and live telemetry share one process-wide
switch (:mod:`repro.obs.switch`): :data:`SWITCH` holds the active
tracer, coverage recorder and telemetry registry in three slots,
``None`` when the facility is off, so each instrumentation point
costs one attribute load and one branch while its facility is off.
:func:`activate` turns facilities on around a block and restores all
three slots afterwards::

    from repro import obs

    tracer = obs.Tracer()
    with obs.activate(tracer):
        report = framework.verify()
    print(obs.format_tree(tracer))
    obs.write_chrome_trace(tracer, "trace.json")

or from the CLI: ``python -m repro verify courses --trace trace.json``.

Worker processes forked by :mod:`repro.parallel` inherit the switch;
their per-chunk span buffers are merged back **in deterministic
chunk order**, so traces are deterministic for every worker count.

Live telemetry for the long-running serving processes
(:mod:`repro.obs.telemetry`, ``activate(telemetry=Telemetry())``):
mergeable log-bucketed latency histograms, windowed rate counters and
a structured event ring, queryable over the ``telemetry`` op of
``repro serve`` and ``repro worker``, rendered by ``repro top``, and
exportable as Prometheus text exposition
(:func:`~repro.obs.export.prometheus_text`).

Proof-coverage recording (:mod:`repro.obs.coverage`,
``activate(coverage=CoverageRecorder())``): a
:class:`~repro.obs.coverage.CoverageRecorder` collects which equation
dispatch cells, state-graph regions, and W-grammar rules a run
exercised; :mod:`repro.obs.provenance` attaches per-check provenance
records and renders minimal counterexample traces; and
:mod:`repro.obs.report_html` turns the resulting documents into a
self-contained HTML report.
"""

from repro.obs.coverage import (
    CoverageRecorder,
    coverage_digest,
    coverage_document,
    coverage_json,
    payload_digest,
    state_graph_census,
)
from repro.obs.export import (
    chrome_trace_events,
    format_tree,
    iter_flat_events,
    prometheus_text,
    to_chrome_json,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import LatencyHistogram, Telemetry
from repro.obs.provenance import (
    counterexamples_of,
    pipeline_provenance,
    render_counterexample,
    render_failures,
    trace_updates,
)
from repro.obs.report_html import coverage_html
from repro.obs.switch import SWITCH, activate
from repro.obs.tracer import Span, Tracer, count, record, span

__all__ = [
    "SWITCH",
    "activate",
    "Span",
    "Tracer",
    "span",
    "count",
    "record",
    "MetricsRegistry",
    "LatencyHistogram",
    "Telemetry",
    "chrome_trace_events",
    "to_chrome_json",
    "write_chrome_trace",
    "iter_flat_events",
    "write_jsonl",
    "format_tree",
    "prometheus_text",
    "CoverageRecorder",
    "state_graph_census",
    "coverage_document",
    "coverage_digest",
    "payload_digest",
    "coverage_json",
    "coverage_html",
    "trace_updates",
    "render_counterexample",
    "counterexamples_of",
    "render_failures",
    "pipeline_provenance",
]
