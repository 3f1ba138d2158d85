"""Span-based observability for the verification engine.

``repro.obs`` is the instrumentation seam of the system: a
zero-dependency span tracer (:mod:`repro.obs.tracer`), the per-check
statistics records read off its span counters
(:mod:`repro.obs.stats`), a named counter/gauge registry
(:mod:`repro.obs.metrics`), and trace exporters
(:mod:`repro.obs.export`) — Chrome ``chrome://tracing`` JSON, a flat
JSONL event log, and a human summary tree.

Tracing is off by default and costs one branch per instrumentation
point when off.  Turn it on around a block::

    from repro import obs

    tracer = obs.Tracer()
    with obs.activate(tracer):
        report = framework.verify()
    print(obs.format_tree(tracer))
    obs.write_chrome_trace(tracer, "trace.json")

or from the CLI: ``python -m repro verify courses --trace trace.json``.

Worker processes forked by :mod:`repro.parallel` inherit the enabled
flag; their per-chunk span buffers are merged back **in deterministic
chunk order**, so traces are deterministic for every worker count.

Live telemetry for the long-running serving processes
(:mod:`repro.obs.telemetry`) follows the same one-branch switch
discipline under its own ``TEL_STATE`` flag: mergeable log-bucketed
latency histograms, windowed rate counters and a structured event
ring, queryable over the ``telemetry`` op of ``repro serve`` and
``repro worker``, rendered by ``repro top``, and exportable as
Prometheus text exposition (:func:`~repro.obs.export.prometheus_text`).

Proof-coverage recording (:mod:`repro.obs.coverage`) follows the same
switch discipline under its own flag: a
:class:`~repro.obs.coverage.CoverageRecorder` collects which equation
dispatch cells, state-graph regions, and W-grammar rules a run
exercised; :mod:`repro.obs.provenance` attaches per-check provenance
records and renders minimal counterexample traces; and
:mod:`repro.obs.report_html` turns the resulting documents into a
self-contained HTML report.
"""

from repro.obs.coverage import (
    COV_STATE,
    CoverageRecorder,
    activate_coverage,
    capture_coverage,
    coverage_digest,
    coverage_document,
    coverage_enabled,
    coverage_json,
    disable_coverage,
    enable_coverage,
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
from repro.obs.telemetry import (
    TEL_STATE,
    LatencyHistogram,
    Telemetry,
    activate_telemetry,
    current_telemetry,
    disable_telemetry,
    enable_telemetry,
    telemetry_enabled,
)
from repro.obs.provenance import (
    counterexamples_of,
    pipeline_provenance,
    render_counterexample,
    render_failures,
    trace_updates,
)
from repro.obs.report_html import coverage_html
from repro.obs.tracer import (
    OBS_STATE,
    Span,
    Tracer,
    activate,
    capture,
    count,
    current_tracer,
    disable,
    enable,
    is_enabled,
    record,
    span,
)

__all__ = [
    "Span",
    "Tracer",
    "OBS_STATE",
    "span",
    "count",
    "record",
    "enable",
    "disable",
    "is_enabled",
    "current_tracer",
    "activate",
    "capture",
    "MetricsRegistry",
    "TEL_STATE",
    "LatencyHistogram",
    "Telemetry",
    "telemetry_enabled",
    "enable_telemetry",
    "disable_telemetry",
    "activate_telemetry",
    "current_telemetry",
    "chrome_trace_events",
    "to_chrome_json",
    "write_chrome_trace",
    "iter_flat_events",
    "write_jsonl",
    "format_tree",
    "prometheus_text",
    "COV_STATE",
    "CoverageRecorder",
    "coverage_enabled",
    "enable_coverage",
    "disable_coverage",
    "activate_coverage",
    "capture_coverage",
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
