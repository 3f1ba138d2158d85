"""E14 — observability overhead: spans off, spans on, and export cost.

The tracer's contract is that *disabled* instrumentation is free: every
hot-path call is one load of the ``tracer`` slot of
:data:`repro.obs.switch.SWITCH` and one branch, and
:func:`repro.obs.tracer.span` returns a shared no-op handle.  The
benchmark pair ``bench_snapshot_plain`` / ``bench_snapshot_noop_spans``
runs the same snapshot workload with and without a layer of disabled
span/count calls; ``benchmarks/check_obs_overhead.py`` gates their
ratio at 1.05 (<= 5% overhead).  The ``traced`` variants quantify the
cost of tracing *on* (informational, not gated — enabling tracing is
an explicit opt-in).

Expected shape: plain ~= noop_spans (the gate); traced costs a few
percent more (span allocation per coarse unit); Chrome export is
linear in span count and far from any hot path.

The serving pair ``bench_serving_tel_off`` / ``bench_serving_tel_on``
gates the *enabled* live-telemetry cost of the runtime serving stack
(``repro serve`` always turns telemetry on): the same mixed
update/query/reject workload through ``RuntimeServer.handle_request``
— JSON decode/encode included — must stay within 5% with telemetry
recording.
"""

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.rewriting import RewriteEngine
from repro.applications.courses import courses_algebraic
from repro.logic.terms import App
from repro.obs.export import to_chrome_json
from repro.obs.switch import SWITCH, activate
from repro.obs.tracer import Tracer, count, span


def _snapshot_setup():
    """The courses spec, a 30-update churn trace, and the observation
    terms of a full snapshot (evaluated on a fresh engine per round,
    so every round does the full rewrite work)."""
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


def bench_snapshot_plain(benchmark):
    """Baseline: the full snapshot workload, tracing disabled, in the
    same ``for``/``append`` loop as the instrumented variants, so the
    gated ratio measures only their span and counter calls."""
    spec, terms = _snapshot_setup()
    assert SWITCH.tracer is None

    def run():
        engine = RewriteEngine(spec)
        values = []
        for term in terms:
            values.append(engine.evaluate(term))
        return values

    benchmark(run)


def bench_snapshot_noop_spans(benchmark):
    """The identical workload under the layer of *disabled* span and
    counter calls the engine instrumentation adds per coarse unit —
    the gated <= 5% comparison against plain."""
    spec, terms = _snapshot_setup()
    assert SWITCH.tracer is None

    def run():
        with span("bench.snapshot", length=30):
            engine = RewriteEngine(spec)
            values = []
            for term in terms:
                count("bench.observations")
                values.append(engine.evaluate(term))
            return values

    benchmark(run)


def bench_snapshot_traced(benchmark):
    """The workload with tracing ON and a fresh tracer per call
    (informational: the opt-in cost of recording)."""
    spec, terms = _snapshot_setup()

    def run():
        with activate(Tracer()):
            with span("bench.snapshot", length=30):
                engine = RewriteEngine(spec)
                values = []
                for term in terms:
                    count("bench.observations")
                    values.append(engine.evaluate(term))
                return values

    benchmark(run)


def bench_explore_off(benchmark):
    """Full state-space exploration, tracing disabled."""
    spec = courses_algebraic()
    assert SWITCH.tracer is None
    benchmark(lambda: TraceAlgebra(spec).explore())


def bench_explore_traced(benchmark):
    """Full exploration with tracing ON (spans per BFS level plus the
    per-evaluate counters)."""
    spec = courses_algebraic()

    def run():
        with activate(Tracer()):
            return TraceAlgebra(spec).explore()

    benchmark(run)


def bench_export_chrome(benchmark):
    """Chrome-JSON export of a 1000-span tree (cold-path cost)."""
    tracer = Tracer()
    with tracer.span("root"):
        for outer in range(100):
            with tracer.span("check", index=outer):
                for _ in range(9):
                    with tracer.span("unit") as unit:
                        unit.count("items", 3)
    benchmark(to_chrome_json, tracer)


def _serving_setup():
    """A journaled bank runtime behind a :class:`RuntimeServer` and a
    round-stable mixed workload, pre-encoded as JSON lines.

    Each round opens, queries, and closes a fresh-per-index account
    (the open/close toggle returns the state to its starting shape,
    so every benchmark round does identical work) and drives one
    precondition rejection.  ``json.loads``/``json.dumps`` stay in
    the measured loop — the asyncio layer does its encoding outside
    ``handle_request``, so the round mirrors a full request cycle.
    """
    import json
    import tempfile

    from repro.runtime.apps import build_app
    from repro.runtime.server import RuntimeServer
    from repro.runtime.service import SpecRuntime

    app = build_app("bank")
    tmp = tempfile.TemporaryDirectory(prefix="bench-serving-")
    runtime = SpecRuntime(
        app.framework,
        app.descriptions,
        data_dir=tmp.name,
        fsync=False,
    )
    server = RuntimeServer(runtime)
    requests = []
    for index in range(8):
        account = f"b{index}"
        requests.append(
            {
                "op": "update",
                "update": "open_account",
                "params": [account],
            }
        )
        requests.append(
            {"op": "query", "query": "open", "params": [account]}
        )
        requests.append(
            {
                "op": "update",
                "update": "close_account",
                "params": [account],
            }
        )
        requests.append(
            {"op": "update", "update": "deposit", "params": ["zz"]}
        )
    encoded = [json.dumps(request) for request in requests]
    return server, encoded, tmp


def _serve_round(server, encoded):
    import json

    for line in encoded:
        response, _ = server.handle_request(json.loads(line))
        json.dumps(response)


def bench_serving_tel_off(benchmark):
    """Baseline: the serving workload with telemetry disabled (each
    instrumentation point costs one load of the switch's
    ``telemetry`` slot and one branch)."""
    server, encoded, tmp = _serving_setup()
    assert SWITCH.telemetry is None
    try:
        benchmark(_serve_round, server, encoded)
    finally:
        tmp.cleanup()


def bench_serving_tel_on(benchmark):
    """The identical workload with telemetry ON — the pair gated at
    <= 5% by ``check_obs_overhead.py`` (``repro serve`` always
    enables telemetry, so its *enabled* cost is the contract)."""
    from repro.obs.telemetry import Telemetry

    server, encoded, tmp = _serving_setup()
    try:
        with activate(telemetry=Telemetry()):
            benchmark(_serve_round, server, encoded)
    finally:
        tmp.cleanup()
