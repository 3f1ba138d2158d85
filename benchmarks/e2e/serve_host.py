"""``repro serve`` with the serving layers wrapped in timers.

Usage::

    serve_host.py --trace-out PATH serve APP [repro serve options]

Wraps the runtime's classes and ``make_runtime`` with
:class:`layer_trace.LayerTrace` timers, swaps a timed proxy in for the
``json`` module the server decodes and encodes with, then runs the
program's own command line (``repro.cli.main``) on the remaining
arguments, so the traced server starts exactly as ``repro serve``
does.  Every request is counted; spans are kept for one request in
``SAMPLE_EVERY``.  When the server exits, the trace is written to
``--trace-out`` as JSON.

Run by ``run_e2e.py`` with ``PYTHONPATH`` pointing at the program's
``src``.
"""

from __future__ import annotations

import argparse
import json
import sys

from layer_trace import LayerTrace

#: Keep the spans of one request in this many.
SAMPLE_EVERY = 64


class TimedJson:
    """Stands in for the ``json`` module inside the server: times
    ``loads`` (decode) and ``dumps`` (encode), and starts a new request
    identifier at each decode, since a request begins there."""

    def __init__(self, trace: LayerTrace):
        self._trace = trace
        self._next = 0
        self._loads = trace.wrap("runtime.server.decode", json.loads)
        self.dumps = trace.wrap("runtime.server.encode", json.dumps)

    def loads(self, text):
        trace = self._trace
        trace.request = self._next
        trace.sampling = self._next % SAMPLE_EVERY == 0
        self._next += 1
        return self._loads(text)


def install(trace: LayerTrace) -> None:
    """Wrap the serving layers (call before the runtime is built).

    ``repro serve`` imports ``make_runtime`` inside its command
    function, so it picks up the wrapped one.
    """
    from repro.obs.telemetry import Telemetry
    from repro.runtime import apps, server
    from repro.runtime.guards import AdmissionGuard
    from repro.runtime.journal import Journal
    from repro.runtime.service import SpecRuntime
    from repro.runtime.state import MaterializedState

    trace.patch(apps, "make_runtime", "runtime.startup.runtime_build")
    trace.patch(AdmissionGuard, "__init__", "runtime.startup.guard_build")
    trace.patch(Journal, "recover", "runtime.journal.recover")
    trace.patch(Journal, "append", "runtime.journal.append")
    trace.patch(Journal, "flush", "runtime.journal.flush")
    trace.patch(
        server.RuntimeServer, "handle_request", "runtime.server.handle"
    )
    trace.patch(SpecRuntime, "execute", "runtime.service.execute")
    trace.patch(SpecRuntime, "query", "runtime.service.query")
    trace.patch(MaterializedState, "plan", "runtime.state.plan")
    trace.patch(MaterializedState, "compute_writes", "runtime.state.writes")
    trace.patch(MaterializedState, "commit", "runtime.state.commit")
    trace.patch(Telemetry, "observe", "obs.telemetry.observe")
    server.json = TimedJson(trace)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    trace = LayerTrace()
    install(trace)
    from repro.cli import main as repro_main

    code = repro_main(args.command)
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        json.dump(trace.to_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
