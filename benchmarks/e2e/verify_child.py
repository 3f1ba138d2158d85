"""One repetition of a verify workload, in a fresh interpreter.

Builds the named applications the way ``repro verify all`` does and
calls ``framework.verify`` on each, printing JSON lines on stdout:

    {"ready": true}                                    after import + builds
    {"kernel_s": ...}                                  host speed after it
    {"app": ..., "seconds": ..., "ok": ..., "digest": ..., "kernel_s": ...}
                                                       per application
    {"done": true, "rss_kb": ..., "trace": {...} | null}

A ``kernel_s`` is the host speed (see ``speed.py``) while the step
before it ran: the harmonic mean of the kernel runs on the process's
CPUs just before and just after it, and of those a
:class:`speed.Sampler` made during it.  In a serial verification the sampler runs in this
process, and its runs are taken off ``seconds``; in a parallel one it
runs in each forked worker, which writes its runs to
``--samples-dir``.  With ``--setup-only`` the child exits after the
first ``kernel_s``.

``--trace`` first wraps the functions :mod:`repro.pipeline.nodes` calls
(and the parallel executor's pool, wait and map entry points) with
:class:`layer_trace.LayerTrace` timers.  Run by ``run_e2e.py`` with
``PYTHONPATH`` pointing at the program's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from layer_trace import LayerTrace
from speed import (
    Sampler,
    collect_samples,
    kernel_seconds,
    sample_forked_children,
)

#: ``repro.pipeline.nodes`` name -> layer metric it is timed under.
NODE_LAYERS = {
    "check_sufficient_completeness": "algebraic.completeness",
    "check_congruence": "algebraic.congruence",
    "check_static_consistency": "refinement.static",
    "compare_valid_reachable": "refinement.inclusion",
    "check_transition_consistency": "refinement.transitions",
    "prove_static_consistency": "refinement.induction",
    "check_second_third": "refinement.second_third",
    "check_agreement": "refinement.agreement",
    "check_schema_source": "wgrammar.recognize",
}


def install(trace: LayerTrace) -> None:
    """Wrap the verifier's layers (call before building frameworks)."""
    from repro.algebraic.algebra import TraceAlgebra
    from repro.parallel import backends, executor
    from repro.pipeline import nodes

    for attr, layer in NODE_LAYERS.items():
        trace.patch(nodes, attr, layer)
    trace.patch(TraceAlgebra, "explore", "algebraic.explore")
    for cls in (
        backends.InlineBackend,
        backends.ForkBackend,
        backends.SocketBackend,
    ):
        trace.patch(cls, "open_pool", "parallel.pool_open")
    trace.patch(executor.PendingMap, "collect", "parallel.wait")
    trace.patch(
        executor.ParallelExecutor,
        "map_async",
        "parallel.map",
        items=lambda args: len(args[2]),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--apps", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--backend", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="exit after the ready line (a set-up time sample)",
    )
    parser.add_argument(
        "--samples-dir", type=Path,
        help="where forked workers write their kernel runs "
        "(required with --workers above 1)",
    )
    args = parser.parse_args()
    forked = args.workers > 1
    if forked and args.samples_dir is None:
        parser.error("--workers above 1 needs --samples-dir")

    trace = LayerTrace() if args.trace else None
    if trace is not None:
        install(trace)
    from repro.cli import APPLICATIONS

    names = args.apps.split(",")
    frameworks = {}
    for name in names:
        factory = APPLICATIONS[name]
        if trace is not None:
            factory = trace.wrap("core.build", factory)
        frameworks[name] = factory()
    print(json.dumps({"ready": True}), flush=True)
    before = kernel_seconds()
    print(json.dumps({"kernel_s": before}), flush=True)
    if args.setup_only:
        return 0

    if forked:
        sample_forked_children(args.samples_dir)
    for name in names:
        verify = frameworks[name].verify
        if trace is not None:
            verify = trace.wrap(f"framework.verify.{name}", verify)
        sampler = Sampler()
        if not forked:
            sampler.start()
        started = time.perf_counter()
        report = verify(workers=args.workers, backend=args.backend)
        sampler.stop()
        seconds = time.perf_counter() - started
        samples = sampler.samples
        if forked:
            samples = collect_samples(args.samples_dir)
        after = kernel_seconds()
        digest = hashlib.sha256(str(report).encode("utf-8")).hexdigest()
        print(
            json.dumps(
                {
                    "app": name,
                    "seconds": seconds - sampler.spent,
                    "ok": report.ok,
                    "digest": digest,
                    "kernel_s": statistics.harmonic_mean(
                        [before, after, *samples]
                    ),
                }
            ),
            flush=True,
        )
        before = after

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(
        json.dumps(
            {
                "done": True,
                "rss_kb": rss_kb,
                "trace": None if trace is None else trace.to_dict(),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
