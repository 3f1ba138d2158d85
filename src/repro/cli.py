"""Command-line interface: verify the shipped application designs.

Usage::

    python -m repro list
    python -m repro verify courses [--depth 2] [--quiet]
    python -m repro verify all --workers 4
    python -m repro verify courses --stats --stats-json stats.json
    python -m repro verify courses --trace trace.json   # Chrome trace
    python -m repro verify courses --trace-summary      # span tree
    python -m repro verify courses --metrics-json metrics.json
    python -m repro verify courses --cache-dir .repro-cache  # warm reruns
    python -m repro verify courses --only second-third   # one check (+deps)
    python -m repro verify courses --skip congruence --fail-fast
    python -m repro verify all --coverage coverage.json \
        --coverage-html coverage.html   # proof-coverage report
    python -m repro cache stats --cache-dir .repro-cache
    python -m repro cache prune --cache-dir .repro-cache [--all]
    python -m repro schema courses        # print the RPR schema
    python -m repro axioms courses        # print the level-1 theory
    python -m repro serve bank --port 7474 --data-dir /var/lib/repro
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.core.framework import DesignFramework
from repro.logic.terms import intern_stats, intern_table_size

__all__ = ["main", "APPLICATIONS"]


def _courses() -> DesignFramework:
    from repro.applications.courses import courses_framework

    return courses_framework()


def _library() -> DesignFramework:
    from repro.applications.library import library_framework

    return library_framework()


def _projects() -> DesignFramework:
    from repro.applications.projects import projects_framework

    return projects_framework()


def _bank() -> DesignFramework:
    from repro.applications.bank import bank_framework

    return bank_framework()


#: The shipped application factories, keyed by CLI name.
APPLICATIONS: dict[str, Callable[[], DesignFramework]] = {
    "courses": _courses,
    "library": _library,
    "projects": _projects,
    "bank": _bank,
}


def _cmd_list(_args: argparse.Namespace) -> int:
    for name, factory in APPLICATIONS.items():
        framework = factory()
        print(f"{name:10s} {framework.name}")
    return 0


def _ensure_parent(path: str) -> None:
    """Create the parent directories of an output path."""
    from pathlib import Path

    parent = Path(path).parent
    if str(parent) not in ("", "."):
        parent.mkdir(parents=True, exist_ok=True)


def _write_text_output(path: str, text: str, label: str) -> bool:
    """Write an artifact to ``path`` (``'-'`` = stdout), creating
    missing parent directories; on an unwritable path print a clear
    error instead of a traceback and return False."""
    if not text.endswith("\n"):
        text += "\n"
    if path == "-":
        sys.stdout.write(text)
        return True
    try:
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(
            f"error: cannot write {label} to {path!r}: {exc}",
            file=sys.stderr,
        )
        return False
    return True


def _split_selection(values: list[str] | None) -> list[str] | None:
    """Flatten repeatable, comma-separable ``--only``/``--skip``
    values into one name list (``None`` when the flag is absent)."""
    if not values:
        return None
    names: list[str] = []
    for value in values:
        names.extend(
            part.strip() for part in value.split(",") if part.strip()
        )
    return names or None


def _print_failure_traces(framework, results, graph=None) -> None:
    """Print the minimal violating traces of every failing check."""
    from repro.obs.provenance import render_failures

    provider = (lambda: graph) if graph is not None else None
    text = render_failures(
        results, algebra=framework.algebra(), graph_provider=provider
    )
    if text:
        print(text)
        print()


def _coverage_document_of(
    args: argparse.Namespace, name, framework, recorder, result
) -> dict:
    """Assemble one application's coverage document, provenance
    records included."""
    from repro.obs.coverage import coverage_document
    from repro.obs.provenance import pipeline_provenance
    from repro.pipeline.nodes import build_framework_graph
    from repro.wgrammar.rpr_grammar import rpr_wgrammar

    graph = build_framework_graph(
        completeness_depth=args.depth,
        congruence_depth=args.depth,
    )
    labels = [
        rule.label or f"rule-{index}"
        for index, rule in enumerate(rpr_wgrammar().hyperrules)
    ]
    checks = pipeline_provenance(
        framework, result, graph, algebra=framework.algebra()
    )
    return coverage_document(
        recorder,
        framework.algebraic,
        application=name,
        params={
            "completeness_depth": args.depth,
            "congruence_depth": args.depth,
            "max_states": 100_000,
            "grammar_budget": 2_000_000,
        },
        grammar_labels=labels,
        checks=checks,
    )


def _resolve_backend_args(
    args: argparse.Namespace,
) -> tuple[str | None, list[str] | None] | None:
    """Validate ``--backend``/``--workers-addr`` into the
    ``(backend, worker_addresses)`` pair :meth:`verify` takes.
    Returns ``None`` (after printing the error) on a bad combination."""
    addresses = args.workers_addr or None
    backend = args.backend
    if addresses and backend is None:
        backend = "socket"
    if backend == "socket" and not addresses:
        print(
            "error: --backend socket needs at least one "
            "--workers-addr HOST:PORT",
            file=sys.stderr,
        )
        return None
    if backend != "socket" and addresses:
        print(
            f"error: --workers-addr only applies to the socket "
            f"backend, not {backend!r}",
            file=sys.stderr,
        )
        return None
    return backend, addresses


def _cmd_verify(args: argparse.Namespace) -> int:
    """The ``repro verify`` subcommand, with optional scoped live
    telemetry (``--telemetry-json``) around the verification run."""
    if args.telemetry_json is None:
        return _run_verify(args)
    import json

    from repro.obs.switch import activate
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry()
    with activate(telemetry=telemetry):
        code = _run_verify(args)
        payload = json.dumps(
            telemetry.snapshot(), indent=2, sort_keys=True
        )
    if not _write_text_output(
        args.telemetry_json, payload, "telemetry JSON"
    ):
        return 2
    return code


def _run_verify(args: argparse.Namespace) -> int:
    from repro.errors import SpecificationError
    from repro.obs.coverage import CoverageRecorder
    from repro.obs.switch import activate
    from repro.obs.tracer import Tracer
    from repro.parallel.backends import ExecutorBackendError

    names = (
        list(APPLICATIONS) if args.application == "all"
        else [args.application]
    )
    backend_args = _resolve_backend_args(args)
    if backend_args is None:
        return 2
    backend, worker_addresses = backend_args
    want_stats = args.stats or args.stats_json is not None
    want_coverage = (
        args.coverage is not None or args.coverage_html is not None
    )
    tracer = None
    if (
        want_stats
        or args.metrics_json is not None
        or args.trace
        or args.trace_jsonl
        or args.trace_summary
    ):
        # Every stats record is read off the span tree.
        tracer = Tracer()
    cache = None
    if args.cache_dir is not None:
        from pathlib import Path

        from repro.pipeline.cache import ResultCache

        # One cache for the whole invocation: fingerprints embed each
        # application's specs, so 'verify all' shares the directory
        # without collisions.
        cache = ResultCache(Path(args.cache_dir))
    only = _split_selection(args.only)
    skip = _split_selection(args.skip)
    selection_mode = bool(only or skip or args.fail_fast)
    failures = 0
    stats_bundles = []
    results = []
    coverage_documents = []
    for name in names:
        factory = APPLICATIONS.get(name)
        if factory is None:
            print(f"unknown application {name!r}; try 'list'",
                  file=sys.stderr)
            return 2
        framework = factory()
        started = time.perf_counter()
        # One recorder per application: documents never mix coverage
        # across specs.
        recorder = CoverageRecorder() if want_coverage else None
        try:
            with activate(tracer, recorder):
                result = framework.verify_pipeline(
                    completeness_depth=args.depth,
                    congruence_depth=args.depth,
                    workers=args.workers,
                    cache=cache,
                    only=only,
                    skip=skip,
                    fail_fast=args.fail_fast,
                    backend=backend,
                    worker_addresses=worker_addresses,
                )
        except (SpecificationError, ExecutorBackendError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - started
        ok = result.ok
        verdict = "OK" if ok else "FAILED"
        print(f"[{verdict}] {framework.name}  ({elapsed:.1f}s)")
        if not args.quiet or not ok:
            if selection_mode:
                print(result.summary())
            else:
                print(framework.report_of(result))
            print()
        if not ok:
            _print_failure_traces(
                framework,
                {check: result.result_of(check) for check in result.selection},
                graph=result.result_of("explore"),
            )
        if want_coverage:
            coverage_documents.append(
                _coverage_document_of(
                    args, name, framework, recorder, result
                )
            )
        if want_stats:
            stats = result.combined_stats()
            if args.stats:
                for part in stats.parts:
                    print(f"  {part}")
                print(f"  {stats}")
                kernel = intern_stats()
                print(
                    f"  [kernel] intern_table={intern_table_size()} "
                    f"(vars={kernel['vars']} apps={kernel['apps']}) "
                    f"dispatch_hits={stats.dispatch_hits} "
                    f"interned_during_run={stats.interned_terms}"
                )
            stats_bundles.append(
                {"application": name, **stats.to_dict()}
            )
        results.append(result)
        if not ok:
            failures += 1
    if args.stats_json is not None and stats_bundles:
        import json

        payload = (
            stats_bundles[0] if len(stats_bundles) == 1 else stats_bundles
        )
        if not _write_text_output(
            args.stats_json, json.dumps(payload, indent=2), "stats JSON"
        ):
            return 2
    if not _write_observability(args, tracer, results):
        return 2
    if want_coverage and coverage_documents:
        from repro.obs.coverage import coverage_json

        payload = (
            coverage_documents[0]
            if len(coverage_documents) == 1
            else coverage_documents
        )
        if args.coverage is not None:
            if not _write_text_output(
                args.coverage, coverage_json(payload), "coverage JSON"
            ):
                return 2
            if args.coverage != "-":
                print(f"coverage written to {args.coverage}")
        if args.coverage_html is not None:
            from repro.obs.report_html import coverage_html

            if not _write_text_output(
                args.coverage_html,
                coverage_html(payload),
                "coverage HTML",
            ):
                return 2
            if args.coverage_html != "-":
                print(
                    f"coverage report written to {args.coverage_html}"
                )
    return 1 if failures else 0


def _write_observability(
    args: argparse.Namespace, tracer, results
) -> bool:
    """Export the trace/metrics artifacts the verify flags requested.

    Returns False when an output path was unwritable (the error is
    printed here; the caller turns it into exit code 2).
    """
    if tracer is None:
        return True
    import json

    from repro.obs.export import (
        format_tree,
        iter_flat_events,
        to_chrome_json,
    )
    from repro.obs.metrics import MetricsRegistry

    if args.trace is not None:
        # Pin chunk spans to stable virtual-worker tid rows: chunk
        # spans carry the chunk index, and chunk i runs on virtual
        # worker i mod (workers - 1) — this process is the other one.
        text = json.dumps(
            to_chrome_json(tracer, workers=max(1, args.workers - 1))
        )
        if not _write_text_output(args.trace, text, "Chrome trace"):
            return False
        if args.trace != "-":
            print(f"trace written to {args.trace} "
                  "(load in chrome://tracing or ui.perfetto.dev)")
    if args.trace_jsonl is not None:
        text = "\n".join(
            json.dumps(event) for event in iter_flat_events(tracer)
        )
        if not _write_text_output(
            args.trace_jsonl, text, "span log"
        ):
            return False
        if args.trace_jsonl != "-":
            print(f"flat span log written to {args.trace_jsonl}")
    if args.trace_summary:
        print(format_tree(tracer))
    if args.metrics_json is not None:
        registry = MetricsRegistry()
        for result in results:
            registry.record_verification(result)
        registry.merge_tracer(tracer)
        registry.record_kernel()
        if not _write_text_output(
            args.metrics_json, registry.to_json(), "metrics JSON"
        ):
            return False
    return True


def _cmd_cache(args: argparse.Namespace) -> int:
    """The ``repro cache`` maintenance subcommand."""
    from pathlib import Path

    from repro.pipeline.cache import ResultCache

    cache = ResultCache(Path(args.cache_dir))
    if args.cache_command == "stats":
        summary = cache.summary()
        if args.json:
            import json

            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"cache directory : {summary['path']}")
            print(
                f"entries         : {summary['entries']} "
                f"({summary['total_bytes']} bytes)"
            )
            print(f"current format  : {summary['format']}")
            print(f"stale entries   : {summary['stale']}")
            print(f"with coverage   : {summary['with_coverage']}")
            for node, count in summary["by_node"].items():
                print(f"  {node:12s} {count}")
        return 0
    removed = cache.prune(everything=args.all)
    scope = "all" if args.all else "stale"
    noun = "entry" if removed == 1 else "entries"
    print(f"pruned {removed} {scope} cache {noun}")
    return 0


def _cmd_schema(args: argparse.Namespace) -> int:
    factory = APPLICATIONS.get(args.application)
    if factory is None:
        print(f"unknown application {args.application!r}",
              file=sys.stderr)
        return 2
    framework = factory()
    print(framework.schema_source or framework.schema)
    return 0


def _cmd_axioms(args: argparse.Namespace) -> int:
    factory = APPLICATIONS.get(args.application)
    if factory is None:
        print(f"unknown application {args.application!r}",
              file=sys.stderr)
        return 2
    print(factory().information)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``repro serve`` subcommand: run the serving runtime."""
    from repro.errors import ServingError
    from repro.runtime.apps import available_applications, make_runtime
    from repro.runtime.server import serve

    if args.application not in available_applications():
        print(f"unknown application {args.application!r}; try 'list'",
              file=sys.stderr)
        return 2
    try:
        runtime = make_runtime(
            args.application,
            data_dir=args.data_dir,
            fsync_batch=args.fsync_batch,
            fsync=not args.no_fsync,
            compact_every=args.compact_every,
        )
    except ServingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def _ready(server) -> None:
        # The flushed ready line lets harnesses (the CI serve smoke)
        # learn the chosen port without racing the bind.
        print(
            f"serving {args.application} on "
            f"{server.host}:{server.port}",
            flush=True,
        )
        if args.port_file is not None:
            _write_text_output(
                args.port_file, str(server.port), "port file"
            )

    # Serving always runs with live telemetry: the overhead is gated
    # at <= 5% by benchmarks/check_obs_overhead.py, and the
    # 'telemetry' op plus 'repro top' depend on it being there.
    from repro.obs.switch import activate
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry()
    with activate(telemetry=telemetry):
        code = serve(
            runtime,
            host=args.host,
            port=args.port,
            allow_shutdown=args.allow_shutdown,
            ready=_ready,
        )
        if args.telemetry_json is not None:
            import json

            if not _write_text_output(
                args.telemetry_json,
                json.dumps(
                    telemetry.snapshot(), indent=2, sort_keys=True
                ),
                "telemetry JSON",
            ):
                return 2
    return code


def _cmd_worker(args: argparse.Namespace) -> int:
    """The ``repro worker`` subcommand: serve chunk execution to
    ``verify --backend socket`` clients."""
    from repro.parallel.worker import WorkerServer

    server = WorkerServer(
        host=args.host,
        port=args.port,
        allow_shutdown=args.allow_shutdown,
    )
    # The flushed ready line lets harnesses learn the chosen port
    # without racing the bind (mirrors 'repro serve').
    print(f"worker listening on {server.host}:{server.port}", flush=True)
    if args.port_file is not None:
        if not _write_text_output(
            args.port_file, str(server.port), "port file"
        ):
            return 2
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    if args.telemetry_json is not None:
        import json

        if not _write_text_output(
            args.telemetry_json,
            json.dumps(
                server.telemetry.snapshot(), indent=2, sort_keys=True
            ),
            "telemetry JSON",
        ):
            return 2
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """The ``repro watch`` subcommand: incremental re-verification."""
    from repro.errors import SpecificationError
    from repro.pipeline.watch import watch

    try:
        return watch(
            args.target,
            cache_dir=args.cache_dir,
            depth=args.depth,
            workers=args.workers,
            interval=args.interval,
            max_cycles=args.max_cycles,
            timeout=args.timeout,
            once=args.once,
        )
    except SpecificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_top(args: argparse.Namespace) -> int:
    """The ``repro top`` subcommand: live telemetry of a serving
    process (runtime server or worker)."""
    from repro.errors import ServingError
    from repro.obs.top import top

    try:
        return top(
            args.address,
            worker=args.worker,
            interval=args.interval,
            once=args.once,
            as_json=args.json,
            events=args.events,
        )
    except ServingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_compile_sql(args: argparse.Namespace) -> int:
    """The ``repro compile-sql`` subcommand: emit the relational
    realization (DDL, initial state, stored guard tables, transaction
    programs) of one application as portable SQL text."""
    from repro.errors import RelationalError
    from repro.relational import build_database
    from repro.runtime.apps import available_applications

    if args.application not in available_applications():
        print(f"unknown application {args.application!r}; try 'list'",
              file=sys.stderr)
        return 2
    try:
        database = build_database(
            args.application, with_guard=not args.no_guards
        )
        try:
            script = database.compile_sql_script(
                include_programs=not args.schema_only
            )
        finally:
            database.close()
    except RelationalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output is None or args.output == "-":
        print(script, end="")
        return 0
    return 0 if _write_text_output(
        args.output, script, "SQL script"
    ) else 2


def _cmd_diff_oracle(args: argparse.Namespace) -> int:
    """The ``repro diff-oracle`` subcommand: replay a seeded random
    trace through the rewrite semantics and the SQL backend and
    require identical query answers at every step."""
    import json

    from repro.errors import RelationalError
    from repro.relational import run_oracle
    from repro.runtime.apps import available_applications

    known = available_applications()
    names = (
        list(known) if args.application == "all"
        else [args.application]
    )
    for name in names:
        if name not in known:
            print(f"unknown application {name!r}; try 'list'",
                  file=sys.stderr)
            return 2
    failed = False
    for name in names:
        try:
            report = run_oracle(
                name, steps=args.steps, seed=args.seed
            )
        except RelationalError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(report.to_dict()))
        else:
            verdict = "PASS" if report.passed else "FAIL"
            print(
                f"{name}: {verdict} ({report.steps} steps, "
                f"{report.applied} applied, {report.noops} no-ops, "
                f"backend {report.backend})"
            )
            for divergence in report.divergences:
                print(f"  {divergence}")
        failed = failed or not report.passed
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Three-level formal database specification "
            "(Casanova/Veloso/Furtado, PODS 1984) - verification CLI"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list the shipped applications"
    ).set_defaults(handler=_cmd_list)

    verify = subparsers.add_parser(
        "verify", help="run every refinement check on an application"
    )
    verify.add_argument(
        "application",
        help=f"one of {', '.join(APPLICATIONS)} or 'all'",
    )
    verify.add_argument(
        "--depth", type=int, default=2,
        help="trace depth for completeness/congruence checks",
    )
    verify.add_argument(
        "--quiet", action="store_true",
        help="print only the verdict line unless a check fails",
    )
    verify.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help=(
            "run checks in N processes at once: this one runs the "
            "graph-bound checks while up to N-1 workers run the "
            "independent ones (induction, grammar); default 1 = "
            "all in this process, reports "
            "are identical either way"
        ),
    )
    verify.add_argument(
        "--backend", choices=["inline", "fork", "socket"],
        default=None, metavar="NAME",
        help=(
            "where the fanned-out checks execute: 'inline' "
            "(in-process), 'fork' (forked worker processes, the "
            "default), or 'socket' (running 'repro worker' "
            "processes; needs --workers-addr).  Reports are "
            "identical on every backend"
        ),
    )
    verify.add_argument(
        "--workers-addr", action="append", metavar="HOST:PORT",
        default=None,
        help=(
            "address of a running 'repro worker' process "
            "(repeatable; implies --backend socket)"
        ),
    )
    verify.add_argument(
        "--stats", action="store_true",
        help="print per-check verification statistics",
    )
    verify.add_argument(
        "--stats-json", metavar="PATH", default=None,
        help=(
            "write the per-check statistics records and their bundle "
            "as JSON to PATH ('-' for stdout)"
        ),
    )
    verify.add_argument(
        "--trace", metavar="FILE", default=None,
        help=(
            "record a span trace of the run and write it as a Chrome "
            "Trace Event JSON file (open in chrome://tracing or "
            "ui.perfetto.dev)"
        ),
    )
    verify.add_argument(
        "--trace-jsonl", metavar="FILE", default=None,
        help="write the span trace as a flat JSONL event log",
    )
    verify.add_argument(
        "--trace-summary", action="store_true",
        help="print the span tree with durations and counters",
    )
    verify.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help=(
            "write the aggregated metrics registry (named counters "
            "and gauges) as JSON to PATH ('-' for stdout)"
        ),
    )
    verify.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=(
            "persist per-check results under DIR, keyed by content "
            "fingerprint; a re-verify replays unchanged checks from "
            "the cache and re-runs only what an edit invalidated "
            "(reports and stats are byte-identical, warm or cold)"
        ),
    )
    verify.add_argument(
        "--only", action="append", metavar="CHECK", default=None,
        help=(
            "run only these checks (repeatable, comma-separable); "
            "dependencies are pulled in automatically and the "
            "per-check outcome table replaces the full report"
        ),
    )
    verify.add_argument(
        "--skip", action="append", metavar="CHECK", default=None,
        help=(
            "skip these checks and everything depending on them "
            "(repeatable, comma-separable)"
        ),
    )
    verify.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first failing check",
    )
    verify.add_argument(
        "--coverage", metavar="PATH", default=None,
        help=(
            "record proof coverage (equation dispatch cells, "
            "state-graph census, W-grammar usage, per-check "
            "provenance) and write the machine-readable document to "
            "PATH ('-' for stdout); output is byte-identical for "
            "every worker count, cold or warm cache"
        ),
    )
    verify.add_argument(
        "--coverage-html", metavar="PATH", default=None,
        help=(
            "write the self-contained HTML coverage report to PATH"
        ),
    )
    verify.add_argument(
        "--telemetry-json", metavar="PATH", default=None,
        help=(
            "run with live telemetry enabled and write the final "
            "snapshot (latency histograms, rate counters, recent "
            "events) as JSON to PATH ('-' for stdout)"
        ),
    )
    verify.set_defaults(handler=_cmd_verify)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or prune a verification result cache directory",
    )
    cache_sub = cache_parser.add_subparsers(
        dest="cache_command", required=True
    )
    cache_stats = cache_sub.add_parser(
        "stats", help="summarize the entries under a cache directory"
    )
    cache_stats.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the cache directory to inspect",
    )
    cache_stats.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON",
    )
    cache_stats.set_defaults(handler=_cmd_cache)
    cache_prune = cache_sub.add_parser(
        "prune",
        help=(
            "delete stale cache entries (unreadable or older-format "
            "files); --all deletes every entry"
        ),
    )
    cache_prune.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the cache directory to prune",
    )
    cache_prune.add_argument(
        "--all", action="store_true",
        help="delete every entry, not only stale ones",
    )
    cache_prune.set_defaults(handler=_cmd_cache)

    schema = subparsers.add_parser(
        "schema", help="print an application's RPR schema"
    )
    schema.add_argument("application")
    schema.set_defaults(handler=_cmd_schema)

    axioms = subparsers.add_parser(
        "axioms", help="print an application's information-level theory"
    )
    axioms.add_argument("application")
    axioms.set_defaults(handler=_cmd_axioms)

    serve = subparsers.add_parser(
        "serve",
        help=(
            "serve a verified application over the JSON-lines "
            "runtime protocol"
        ),
    )
    serve.add_argument(
        "application",
        help=f"one of {', '.join(APPLICATIONS)}",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = pick a free port)",
    )
    serve.add_argument(
        "--data-dir", metavar="DIR", default=None,
        help=(
            "journal directory for durability and crash recovery "
            "(default: in-memory only)"
        ),
    )
    serve.add_argument(
        "--fsync-batch", type=int, default=64, metavar="N",
        help="group-commit: fsync the journal every N appends",
    )
    serve.add_argument(
        "--no-fsync", action="store_true",
        help="never fsync the journal (benchmarks and tests only)",
    )
    serve.add_argument(
        "--compact-every", type=int, default=None, metavar="N",
        help="auto-compact the journal every N accepted updates",
    )
    serve.add_argument(
        "--allow-shutdown", action="store_true",
        help=(
            "honor the 'shutdown' protocol operation (CI smoke runs; "
            "otherwise stop with SIGINT/SIGTERM)"
        ),
    )
    serve.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="also write the chosen port to PATH once bound",
    )
    serve.add_argument(
        "--telemetry-json", metavar="PATH", default=None,
        help=(
            "write the final telemetry snapshot as JSON to PATH on "
            "shutdown (telemetry is always live while serving; "
            "query it with the 'telemetry' op or 'repro top')"
        ),
    )
    serve.set_defaults(handler=_cmd_serve)

    worker = subparsers.add_parser(
        "worker",
        help=(
            "serve chunk execution over TCP for 'verify --backend "
            "socket' (trusted networks only: chunk payloads are "
            "pickled)"
        ),
    )
    worker.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    worker.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = pick a free port)",
    )
    worker.add_argument(
        "--allow-shutdown", action="store_true",
        help=(
            "honor the 'shutdown' protocol operation (CI smoke runs; "
            "otherwise stop with SIGINT/SIGTERM)"
        ),
    )
    worker.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="also write the chosen port to PATH once bound",
    )
    worker.add_argument(
        "--telemetry-json", metavar="PATH", default=None,
        help=(
            "write the worker's final telemetry snapshot as JSON to "
            "PATH on shutdown (also queryable live via the "
            "'telemetry' op or 'repro top --worker')"
        ),
    )
    worker.set_defaults(handler=_cmd_worker)

    watch = subparsers.add_parser(
        "watch",
        help=(
            "watch a specification for edits and re-verify "
            "incrementally: only the checks an edit invalidated "
            "re-run; the rest replay from the cache"
        ),
    )
    watch.add_argument(
        "target",
        help=(
            f"one of {', '.join(APPLICATIONS)}, or FILE.py:FACTORY "
            "naming a zero-argument DesignFramework factory in an "
            "arbitrary spec file"
        ),
    )
    watch.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=(
            "result-cache directory (default: a private temporary "
            "directory for the watch session)"
        ),
    )
    watch.add_argument(
        "--depth", type=int, default=2,
        help="trace depth for completeness/congruence checks",
    )
    watch.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the fanned-out checks",
    )
    watch.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll the watched files every SECONDS (default 0.5)",
    )
    watch.add_argument(
        "--max-cycles", type=int, default=None, metavar="N",
        help=(
            "exit after N verification cycles (harness use; "
            "default: watch until interrupted)"
        ),
    )
    watch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="exit after SECONDS even if idle (harness use)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="verify once and exit (equivalent to --max-cycles 1)",
    )
    watch.set_defaults(handler=_cmd_watch)

    top = subparsers.add_parser(
        "top",
        help=(
            "live telemetry view of a running 'repro serve' or "
            "'repro worker' process: rates, latency percentiles, "
            "guard rejection breakdown, recent slow ops"
        ),
    )
    top.add_argument(
        "address", metavar="HOST:PORT",
        help="address of the serving process to poll",
    )
    top.add_argument(
        "--worker", action="store_true",
        help=(
            "poll a 'repro worker' (frame protocol) instead of a "
            "runtime server (JSON lines)"
        ),
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh every SECONDS (default 2.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single screen and exit",
    )
    top.add_argument(
        "--json", action="store_true",
        help=(
            "with --once, print the raw telemetry snapshot document "
            "instead of the rendered screen (scripting and CI)"
        ),
    )
    top.add_argument(
        "--events", type=int, default=32, metavar="N",
        help="recent events to request per poll (default 32)",
    )
    top.set_defaults(handler=_cmd_top)

    compile_sql = subparsers.add_parser(
        "compile-sql",
        help=(
            "compile an application's specification to its "
            "relational realization (schema DDL + transaction "
            "programs) as portable SQL text"
        ),
    )
    compile_sql.add_argument(
        "application",
        help=f"one of {', '.join(APPLICATIONS)}",
    )
    compile_sql.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the SQL script to PATH ('-' = stdout, default)",
    )
    compile_sql.add_argument(
        "--schema-only", action="store_true",
        help=(
            "emit only the schema and initial state, not the "
            "per-instance transaction programs"
        ),
    )
    compile_sql.add_argument(
        "--no-guards", action="store_true",
        help=(
            "skip the stored admission decision tables and their "
            "audit queries"
        ),
    )
    compile_sql.set_defaults(handler=_cmd_compile_sql)

    diff_oracle = subparsers.add_parser(
        "diff-oracle",
        help=(
            "replay a random trace through the rewrite semantics "
            "and the SQLite backend, requiring identical query "
            "answers at every step"
        ),
    )
    diff_oracle.add_argument(
        "application",
        help=f"one of {', '.join(APPLICATIONS)} or 'all'",
    )
    diff_oracle.add_argument(
        "--steps", type=int, default=60, metavar="N",
        help="trace length per application (default 60)",
    )
    diff_oracle.add_argument(
        "--seed", type=int, default=0,
        help="random seed for the trace generator",
    )
    diff_oracle.add_argument(
        "--json", action="store_true",
        help="emit one JSON report line per application",
    )
    diff_oracle.set_defaults(handler=_cmd_diff_oracle)

    args = parser.parse_args(argv)
    return args.handler(args)
