"""Deterministic execution of a check-graph selection.

The :class:`Scheduler` walks a :class:`~repro.pipeline.graph.CheckGraph`
selection in declaration order (which the graph guarantees is
topological), consults the optional
:class:`~repro.pipeline.cache.ResultCache` per node, and executes what
misses:

* **run-all** (default) reproduces the old monolithic ``verify()``
  exactly: every check runs, failures accumulate.  When ``workers >
  1``, the independent checks marked ``fan_out`` are submitted, one
  check per chunk, to ``workers - 1`` virtual workers of a
  :class:`~repro.parallel.executor.ParallelExecutor` before the
  graph-bound checks run inline, so ``workers`` processes run checks
  side by side; results are merged back in declaration order, so
  reports and stats stay byte-identical for every worker count.
* **fail-fast** stops at the first failing check and marks the rest
  aborted (fan-out is disabled so the stop point is deterministic).

Every executed check keeps the span-counter totals it recorded and its
wall time (a :class:`~repro.pipeline.check.CheckRun`) whenever tracing
is on or a cache is attached; :meth:`PipelineResult.stats_parts` reads
one :class:`~repro.obs.stats.VerificationStats` record per check off
them.  Cache hits *replay*: the stored report is rebuilt, and the
stored counters and wall time are recorded on a ``cached=True`` span —
so a warm run's ``--stats-json`` and ``--metrics-json`` are
byte-identical to the cold run that populated the cache.

Resource nodes (``explore``, ``traces``) are demand-driven: they
execute only when a dependent missed; on an all-hit run only their
counters and wall time are replayed and neither the state graph nor
the trace table is rebuilt — that is where the warm-run speedup comes
from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.obs.coverage import CoverageRecorder
from repro.obs.stats import VerificationStats
from repro.obs.switch import SWITCH, activate
from repro.obs.tracer import Tracer, count as _count, span as _span
from repro.parallel.backends import use_backend
from repro.parallel.executor import ParallelExecutor
from repro.pipeline.cache import ResultCache, deserialize_result, serialize_result
from repro.pipeline.check import Check, CheckRun
from repro.pipeline.fingerprint import combine_fingerprint, framework_parts
from repro.pipeline.graph import CheckGraph
from repro.refinement.interpretation import Interpretation

__all__ = ["PipelineContext", "NodeExecution", "PipelineResult", "Scheduler"]


class PipelineContext:
    """The shared state one pipeline run threads through its checks.

    Attributes:
        framework: the :class:`~repro.core.framework.DesignFramework`
            under verification.
        workers: how many processes run checks at once: this one
            (the graph-bound checks) and up to ``workers - 1``
            virtual workers (the fanned-out checks).
        backend: the :class:`~repro.parallel.backends.ExecutorBackend`
            (or backend name) the run's fan-out dispatches through;
            ``None`` keeps the scope-active default.
        resources: keyed products of resource nodes (the ``explore``
            node deposits the state graph under ``"graph"``).
    """

    def __init__(self, framework, workers: int = 1, backend=None):
        self.framework = framework
        self.workers = max(1, int(workers))
        self.backend = backend
        self.resources: dict[str, Any] = {}
        self._algebra = None
        self._interpretation = None

    @property
    def algebra(self):
        """The trace algebra of T2, built on first use and shared by
        every check of the run (one rewrite-engine memo)."""
        if self._algebra is None:
            self._algebra = self.framework.algebra()
        return self._algebra

    @property
    def interpretation(self) -> Interpretation:
        """The interpretation I (the framework's, or homonym)."""
        if self._interpretation is None:
            self._interpretation = (
                self.framework.interpretation
                or Interpretation.homonym(
                    self.framework.information, self.algebra.signature
                )
            )
        return self._interpretation

    def materialize(self) -> None:
        """Eagerly build the shared algebra and interpretation (the
        old monolith built both before any check; keeping that order
        keeps rewrite/intern counter trajectories identical)."""
        self.algebra
        self.interpretation


@dataclass(frozen=True)
class NodeExecution:
    """One scheduled node's outcome.

    Attributes:
        name: the check's name.
        title: the check's one-line description.
        status: ``"ran"`` (executed), ``"hit"`` (cache replay), or
            ``"aborted"`` (skipped by fail-fast).
        fingerprint: the node's content fingerprint (``None`` when no
            cache was consulted).
        run: the :class:`CheckRun` (``None`` when aborted).
        ok: False only when the check ran/replayed and failed.
    """

    name: str
    title: str
    status: str
    fingerprint: str | None
    run: CheckRun | None
    ok: bool


class PipelineResult:
    """Everything a pipeline run produced, in schedule order."""

    def __init__(
        self,
        executions: Iterable[NodeExecution],
        selection: tuple[str, ...],
        cache_enabled: bool = False,
        cache_hits: int = 0,
        cache_misses: int = 0,
        workers: int = 1,
    ):
        self.executions: tuple[NodeExecution, ...] = tuple(executions)
        self.selection = selection
        #: The worker count the run was requested with.
        self.workers = workers
        self.cache_enabled = cache_enabled
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self._by_name = {
            execution.name: execution for execution in self.executions
        }

    @property
    def ok(self) -> bool:
        """True iff no executed check failed (aborted checks are
        indeterminate but only exist after a failure)."""
        return all(execution.ok for execution in self.executions)

    def execution(self, name: str) -> NodeExecution | None:
        """The execution record of ``name``, if it was scheduled."""
        return self._by_name.get(name)

    def result_of(self, name: str, default: Any = None) -> Any:
        """The report object check ``name`` produced (or replayed)."""
        execution = self._by_name.get(name)
        if execution is None or execution.run is None:
            return default
        return execution.run.result

    def stats_parts(self) -> list[VerificationStats]:
        """One record per executed or replayed check, in schedule
        order, read off its span counters and wall time (the counters
        are empty unless the run was traced or cached)."""
        return [
            VerificationStats.of_check(
                execution.name, execution.run.counters, execution.run.wall_time
            )
            for execution in self.executions
            if execution.run is not None
        ]

    def combined_stats(self, label: str = "verify") -> VerificationStats:
        """One bundle over every check's record.

        Every check ran in one process and reports ``workers=1``; the
        bundle carries the worker count the run was requested with.
        """
        return VerificationStats.combine(
            label, self.stats_parts(), workers=self.workers
        )

    def summary(self) -> str:
        """Per-node outcome lines for the CLI's selection mode."""
        lines = []
        for execution in self.executions:
            if execution.status == "aborted":
                outcome = "aborted (fail-fast)"
            elif execution.run is not None and execution.run.skipped:
                outcome = "skipped"
            else:
                outcome = "ok" if execution.ok else "FAILED"
            if execution.status == "hit":
                outcome += " [cached]"
            elif execution.run is not None:
                outcome += f" ({execution.run.wall_time:.2f}s)"
            lines.append(
                f"{execution.name:12s} {outcome:22s} {execution.title}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------
# execution helpers (module-level: the fan-out path forks them)
# ---------------------------------------------------------------------
def _execute_check(check: Check, ctx: PipelineContext, want_counters: bool) -> CheckRun:
    """Run one check, under its declared span, collecting the
    span-counter totals it recorded when tracing is on or
    ``want_counters`` asks (a cache stores them).

    When counters are wanted but tracing is off, the check runs under
    a throwaway activated tracer so the counters exist to store.
    """
    started = time.perf_counter()
    outer_tracer = SWITCH.tracer
    want_counters = want_counters or outer_tracer is not None
    own_tracer = Tracer() if want_counters and outer_tracer is None else None
    # Each check records into its own fresh recorder, folded into the
    # enclosing one below, so the stored payload is a function of the
    # check alone — the property cache replay needs.
    outer_coverage = SWITCH.coverage
    coverage = CoverageRecorder() if outer_coverage is not None else None
    with activate(own_tracer, coverage) as switch:
        tracer = switch.tracer
        baseline = (
            tracer.counter_totals()
            if want_counters and own_tracer is None
            else None
        )
        if check.span_name is not None:
            with _span(check.span_name, **check.span_attrs):
                run = check.run(ctx, check.params)
        else:
            run = check.run(ctx, check.params)
        counters = None
        if want_counters:
            totals = tracer.counter_totals()
            if baseline is not None:
                # A key the check created at zero (e.g. a violations
                # counter that stayed clean) must survive the delta:
                # replaying it keeps warm metrics key-identical to cold.
                counters = {
                    name: value - baseline.get(name, 0)
                    for name, value in totals.items()
                    if name not in baseline or value - baseline[name]
                }
            else:
                counters = dict(totals)
    if coverage is not None:
        outer_coverage.merge(coverage)
    return CheckRun(
        result=run.result,
        counters=counters,
        wall_time=time.perf_counter() - started,
        skipped=run.skipped,
        coverage=None if coverage is None else coverage.to_payload(),
    )


def _fanout_chunk(context, name):
    """Worker-side trampoline for one fanned-out check.

    Returns empty executor counters so the chunk's bookkeeping span
    stays counter-free: the check's own counters travel inside the
    :class:`CheckRun` (and its spans inside the chunk buffer), keeping
    cold and warm metrics totals identical.
    """
    ctx, checks, want_counters = context
    return _execute_check(checks[name], ctx, want_counters), {}


def _node_ok(run: CheckRun | None) -> bool:
    """A check outcome's verdict (``None``/resource results pass)."""
    if run is None:
        return True
    result = run.result
    if result is None:
        return True
    if isinstance(result, bool):
        return result
    return bool(getattr(result, "ok", True))


class Scheduler:
    """Executes check-graph selections deterministically.

    Args:
        graph: the validated check graph.
        fail_fast: stop at the first failing check instead of running
            everything (run-all is the default and matches the old
            monolithic ``verify()``).
        cache: optional :class:`ResultCache`; when given, unchanged
            checks replay instead of running.
    """

    def __init__(
        self,
        graph: CheckGraph,
        fail_fast: bool = False,
        cache: ResultCache | None = None,
    ):
        self.graph = graph
        self.fail_fast = fail_fast
        self.cache = cache

    # ------------------------------------------------------------------
    def run(
        self,
        ctx: PipelineContext,
        only: Iterable[str] | None = None,
        skip: Iterable[str] | None = None,
        overrides: dict[str, dict] | None = None,
    ) -> PipelineResult:
        """Execute the selected subgraph.

        Args:
            ctx: the bound framework context.
            only/skip: subgraph selection (closed over dependencies /
                dependents by the graph).
            overrides: per-check parameter overrides (budgets), merged
                into each check's ``params`` — and therefore into its
                fingerprint.

        The whole selection executes under the context's executor
        backend (``use_backend``), which the fan-out dispatch resolves
        to.
        """
        with use_backend(ctx.backend):
            return self._run_selection(ctx, only, skip, overrides)

    def _run_selection(
        self,
        ctx: PipelineContext,
        only: Iterable[str] | None,
        skip: Iterable[str] | None,
        overrides: dict[str, dict] | None,
    ) -> PipelineResult:
        cache = self.cache
        selection = self.graph.select(only, skip)
        checks = {
            name: self.graph[name].with_params(
                (overrides or {}).get(name)
            )
            for name in selection
        }

        fingerprints: dict[str, str] = {}
        plan: dict[str, str] = {}
        entries: dict[str, dict] = {}
        replayed: dict[str, Any] = {}
        if cache is not None:
            parts = framework_parts(ctx.framework)
            for name in selection:
                check = checks[name]
                fingerprints[name] = combine_fingerprint(
                    name, parts, check.inputs, check.params
                )
            # Probe result-bearing checks first; resource nodes are
            # decided afterwards from their dependents' fate.
            for name in selection:
                check = checks[name]
                if check.provides is not None:
                    continue
                entry = cache.load(name, fingerprints[name])
                if (
                    entry is not None
                    and SWITCH.coverage is not None
                    and ResultCache.entry_coverage(entry) is None
                ):
                    # The entry was stored with coverage recording off:
                    # replaying it would silently drop the check's
                    # contribution from the coverage report.  Re-run.
                    entry = None
                if (
                    entry is not None
                    and entry.get("kind") == check.cache_kind
                    and entry.get("report") is not None
                ):
                    try:
                        replayed[name] = deserialize_result(
                            check.cache_kind, entry["report"]
                        )
                    except (KeyError, TypeError, ValueError):
                        # A malformed stored report: re-run the check.
                        _count("pipeline.cache.unreadable")
                        plan[name] = "run"
                        continue
                    entries[name] = entry
                    plan[name] = "hit"
                else:
                    plan[name] = "run"
            for name in selection:
                check = checks[name]
                if check.provides is None:
                    continue
                needed = any(
                    plan.get(dependent) == "run"
                    for dependent in self.graph.dependents(name)
                )
                entry = None if needed else cache.load(
                    name, fingerprints[name]
                )
                if (
                    entry is not None
                    and SWITCH.coverage is not None
                    and ResultCache.entry_coverage(entry) is None
                ):
                    entry = None
                if entry is not None:
                    entries[name] = entry
                    plan[name] = "hit"
                else:
                    plan[name] = "run"
            _count("pipeline.cache.hits", 0)
            _count("pipeline.cache.misses", 0)
        else:
            plan = {name: "run" for name in selection}

        want_counters = cache is not None
        runs: dict[str, CheckRun] = {}
        statuses: dict[str, str] = {name: "aborted" for name in selection}

        fanout = [
            name
            for name in selection
            if checks[name].fan_out
            and plan[name] == "run"
            and not checks[name].deps
            and ctx.workers > 1
            and not self.fail_fast
        ]
        fanned = set(fanout)
        executor = None
        try:
            pending = None
            if fanout:
                # Submitted before the inline loop, so the fanned
                # checks run beside the graph-bound ones; this process
                # is one of the ``workers``.  The executor resolves to
                # the run's backend (the use_backend scope around this
                # selection); the virtual-worker model runs each
                # fanned check from a cold bundle of this context.
                executor = ParallelExecutor(
                    min(ctx.workers - 1, len(fanout)),
                    context=(ctx, checks, want_counters),
                )
                executor.__enter__()
                pending = executor.map_async(_fanout_chunk, fanout)

            open_group: str | None = None
            group_span = None

            def close_group():
                nonlocal open_group, group_span
                if group_span is not None:
                    group_span.__exit__(None, None, None)
                open_group, group_span = None, None

            try:
                for name in selection:
                    if name in fanned:
                        continue
                    check = checks[name]
                    if check.group != open_group:
                        close_group()
                        if check.group is not None:
                            group_span = _span(check.group)
                            group_span.__enter__()
                            open_group = check.group
                    if plan[name] == "hit":
                        runs[name] = self._replay(
                            check, entries[name], replayed.get(name)
                        )
                        statuses[name] = "hit"
                    else:
                        runs[name] = _execute_check(
                            check, ctx, want_counters
                        )
                        self._finish(check, fingerprints.get(name), runs[name])
                        statuses[name] = "ran"
                    if self.fail_fast and not _node_ok(runs[name]):
                        break
            finally:
                close_group()

            if pending is not None:
                for name, run in zip(fanout, pending.collect()):
                    runs[name] = run
                    self._finish(checks[name], fingerprints.get(name), run)
                    statuses[name] = "ran"
        finally:
            if executor is not None:
                executor.__exit__(None, None, None)

        executions = tuple(
            NodeExecution(
                name=name,
                title=checks[name].title,
                status=statuses[name],
                fingerprint=fingerprints.get(name),
                run=runs.get(name),
                ok=_node_ok(runs.get(name)),
            )
            for name in selection
        )
        hits = sum(1 for status in statuses.values() if status == "hit")
        ran = sum(1 for status in statuses.values() if status == "ran")
        return PipelineResult(
            executions,
            selection,
            cache_enabled=cache is not None,
            cache_hits=hits,
            cache_misses=ran if cache is not None else 0,
            workers=ctx.workers,
        )

    # ------------------------------------------------------------------
    def _finish(
        self, check: Check, fingerprint: str | None, run: CheckRun
    ) -> None:
        """Account for a freshly executed check: cache-miss counter,
        per-check telemetry, and the cache store."""
        if self.cache is not None:
            _count("pipeline.cache.misses", 1)
        telemetry = SWITCH.telemetry
        if telemetry is not None:
            telemetry.observe(
                f"pipeline.check.{check.name}",
                int(run.wall_time * 1e9),
                counter="pipeline.checks",
                check=check.name,
            )
        self._store(check, fingerprint, run)

    def _replay(self, check: Check, entry: dict, result: Any) -> CheckRun:
        """Rebuild a cached check from its entry and its deserialized
        report (``None`` for a resource node): span counters and wall
        time, without running anything."""
        _count("pipeline.cache.hits", 1)
        counters = ResultCache.entry_counters(entry)
        coverage = ResultCache.entry_coverage(entry)
        recorder = SWITCH.coverage
        if recorder is not None and coverage is not None:
            # Replay the stored per-check coverage payload, making a
            # warm run's coverage byte-identical to the cold run that
            # populated the cache.
            recorder.merge_payload(coverage)
        span_name = check.span_name or check.name
        with _span(span_name, cached=True, **check.span_attrs) as span:
            if counters:
                span.record(counters)
        return CheckRun(
            result=result,
            counters=counters,
            wall_time=float(entry.get("wall_time", 0.0)),
            skipped=bool(
                isinstance(entry.get("report"), dict)
                and entry["report"].get("skipped")
            ),
            coverage=coverage,
        )

    def _store(
        self, check: Check, fingerprint: str | None, run: CheckRun
    ) -> None:
        """Persist a freshly executed check (clean reports only)."""
        if self.cache is None or fingerprint is None:
            return
        if check.cache_kind is not None:
            payload = serialize_result(check.cache_kind, run.result)
            if payload is None:
                return  # witness-bearing report: always re-run fresh
        else:
            payload = None
        self.cache.store(
            check.name,
            fingerprint,
            check.cache_kind,
            payload,
            counters=run.counters,
            wall_time=run.wall_time,
            coverage=run.coverage,
        )
