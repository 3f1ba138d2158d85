"""The declarative check node and its execution record.

A :class:`Check` is one verification obligation of the paper's
methodology, lifted out of the old straight-line
``DesignFramework.verify()`` monolith into data the
:class:`~repro.pipeline.scheduler.Scheduler` can order, skip, cache,
and fan out.  A check declares *what it reads* (``inputs`` — keys
into :func:`repro.pipeline.fingerprint.framework_parts`), *what it
needs first* (``deps`` — names of resource-producing checks), and
*how to run* (``run`` — a module-level function so the node survives
``fork`` into parallel workers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Check", "CheckRun"]


@dataclass(frozen=True)
class CheckRun:
    """What one check execution (or cache replay) produced.

    Attributes:
        result: the check's report object (``None`` for a pure
            resource producer whose value lives in the context, or for
            a skipped optional check).
        counters: span-counter totals recorded under the check's span
            subtree (``None`` when tracing was off and no cache was
            attached); with :attr:`wall_time`, the check's
            :class:`~repro.obs.stats.VerificationStats` record.
        wall_time: seconds the execution took (a cache replay carries
            the stored execution's).
        skipped: True when an optional check declined to run (e.g. the
            inductive proof on an over-large abstract space).
        coverage: the check's isolated
            :meth:`repro.obs.coverage.CoverageRecorder.to_payload`
            rendering (``None`` when coverage recording was off).
            Captured under a fresh recorder per check, so the payload
            is a function of the check alone and replays exactly on a
            cache hit.
    """

    result: Any
    counters: dict[str, int] | None = None
    wall_time: float = 0.0
    skipped: bool = False
    coverage: dict | None = None


@dataclass(frozen=True)
class Check:
    """One declarative verification obligation.

    Attributes:
        name: unique node name (``"static"``, ``"grammar"``, ...);
            also the CLI's ``--only``/``--skip`` vocabulary.
        title: one-line human description for listings.
        run: module-level runner ``run(ctx, params) -> CheckRun``.
        inputs: fingerprint part keys this check's outcome depends on
            (see :func:`repro.pipeline.fingerprint.framework_parts`).
        deps: names of checks that must have materialized their
            resource before this one runs (edges of the check graph).
        params: check parameters (depths, budgets, worker count);
            part of the fingerprint, overridable per run.
        provides: resource key this check materializes into the
            context (e.g. ``"graph"``), or ``None``.
        cache_kind: serializer kind for
            :mod:`repro.pipeline.cache` (``None`` = result is never
            cached; counters and wall time still are).
        span_name: span the scheduler opens around the runner; ``None``
            when the runner's own instrumentation already opens the
            canonical span (the hit path then uses ``name``).
        span_attrs: attributes for the scheduler-opened span.
        group: grouping span name — consecutive checks of one group
            nest under one span (the ``first-second`` bundle).
        fan_out: True when the runner is serial and safe to execute in
            a forked worker, letting the scheduler overlap it with
            other checks.
    """

    name: str
    title: str
    run: Callable[..., CheckRun]
    inputs: tuple[str, ...] = ()
    deps: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    provides: str | None = None
    cache_kind: str | None = None
    span_name: str | None = None
    span_attrs: dict = field(default_factory=dict)
    group: str | None = None
    fan_out: bool = False

    def with_params(self, overrides: dict | None) -> "Check":
        """A copy with ``overrides`` merged into :attr:`params`."""
        if not overrides:
            return self
        merged = {**self.params, **overrides}
        return Check(
            name=self.name,
            title=self.title,
            run=self.run,
            inputs=self.inputs,
            deps=self.deps,
            params=merged,
            provides=self.provides,
            cache_kind=self.cache_kind,
            span_name=self.span_name,
            span_attrs=self.span_attrs,
            group=self.group,
            fan_out=self.fan_out,
        )
