"""Named counters and gauges: the metrics registry.

The :class:`MetricsRegistry` gathers a verification run's numbers
behind one namespace of *named* counters (monotone integers) and
gauges (point-in-time floats), so exporters and the ``--metrics-json``
CLI flag have a single flat, stable schema to emit:

============================ =======================================
``<counter>``                every span counter, summed over the run
                             (``items``, ``cache_hits``,
                             ``rewrite.evaluate.calls``,
                             ``wgrammar.steps``, ...)
``check.<name>.<counter>``   the same counters, per check
``check.<name>.wall_time``   the check's wall seconds (gauge)
``verify.wall_time``         summed per-check wall seconds (gauge)
``verify.workers``           the requested worker count (gauge)
``kernel.intern_table.*``    live intern-table sizes (gauges)
``kernel.arena.*``           packed term-arena sizes (gauges)
============================ =======================================

Span counters merge in through :meth:`MetricsRegistry.merge_tracer`;
the per-check breakdown comes from the pipeline run
(:meth:`MetricsRegistry.record_verification`).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer
    from repro.pipeline.scheduler import PipelineResult

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """A flat namespace of named counters and gauges.

    Counters are monotone integers (:meth:`inc`); gauges are
    point-in-time floats (:meth:`set_gauge`).  Registries merge
    (:meth:`merge`) by summing counters and keeping the latest gauge,
    so per-application registries fold into one run-level record.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauges[name] = value

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, gauges overwrite."""
        for name, value in other.counters.items():
            self.inc(name, value)
        self.gauges.update(other.gauges)

    def merge_counters(
        self, counters: Mapping[str, int], prefix: str = ""
    ) -> None:
        """Fold a plain counter mapping in, optionally prefixed."""
        for name, value in counters.items():
            self.inc(prefix + name, value)

    def merge_tracer(self, tracer: "Tracer") -> None:
        """Fold a tracer's span-counter totals into the registry."""
        self.merge_counters(tracer.counter_totals())

    # ------------------------------------------------------------------
    def record_verification(self, result: "PipelineResult") -> None:
        """Record one pipeline run check by check.

        Each executed or replayed check's span counters land under
        ``check.<name>.<counter>`` and its wall time under the
        ``check.<name>.wall_time`` gauge, so a trace viewer and the
        JSON consumer see the same decomposition the ``--stats`` lines
        print; ``verify.wall_time`` gauges their sum.  Like the
        counters, the wall times add up over repeated calls (one per
        application of ``verify all``).
        """
        for execution in result.executions:
            run = execution.run
            if run is None:
                continue
            prefix = f"check.{execution.name}."
            self.merge_counters(run.counters or {}, prefix=prefix)
            for name in (prefix + "wall_time", "verify.wall_time"):
                self.set_gauge(
                    name, self.gauges.get(name, 0.0) + run.wall_time
                )
        self.set_gauge("verify.workers", result.workers)

    def record_runtime(self, stats: Mapping) -> None:
        """Subsume a :attr:`~repro.runtime.service.SpecRuntime.stats`
        dict under the ``runtime.*`` namespace.

        Counters: ``runtime.updates.accepted`` / ``.rejected``,
        ``runtime.queries``, and ``runtime.journal.*`` when the
        runtime journals.  Gauges: ``runtime.seq``, ``runtime.cells``,
        ``runtime.uptime_seconds`` — the one schema shared by
        ``--metrics-json`` files and the server's ``stats`` op.
        """
        self.inc("runtime.updates.accepted", stats.get("accepted", 0))
        self.inc("runtime.updates.rejected", stats.get("rejected", 0))
        self.inc("runtime.queries", stats.get("queries", 0))
        journal = stats.get("journal")
        if journal:
            self.inc("runtime.journal.appends", journal["appends"])
            self.inc("runtime.journal.syncs", journal["syncs"])
            self.inc(
                "runtime.journal.compactions", journal["compactions"]
            )
        self.set_gauge("runtime.seq", stats.get("seq", 0))
        self.set_gauge("runtime.cells", stats.get("cells", 0))
        self.set_gauge(
            "runtime.uptime_seconds", stats.get("uptime_seconds", 0.0)
        )

    def record_kernel(self) -> None:
        """Gauge the live term-kernel intern tables and the packed
        term arenas."""
        from repro.logic.arena import arena_stats
        from repro.logic.terms import intern_stats, intern_table_size

        detail = intern_stats()
        self.set_gauge("kernel.intern_table.size", intern_table_size())
        self.set_gauge("kernel.intern_table.vars", detail["vars"])
        self.set_gauge("kernel.intern_table.apps", detail["apps"])
        arena = arena_stats()
        self.set_gauge("kernel.arena.terms", arena["terms"])
        self.set_gauge("kernel.arena.bytes", arena["bytes"])

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON-serializable view: sorted counters and gauges."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The registry as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def __str__(self) -> str:
        lines = ["[metrics]"]
        for name, value in sorted(self.counters.items()):
            lines.append(f"  {name} = {value}")
        for name, value in sorted(self.gauges.items()):
            lines.append(f"  {name} = {value:g} (gauge)")
        return "\n".join(lines)
