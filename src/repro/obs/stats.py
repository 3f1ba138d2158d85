"""Per-check verification records, read off the span tree.

The scheduler keeps, for every check of a verification run, the
span-counter totals the check recorded and its wall time (a
:class:`~repro.pipeline.check.CheckRun`).  :meth:`VerificationStats.of_check`
turns that pair into the check's record, and
:meth:`VerificationStats.combine` bundles a run's records: the
``--stats`` lines and the ``--stats-json`` document.

The sweeps record their rewrite-engine work on their spans as the
:func:`counter_delta` of two :func:`engine_counters` snapshots, with
``items`` the work items the sweep processed (states, traces,
structures, equation instances, grammar steps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from repro.logic.terms import intern_table_size

__all__ = ["VerificationStats", "engine_counters", "counter_delta"]


def engine_counters(*engines) -> dict[str, int]:
    """Snapshot the cache/rewrite counters of rewrite-engine-like
    objects (anything exposing ``cache_hits``/``cache_misses``/
    ``rewrite_steps``/``dispatch_hits``), summed.  ``None`` entries are
    skipped.  ``interned_terms`` is the size of the process-wide term
    intern table (a gauge, recorded once per snapshot, not per
    engine); :func:`counter_delta` turns a pair of snapshots into the
    table's growth between them."""
    out = {
        "cache_hits": 0,
        "cache_misses": 0,
        "rewrite_steps": 0,
        "dispatch_hits": 0,
        "interned_terms": intern_table_size(),
    }
    for engine in engines:
        if engine is None:
            continue
        out["cache_hits"] += getattr(engine, "cache_hits", 0)
        out["cache_misses"] += getattr(engine, "cache_misses", 0)
        out["rewrite_steps"] += getattr(engine, "rewrite_steps", 0)
        out["dispatch_hits"] += getattr(engine, "dispatch_hits", 0)
    return out


def counter_delta(
    before: dict[str, int], after: dict[str, int], items: int = 0
) -> dict[str, int]:
    """The span counters of one sweep: ``after - before`` plus the
    item count.  For the ``interned_terms`` gauge the delta is the
    number of terms interned during the sweep (clamped at zero: weakly
    referenced terms may have been collected in the meantime)."""
    delta = {
        key: after.get(key, 0) - before.get(key, 0)
        for key in ("cache_hits", "cache_misses", "rewrite_steps", "dispatch_hits")
    }
    delta["interned_terms"] = max(
        0, after.get("interned_terms", 0) - before.get("interned_terms", 0)
    )
    delta["items"] = items
    return delta


@dataclass(frozen=True)
class VerificationStats:
    """The statistics record of one check, or a bundle of several.

    Attributes:
        label: the check's name (``"explore"``, ``"completeness"``,
            ...), or ``"verify"`` for a run's bundle.
        workers: ``1`` for a check (each runs in one process); the
            requested worker count for a bundle.
        states_checked: work items processed (the ``items`` counter).
        cache_hits: rewrite-cache hits.
        cache_misses: rewrite-cache misses.
        rewrite_steps: conditional-equation firings.
        dispatch_hits: compiled-dispatch-table reuses.
        interned_terms: intern-table growth (unique terms hash-consed
            during the check).
        wall_time: the check's elapsed seconds; a bundle's is the sum
            over its parts.
        parts: a bundle's per-check records, in schedule order.
    """

    label: str
    workers: int = 1
    states_checked: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rewrite_steps: int = 0
    dispatch_hits: int = 0
    interned_terms: int = 0
    wall_time: float = 0.0
    parts: tuple["VerificationStats", ...] = ()

    @property
    def cache_hit_rate(self) -> float:
        """Hits / (hits + misses), 0.0 when the cache was untouched."""
        touched = self.cache_hits + self.cache_misses
        return self.cache_hits / touched if touched else 0.0

    @classmethod
    def of_check(
        cls,
        label: str,
        counters: Mapping[str, int] | None,
        wall_time: float,
    ) -> "VerificationStats":
        """The record of one check: its span-counter totals and its
        wall time."""
        counters = counters or {}
        return cls(
            label=label,
            states_checked=counters.get("items", 0),
            cache_hits=counters.get("cache_hits", 0),
            cache_misses=counters.get("cache_misses", 0),
            rewrite_steps=counters.get("rewrite_steps", 0),
            dispatch_hits=counters.get("dispatch_hits", 0),
            interned_terms=counters.get("interned_terms", 0),
            wall_time=wall_time,
        )

    @classmethod
    def combine(
        cls,
        label: str,
        parts: list["VerificationStats"],
        workers: int = 1,
    ) -> "VerificationStats":
        """Bundle several records (every check of a run) into one."""
        return cls(
            label=label,
            workers=workers,
            states_checked=sum(p.states_checked for p in parts),
            cache_hits=sum(p.cache_hits for p in parts),
            cache_misses=sum(p.cache_misses for p in parts),
            rewrite_steps=sum(p.rewrite_steps for p in parts),
            dispatch_hits=sum(p.dispatch_hits for p in parts),
            interned_terms=sum(p.interned_terms for p in parts),
            wall_time=sum(p.wall_time for p in parts),
            parts=tuple(parts),
        )

    def to_dict(self) -> dict:
        """A JSON-serializable view (the ``--stats-json`` schema)."""
        out = {
            "label": self.label,
            "workers": self.workers,
            "states_checked": self.states_checked,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "rewrite_steps": self.rewrite_steps,
            "dispatch_hits": self.dispatch_hits,
            "interned_terms": self.interned_terms,
            "wall_time": self.wall_time,
        }
        if self.parts:
            out["parts"] = [p.to_dict() for p in self.parts]
        return out

    def to_json(self, indent: int | None = None) -> str:
        """The record as a JSON document (:meth:`to_dict` serialized)."""
        return json.dumps(self.to_dict(), indent=indent)

    def __str__(self) -> str:
        return (
            f"[{self.label}] workers={self.workers} "
            f"states={self.states_checked} "
            f"cache={self.cache_hits}h/{self.cache_misses}m "
            f"({self.cache_hit_rate:.1%}) "
            f"rewrites={self.rewrite_steps} "
            f"dispatch={self.dispatch_hits} "
            f"interned={self.interned_terms} "
            f"wall={self.wall_time:.3f}s"
        )
