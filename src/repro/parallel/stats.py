"""Verification statistics: per-check counters and their merger.

Every check reports the counters it accumulated — work items
processed, rewrite-cache hits and misses, rewrite (equation-firing)
steps, and wall time — as a :class:`WorkerStats` record, folded into
one :class:`VerificationStats` record per check;
:meth:`repro.core.framework.DesignFramework.verify` combines
the per-check records into a single machine-readable bundle that the
benchmarks emit as JSON — the observable perf trajectory of the
verifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.logic.terms import intern_table_size

__all__ = [
    "WorkerStats",
    "VerificationStats",
    "StatsSink",
    "engine_counters",
    "counter_delta",
]

#: The counter keys every chunk function reports.
COUNTER_KEYS = (
    "items",
    "cache_hits",
    "cache_misses",
    "rewrite_steps",
    "dispatch_hits",
    "interned_terms",
)


def engine_counters(*engines) -> dict[str, int]:
    """Snapshot the cache/rewrite counters of rewrite-engine-like
    objects (anything exposing ``cache_hits``/``cache_misses``/
    ``rewrite_steps``/``dispatch_hits``), summed.  ``None`` entries are
    skipped.  ``interned_terms`` is the size of the process-wide term
    intern table (a gauge, recorded once per snapshot, not per
    engine); :func:`counter_delta` turns a pair of snapshots into the
    table's growth over a chunk."""
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
    """The per-chunk counter report: ``after - before`` plus the item
    count.  For the ``interned_terms`` gauge the delta is the number of
    terms interned during the chunk (clamped at zero: weakly referenced
    terms may have been collected in the meantime)."""
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
class WorkerStats:
    """Counters one worker accumulated over one chunk.

    Attributes:
        worker: chunk/worker index (0-based, in partition order).
        items: work items the chunk processed (states, traces,
            structures, equation instances — whatever the check
            partitions).
        cache_hits: rewrite-engine memo hits inside the chunk.
        cache_misses: rewrite-engine memo misses inside the chunk.
        rewrite_steps: conditional-equation firings inside the chunk.
        dispatch_hits: reuses of a compiled dispatch-table entry
            (symbol classification or equation matcher) in the chunk.
        interned_terms: growth of the worker's term intern table over
            the chunk (new unique terms hash-consed).
        wall_time: seconds the chunk took, measured in the worker.
        spans: serialized :class:`repro.obs.tracer.Span` trees the
            chunk recorded (empty unless tracing was enabled); the
            executor grafts them back into the parent's trace in
            chunk submission order.
        coverage: the chunk's serialized
            :class:`repro.obs.coverage.CoverageRecorder` payload
            (``None`` unless coverage recording was enabled); the
            executor folds it into the parent's recorder — coverage
            merging is commutative, so any merge order yields the
            same facts.
    """

    worker: int
    items: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rewrite_steps: int = 0
    dispatch_hits: int = 0
    interned_terms: int = 0
    wall_time: float = 0.0
    spans: tuple = ()
    coverage: dict | None = None

    def to_dict(self) -> dict:
        """A JSON-serializable view of the chunk record (span buffers
        and coverage payloads are part of the trace/coverage outputs,
        not the stats, and are omitted)."""
        return {
            "worker": self.worker,
            "items": self.items,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "rewrite_steps": self.rewrite_steps,
            "dispatch_hits": self.dispatch_hits,
            "interned_terms": self.interned_terms,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkerStats":
        """Rebuild a chunk record serialized by :meth:`to_dict` (the
        result-cache replay path)."""
        return cls(
            worker=payload.get("worker", 0),
            items=payload.get("items", 0),
            cache_hits=payload.get("cache_hits", 0),
            cache_misses=payload.get("cache_misses", 0),
            rewrite_steps=payload.get("rewrite_steps", 0),
            dispatch_hits=payload.get("dispatch_hits", 0),
            interned_terms=payload.get("interned_terms", 0),
            wall_time=payload.get("wall_time", 0.0),
        )


@dataclass(frozen=True)
class VerificationStats:
    """Aggregated statistics of one verification pass.

    Attributes:
        label: which check the record describes (e.g. ``"explore"``,
            ``"coverage"``, ``"second-third"``, or the combined
            ``"verify"``).
        workers: worker count the pass was requested with.
        states_checked: total work items examined (the merger's sum of
            per-worker ``items``, or the serial loop's count).
        cache_hits: total rewrite-cache hits.
        cache_misses: total rewrite-cache misses.
        rewrite_steps: total conditional-equation firings.
        dispatch_hits: total compiled-dispatch-table reuses.
        interned_terms: total intern-table growth (unique terms
            hash-consed during the pass, summed over workers).
        wall_time: elapsed seconds of the whole pass (not the sum of
            worker times — workers overlap).
        per_worker: the unmerged per-worker records.
        parts: sub-records when this record combines several passes
            (the framework-level bundle keeps one part per check).
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
    per_worker: tuple[WorkerStats, ...] = ()
    parts: tuple["VerificationStats", ...] = ()

    @property
    def cache_hit_rate(self) -> float:
        """Hits / (hits + misses), 0.0 when the cache was untouched."""
        touched = self.cache_hits + self.cache_misses
        return self.cache_hits / touched if touched else 0.0

    @classmethod
    def merge(
        cls,
        label: str,
        workers: int,
        per_worker: list[WorkerStats],
        wall_time: float,
    ) -> "VerificationStats":
        """Fold per-worker chunk records into one pass record."""
        return cls(
            label=label,
            workers=workers,
            states_checked=sum(w.items for w in per_worker),
            cache_hits=sum(w.cache_hits for w in per_worker),
            cache_misses=sum(w.cache_misses for w in per_worker),
            rewrite_steps=sum(w.rewrite_steps for w in per_worker),
            dispatch_hits=sum(w.dispatch_hits for w in per_worker),
            interned_terms=sum(w.interned_terms for w in per_worker),
            wall_time=wall_time,
            per_worker=tuple(per_worker),
        )

    @classmethod
    def combine(
        cls, label: str, parts: list["VerificationStats"]
    ) -> "VerificationStats":
        """Combine several pass records (e.g. every check of a full
        framework verification) into one bundle."""
        return cls(
            label=label,
            workers=max((p.workers for p in parts), default=1),
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
        """A JSON-serializable view (the machine-readable emission)."""
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
        if self.per_worker:
            out["per_worker"] = [w.to_dict() for w in self.per_worker]
        if self.parts:
            out["parts"] = [p.to_dict() for p in self.parts]
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "VerificationStats":
        """Rebuild a pass record serialized by :meth:`to_dict`.

        The inverse the result cache relies on: a cached check replays
        its stats record so warm and cold ``--stats-json`` emissions
        are byte-identical (``cache_hit_rate`` is derived, not
        stored).
        """
        return cls(
            label=payload.get("label", ""),
            workers=payload.get("workers", 1),
            states_checked=payload.get("states_checked", 0),
            cache_hits=payload.get("cache_hits", 0),
            cache_misses=payload.get("cache_misses", 0),
            rewrite_steps=payload.get("rewrite_steps", 0),
            dispatch_hits=payload.get("dispatch_hits", 0),
            interned_terms=payload.get("interned_terms", 0),
            wall_time=payload.get("wall_time", 0.0),
            per_worker=tuple(
                WorkerStats.from_dict(worker)
                for worker in payload.get("per_worker", ())
            ),
            parts=tuple(
                cls.from_dict(part) for part in payload.get("parts", ())
            ),
        )

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


@dataclass
class StatsSink:
    """Mutable collector the verification layers append records to.

    Passing a sink into a check is always optional and never changes
    the check's report; the sink only observes.
    """

    records: list[VerificationStats] = field(default_factory=list)

    def add(self, record: VerificationStats) -> None:
        """Append one per-check record to the sink."""
        self.records.append(record)

    def combined(self, label: str = "verify") -> VerificationStats:
        """One bundle record over everything collected so far."""
        return VerificationStats.combine(label, list(self.records))
