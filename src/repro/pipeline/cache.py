"""Content-addressed, incremental verification result cache.

Every cache entry is one JSON file under the cache directory, named
``<check>-<fingerprint-prefix>.json`` and carrying the full
fingerprint, the serialized report, the check's span-counter totals
and wall time (from which a replay rebuilds its stats record), and
its coverage payload.  A lookup hits only when the stored format
version and full fingerprint match; anything else — unreadable JSON,
a truncated write, an entry produced by an older format — is treated
as a miss and never raises.

Only *clean* reports are cached: a report carrying witness objects
(violating traces, counterexample snapshots, falsified instances)
re-runs every time, so failure witnesses are always fresh and the
serializers never have to round-trip terms or structures.  The
round-trip invariant the tests pin down: a report rebuilt from its
cache entry renders byte-identically and drives
``FrameworkReport.ok`` identically.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.algebraic.completeness import (
    CompletenessReport,
    CoverageReport,
    TerminationReport,
)
from repro.algebraic.induction import InductionReport
from repro.algebraic.observation import ObservabilityReport
from repro.refinement.first_second import (
    StaticConsistencyReport,
    TransitionConsistencyReport,
)
from repro.refinement.reachability import InclusionReport
from repro.refinement.second_third import SecondToThirdReport

__all__ = ["ResultCache", "serialize_result", "deserialize_result"]

#: Entry format version; bump on any incompatible layout change so
#: stale files stop matching instead of deserializing wrongly.
#: Format 2 added the per-check ``coverage`` payload; format 3 dropped
#: the ``stats`` records (a replay reads its record off ``counters``
#: and ``wall_time``); format 4 dropped the coverage payload's
#: per-cell ``dispatch`` counts and stores a skipped grammar check as
#: ``{"skipped": true}``, so it replays as skipped.
CACHE_FORMAT = 4


# ---------------------------------------------------------------------
# report serializers (clean reports only — no witness objects)
# ---------------------------------------------------------------------
def serialize_result(kind: str, result: Any) -> dict | None:
    """A JSON-portable rendering of a clean report, or ``None`` when
    the report carries witnesses (then it must not be cached)."""
    if kind == "completeness":
        termination, coverage = result.termination, result.coverage
        if (
            termination.non_decreasing_calls
            or termination.cycles
            or coverage.missing_constructors
            or coverage.uncovered
        ):
            return None
        return {
            "termination_ok": termination.ok,
            "structural": termination.structural,
            "coverage_ok": coverage.ok,
            "traces_checked": coverage.traces_checked,
        }
    if kind == "static":
        if result.violations:
            return None
        return {"ok": result.ok, "states_checked": result.states_checked}
    if kind == "inclusion":
        if result.invalid_reachable or result.unreachable_valid:
            return None
        return {
            "reachable_subset_valid": result.reachable_subset_valid,
            "valid_subset_reachable": result.valid_subset_reachable,
            "valid_count": result.valid_count,
            "reachable_count": result.reachable_count,
            "truncated": result.truncated,
        }
    if kind == "transitions":
        if result.violations:
            return None
        return {
            "ok": result.ok,
            "transitions_checked": result.transitions_checked,
        }
    if kind == "induction":
        if result is None:
            return {"skipped": True}
        if result.counterexamples:
            return None
        return {
            "ok": result.ok,
            "base_ok": result.base_ok,
            "step_ok": result.step_ok,
            "states_examined": result.states_examined,
        }
    if kind == "congruence":
        if result.violations:
            return None
        return {
            "ok": result.ok,
            "classes": result.classes,
            "traces_checked": result.traces_checked,
        }
    if kind == "grammar":
        if result is None:
            return {"skipped": True}
        return {"grammar_ok": result}
    if kind in ("second-third", "agreement"):
        if result.failures:
            return None
        return {
            "ok": result.ok,
            "states_checked": result.states_checked,
            "instances_checked": result.instances_checked,
        }
    raise ValueError(f"unknown cache kind {kind!r}")


def deserialize_result(kind: str, payload: dict) -> Any:
    """Rebuild the report object a clean cache entry describes."""
    if kind == "completeness":
        return CompletenessReport(
            termination=TerminationReport(
                ok=payload["termination_ok"],
                structural=payload["structural"],
            ),
            coverage=CoverageReport(
                ok=payload["coverage_ok"],
                traces_checked=payload["traces_checked"],
            ),
        )
    if kind == "static":
        return StaticConsistencyReport(
            ok=payload["ok"], states_checked=payload["states_checked"]
        )
    if kind == "inclusion":
        return InclusionReport(
            reachable_subset_valid=payload["reachable_subset_valid"],
            valid_subset_reachable=payload["valid_subset_reachable"],
            valid_count=payload["valid_count"],
            reachable_count=payload["reachable_count"],
            truncated=payload["truncated"],
        )
    if kind == "transitions":
        return TransitionConsistencyReport(
            ok=payload["ok"],
            transitions_checked=payload["transitions_checked"],
        )
    if kind == "induction":
        if payload.get("skipped"):
            return None
        return InductionReport(
            ok=payload["ok"],
            base_ok=payload["base_ok"],
            step_ok=payload["step_ok"],
            states_examined=payload["states_examined"],
        )
    if kind == "congruence":
        return ObservabilityReport(
            ok=payload["ok"],
            classes=payload["classes"],
            traces_checked=payload["traces_checked"],
        )
    if kind == "grammar":
        if payload.get("skipped"):
            return None
        return payload["grammar_ok"]
    if kind in ("second-third", "agreement"):
        return SecondToThirdReport(
            ok=payload["ok"],
            states_checked=payload["states_checked"],
            instances_checked=payload["instances_checked"],
        )
    raise ValueError(f"unknown cache kind {kind!r}")


# ---------------------------------------------------------------------
# the cache itself
# ---------------------------------------------------------------------
class ResultCache:
    """A directory of content-addressed check results.

    Args:
        root: cache directory (created on first store).

    Attributes:
        hits: lookups that returned an entry this session.
        misses: lookups that found nothing usable.
        stores: entries written this session.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, node: str, fingerprint: str) -> Path:
        return self.root / f"{node}-{fingerprint[:32]}.json"

    # ------------------------------------------------------------------
    def load(self, node: str, fingerprint: str) -> dict | None:
        """The stored entry for ``(node, fingerprint)``, or ``None``.

        Corrupted, truncated, stale-format, or fingerprint-mismatched
        files are ignored (a miss), never fatal.
        """
        path = self._path(node, fingerprint)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != CACHE_FORMAT
            or entry.get("node") != node
            or entry.get("fingerprint") != fingerprint
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(
        self,
        node: str,
        fingerprint: str,
        kind: str | None,
        report_payload: dict | None,
        counters: dict[str, int] | None = None,
        wall_time: float = 0.0,
        coverage: dict | None = None,
    ) -> None:
        """Persist one check outcome (atomic write via rename).

        A failed write (read-only directory, disk full) is swallowed:
        the cache is an accelerator, never a correctness dependency.
        """
        entry = {
            "format": CACHE_FORMAT,
            "node": node,
            "fingerprint": fingerprint,
            "kind": kind,
            "report": report_payload,
            "counters": counters,
            "wall_time": wall_time,
            "coverage": coverage,
        }
        path = self._path(node, fingerprint)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            temp = path.with_suffix(".json.tmp")
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, indent=2)
                handle.write("\n")
            os.replace(temp, path)
            self.stores += 1
        except OSError:
            pass

    # ------------------------------------------------------------------
    @staticmethod
    def entry_counters(entry: dict) -> dict[str, int] | None:
        """The replayed span-counter totals of a loaded entry."""
        counters = entry.get("counters")
        if counters is None:
            return None
        return {str(name): int(value) for name, value in counters.items()}

    @staticmethod
    def entry_coverage(entry: dict) -> dict | None:
        """The replayed per-check coverage payload of a loaded entry
        (``None`` when the entry was stored with coverage off)."""
        coverage = entry.get("coverage")
        if not isinstance(coverage, dict):
            return None
        return coverage

    # ------------------------------------------------------------------
    # maintenance (the ``repro cache`` subcommand)
    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        """Every readable entry file under the cache root, as
        ``{"path", "node", "format", "size", "has_coverage"}`` records
        sorted by file name.  Unreadable files get ``format: None``."""
        if not self.root.is_dir():
            return []
        records = []
        for path in sorted(self.root.glob("*.json")):
            record: dict[str, Any] = {
                "path": str(path),
                "size": path.stat().st_size,
                "node": None,
                "format": None,
                "has_coverage": False,
            }
            try:
                with open(path, encoding="utf-8") as handle:
                    entry = json.load(handle)
                if isinstance(entry, dict):
                    record["node"] = entry.get("node")
                    record["format"] = entry.get("format")
                    record["has_coverage"] = isinstance(
                        entry.get("coverage"), dict
                    )
            except (OSError, ValueError):
                pass
            records.append(record)
        return records

    def summary(self) -> dict:
        """Aggregate statistics over the cache directory: entry and
        byte counts, per-node breakdown, and how many entries are
        stale (unreadable or from an older format version)."""
        records = self.entries()
        by_node: dict[str, int] = {}
        stale = 0
        with_coverage = 0
        for record in records:
            if record["format"] != CACHE_FORMAT:
                stale += 1
            else:
                node = str(record["node"])
                by_node[node] = by_node.get(node, 0) + 1
                if record["has_coverage"]:
                    with_coverage += 1
        return {
            "path": str(self.root),
            "entries": len(records),
            "total_bytes": sum(r["size"] for r in records),
            "format": CACHE_FORMAT,
            "stale": stale,
            "with_coverage": with_coverage,
            "by_node": dict(sorted(by_node.items())),
        }

    def prune(self, everything: bool = False) -> int:
        """Delete stale entries (unreadable or older-format files);
        with ``everything=True`` delete every entry.  Returns the
        number of files removed; removal failures are skipped."""
        removed = 0
        for record in self.entries():
            if everything or record["format"] != CACHE_FORMAT:
                try:
                    os.remove(record["path"])
                    removed += 1
                except OSError:
                    pass
        return removed
