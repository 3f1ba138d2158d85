"""Proof-coverage recording: *what* a verification run exercised.

A green report says every check passed; this module records what the
checks actually visited, so a pass can be audited for vacuity:

* **Equation dispatch cells** — the rewrite engine reports, per
  ``(query, constructor)`` pair, how often a top-level evaluation
  dispatched into the cell and which equations fired inside it.  The
  universe of cells is ``queries × (updates ∪ initials)``; a cell with
  no equation is a *sufficient-completeness hole* (Section 4.4a), and
  a cell whose equations never fired is dead weight the bounded sweeps
  never exercised.
* **State-graph census** — per BFS depth, how many states were
  discovered and how many transitions left them: the frontier
  saturation curve that shows whether exploration exhausted the space
  or was truncated mid-growth.
* **W-grammar usage** — per-hyperrule application counts and
  per-metanotion membership-query counts from the schema recognizer.

The active recorder sits in the ``coverage`` slot of
:data:`repro.obs.switch.SWITCH`, the switch the tracer and telemetry
share: hot paths load the slot and touch the recorder only when it is
not ``None`` — one attribute load and one branch when coverage is
off.  ``with activate(coverage=CoverageRecorder()):`` records a
block.

**Determinism.**  Everything exported here is invariant under the
worker count and under cache warmth, by construction:

* per-engine *sets* of fired equations and touched cells union-merge
  to the serial sets (the set of memo-missed terms is the set of
  needed terms, and need distributes over workload unions), while raw
  per-engine fire *counts* would not (forked memos overlap) — so
  counts of equation firings are deliberately **not** exported;
* top-level dispatch counts are sums over the exact workload
  partition, hence partition-invariant;
* the census is computed from the
  :class:`~repro.algebraic.algebra.StateGraph`, which is identical at
  every worker count;
* W-grammar usage is recorded at the recognizer's membership call
  sites, not inside the (memoized) membership recursion, so counts do
  not depend on cache warmth.

Merging is a commutative monoid (sums and unions), so per-check and
per-chunk payloads can be folded in any order; the pipeline stores a
payload per check and replays it on a cache hit, making warm coverage
byte-identical to cold.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

__all__ = [
    "CoverageRecorder",
    "state_graph_census",
    "coverage_document",
    "coverage_digest",
    "invariant_payload",
    "payload_digest",
    "coverage_json",
]

#: Separator between query and constructor in serialized cell keys
#: (both are identifiers, so ``|`` cannot collide).
_CELL_SEP = "|"


class CoverageRecorder:
    """Accumulates the coverage facts of one scope (a run, a check, a
    worker chunk).

    Attributes:
        dispatch: top-level evaluation counts per ``(query,
            constructor)`` cell (partition-invariant).
        hyperrules: W-grammar rule-application counts by rule label.
        metanotions: membership-query counts by metanotion name.
        explore: the state-graph census of the run's exploration, or
            ``None`` while no explore has been recorded.

    Per-equation fire sets (which Q-/U-equation indices fired inside
    each dispatch cell; union-invariant) are exposed through the
    stable accessors :meth:`fire_set`, :meth:`fire_sets`,
    :meth:`u_fire_set` and :meth:`u_fire_sets`.
    """

    __slots__ = (
        "dispatch",
        "_fired",
        "_fired_u",
        "hyperrules",
        "metanotions",
        "explore",
    )

    def __init__(self) -> None:
        self.dispatch: dict[tuple[str, str], int] = {}
        self._fired: dict[tuple[str, str], set[int]] = {}
        self._fired_u: dict[str, set[int]] = {}
        self.hyperrules: dict[str, int] = {}
        self.metanotions: dict[str, int] = {}
        self.explore: dict | None = None

    # ------------------------------------------------------------------
    # per-equation fire sets (the stable public interface)
    # ------------------------------------------------------------------
    def fire_set(
        self, query: str, constructor: str
    ) -> frozenset[int]:
        """The Q-equation indices (into ``spec.equations``) recorded as
        fired inside the ``(query, constructor)`` dispatch cell; empty
        when the cell was never entered."""
        return frozenset(self._fired.get((query, constructor), ()))

    def fire_sets(self) -> dict[tuple[str, str], frozenset[int]]:
        """Every non-empty per-cell Q-equation fire set, as an
        immutable copy (the interface the delta explorer and external
        tools consume)."""
        return {
            cell: frozenset(indices)
            for cell, indices in self._fired.items()
        }

    def u_fire_set(self, constructor: str) -> frozenset[int]:
        """The U-equation indices recorded as fired on a constructor."""
        return frozenset(self._fired_u.get(constructor, ()))

    def u_fire_sets(self) -> dict[str, frozenset[int]]:
        """Every non-empty per-constructor U-equation fire set, as an
        immutable copy."""
        return {
            name: frozenset(indices)
            for name, indices in self._fired_u.items()
        }

    # ------------------------------------------------------------------
    # recording (hot paths; called only while coverage is on)
    # ------------------------------------------------------------------
    def record_dispatch(self, query: str, constructor: str) -> None:
        """Count one top-level evaluation entering a dispatch cell."""
        key = (query, constructor)
        dispatch = self.dispatch
        dispatch[key] = dispatch.get(key, 0) + 1

    def record_fire(
        self, query: str, constructor: str, index: int
    ) -> None:
        """Mark Q-equation ``index`` as fired inside a cell."""
        key = (query, constructor)
        fired = self._fired.get(key)
        if fired is None:
            fired = self._fired[key] = set()
        fired.add(index)

    def record_u_fire(self, constructor: str, index: int) -> None:
        """Mark U-equation ``index`` as fired on a constructor."""
        fired = self._fired_u.get(constructor)
        if fired is None:
            fired = self._fired_u[constructor] = set()
        fired.add(index)

    def record_hyperrule(self, label: str) -> None:
        """Count one admissible application of a W-grammar hyperrule."""
        rules = self.hyperrules
        rules[label] = rules.get(label, 0) + 1

    def record_metanotion(self, name: str) -> None:
        """Count one membership query against a metanotion."""
        metas = self.metanotions
        metas[name] = metas.get(name, 0) + 1

    def record_explore(self, census: dict) -> None:
        """Attach a state-graph census (first census wins: each
        application explores once per run, cold or replayed)."""
        if self.explore is None:
            self.explore = census

    # ------------------------------------------------------------------
    # merging and serialization
    # ------------------------------------------------------------------
    def merge(self, other: "CoverageRecorder") -> None:
        """Fold another recorder in (sum counts, union sets)."""
        for key, value in other.dispatch.items():
            self.dispatch[key] = self.dispatch.get(key, 0) + value
        for key, indices in other._fired.items():
            self._fired.setdefault(key, set()).update(indices)
        for name, indices in other._fired_u.items():
            self._fired_u.setdefault(name, set()).update(indices)
        for name, value in other.hyperrules.items():
            self.hyperrules[name] = self.hyperrules.get(name, 0) + value
        for name, value in other.metanotions.items():
            self.metanotions[name] = (
                self.metanotions.get(name, 0) + value
            )
        if other.explore is not None:
            self.record_explore(other.explore)

    def merge_payload(self, payload: Mapping[str, Any]) -> None:
        """Fold a serialized recorder in (the cache-replay and
        worker-chunk merge path)."""
        self.merge(CoverageRecorder.from_payload(payload))

    def to_payload(self) -> dict:
        """A JSON-portable rendering (sets become sorted lists; cell
        keys become ``"query|constructor"`` strings)."""
        return {
            "dispatch": {
                _CELL_SEP.join(key): value
                for key, value in sorted(self.dispatch.items())
            },
            "fired": {
                _CELL_SEP.join(key): sorted(indices)
                for key, indices in sorted(self._fired.items())
            },
            "fired_u": {
                name: sorted(indices)
                for name, indices in sorted(self._fired_u.items())
            },
            "hyperrules": dict(sorted(self.hyperrules.items())),
            "metanotions": dict(sorted(self.metanotions.items())),
            "explore": self.explore,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "CoverageRecorder":
        """Rebuild a recorder serialized by :meth:`to_payload`."""
        recorder = cls()
        for key, value in payload.get("dispatch", {}).items():
            query, _, constructor = key.partition(_CELL_SEP)
            recorder.dispatch[(query, constructor)] = int(value)
        for key, indices in payload.get("fired", {}).items():
            query, _, constructor = key.partition(_CELL_SEP)
            recorder._fired[(query, constructor)] = {
                int(i) for i in indices
            }
        for name, indices in payload.get("fired_u", {}).items():
            recorder._fired_u[name] = {int(i) for i in indices}
        for name, value in payload.get("hyperrules", {}).items():
            recorder.hyperrules[name] = int(value)
        for name, value in payload.get("metanotions", {}).items():
            recorder.metanotions[name] = int(value)
        explore = payload.get("explore")
        if explore is not None:
            recorder.explore = explore
        return recorder

    def is_empty(self) -> bool:
        """True iff nothing has been recorded yet."""
        return not (
            self.dispatch
            or self._fired
            or self._fired_u
            or self.hyperrules
            or self.metanotions
            or self.explore is not None
        )


# ---------------------------------------------------------------------
# state-graph census
# ---------------------------------------------------------------------
def state_graph_census(graph) -> dict:
    """Per-depth census of an explored state graph.

    Breadth-first from the initial snapshot over the graph's adjacency
    (the same discovery order exploration used, so the census is
    identical for every worker count).  Each level reports the states
    *discovered* at that depth (the frontier), the transitions leaving
    them (including back and cross edges), and the cumulative state
    count — the frontier saturation curve.  The final level always has
    zero new states unless the graph was truncated mid-growth.
    """
    depths: dict = {graph.initial: 0}
    frontier = [graph.initial]
    levels: list[dict] = []
    cumulative = 1
    depth = 0
    while frontier:
        edges = 0
        discovered = []
        for snapshot in frontier:
            for transition in graph.successors(snapshot):
                edges += 1
                if transition.target not in depths:
                    depths[transition.target] = depth + 1
                    discovered.append(transition.target)
        levels.append(
            {
                "depth": depth,
                "frontier": len(frontier),
                "transitions": edges,
                "cumulative_states": cumulative,
            }
        )
        cumulative += len(discovered)
        frontier = discovered
        depth += 1
    return {
        "states": len(graph.states),
        "transitions": len(graph.transitions),
        "truncated": bool(graph.truncated),
        "depth": len(levels) - 1 if levels else 0,
        "levels": levels,
    }


# ---------------------------------------------------------------------
# the coverage document (what coverage.json serializes)
# ---------------------------------------------------------------------
def coverage_document(
    recorder: CoverageRecorder,
    spec,
    application: str | None = None,
    params: Mapping[str, Any] | None = None,
    grammar_labels: list[str] | None = None,
    checks: list[dict] | None = None,
) -> dict:
    """Assemble the machine-readable coverage document.

    Args:
        recorder: the run's merged coverage facts.
        spec: the :class:`~repro.algebraic.spec.AlgebraicSpec` whose
            signature fixes the dispatch-cell universe.
        application: application name recorded in the document.
        params: the run's parameter bounds (depths, state caps).
        grammar_labels: every hyperrule label of the grammar used, so
            unused rules can be listed (omitted when ``None``).
        checks: per-check provenance records
            (:func:`repro.obs.provenance.pipeline_provenance`).

    The document contains only worker-count- and cache-warmth-
    invariant data; serialize with :func:`coverage_json` for the
    byte-stable emission.
    """
    signature = spec.signature
    constructors = [s.name for s in signature.updates] + [
        s.name for s in signature.initials
    ]
    queries = [s.name for s in signature.queries]

    cells = []
    covered = uncovered = missing = 0
    for query in queries:
        for constructor in constructors:
            equations = spec.equations_for(query, constructor)
            fired = recorder.fire_set(query, constructor)
            entries = []
            for equation in equations:
                index = _equation_index(spec, equation)
                entries.append(
                    {
                        "index": index,
                        "label": equation.label,
                        "fired": index in fired,
                    }
                )
            if not equations:
                status = "missing"
                missing += 1
            elif fired:
                status = "covered"
                covered += 1
            else:
                status = "uncovered"
                uncovered += 1
            cells.append(
                {
                    "query": query,
                    "constructor": constructor,
                    "status": status,
                    "dispatches": recorder.dispatch.get(
                        (query, constructor), 0
                    ),
                    "equations": entries,
                }
            )

    equations = []
    for index, equation in enumerate(spec.equations):
        if equation.is_q_equation:
            kind = "Q"
            fired_flag = any(
                index in indices
                for indices in recorder.fire_sets().values()
            )
        else:
            kind = "U"
            fired_flag = any(
                index in indices
                for indices in recorder.u_fire_sets().values()
            )
        equations.append(
            {
                "index": index,
                "kind": kind,
                "label": equation.label,
                "rule": equation.describe(),
                "fired": fired_flag,
            }
        )

    total = len(cells)
    rewrite = {
        "cells": cells,
        "equations": equations,
        "summary": {
            "total_cells": total,
            "covered": covered,
            "uncovered": uncovered,
            "missing": missing,
            "coverage": round(covered / total, 6) if total else 1.0,
            "uncovered_cells": sorted(
                f"{cell['query']}({cell['constructor']})"
                for cell in cells
                if cell["status"] != "covered"
            ),
        },
    }

    wgrammar: dict[str, Any] = {
        "hyperrules": dict(sorted(recorder.hyperrules.items())),
        "metanotions": dict(sorted(recorder.metanotions.items())),
    }
    if grammar_labels is not None:
        wgrammar["unused_hyperrules"] = sorted(
            set(grammar_labels) - set(recorder.hyperrules)
        )

    document: dict[str, Any] = {
        "format": 1,
        "application": application,
        "params": dict(sorted((params or {}).items())),
        "rewrite": rewrite,
        "explore": recorder.explore,
        "wgrammar": wgrammar,
    }
    document["digest"] = coverage_digest(document)
    if checks is not None:
        document["checks"] = checks
    return document


def _equation_index(spec, equation) -> int:
    """Index of ``equation`` within ``spec.equations`` (by identity —
    ``equations_for`` returns the declaration objects themselves)."""
    for index, candidate in enumerate(spec.equations):
        if candidate is equation:
            return index
    return -1


def coverage_digest(document: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical rendering of the invariant sections
    (everything except the digest itself and the provenance records,
    which embed digests of their own)."""
    core = {
        key: value
        for key, value in document.items()
        if key not in ("digest", "checks")
    }
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def invariant_payload(payload: Mapping[str, Any]) -> dict:
    """The worker-count-invariant projection of one *per-check*
    recorder payload.

    Per-check fired-equation sets depend on rewrite-memo warmth at the
    moment the check starts, and memo state evolves differently under
    serial and forked execution — only their union over the whole run
    is invariant.  Per-check dispatch counts, the census, and the
    W-grammar usage are exact for any partition, so provenance records
    digest this projection.
    """
    return {
        "dispatch": payload.get("dispatch", {}),
        "hyperrules": payload.get("hyperrules", {}),
        "metanotions": payload.get("metanotions", {}),
        "explore": payload.get("explore"),
    }


def payload_digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 over the invariant projection of one per-check recorder
    payload (the coverage digest provenance records carry)."""
    canonical = json.dumps(
        invariant_payload(payload),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def coverage_json(document: Mapping[str, Any] | list) -> str:
    """The byte-stable JSON emission of one document (or a list of
    per-application documents): sorted keys, fixed separators."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
