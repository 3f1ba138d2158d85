"""Differential oracle: rewrite semantics vs the SQL realization.

Representation independence (paper, Section 4.1) says the algebraic
level pins down states *only* up to their observable content — so two
realizations agree exactly when every observation query answers the
same at every step.  The oracle makes that operational: it replays
one trace through both

* the **trace algebra** (conditional rewriting over ground trace
  terms — the semantics the verification pipeline checked), and
* a **relational database** (the lowered schema + transaction
  programs on a SQL backend),

and after every step compares the two full observation snapshots.
Snapshots are interned (:class:`~repro.algebraic.algebra.Snapshot`),
so the comparison literally is "identical answers on every query".
Admission must agree too: a precondition-false update has to be a
no-op on both sides.

Traces come from :meth:`DifferentialOracle.replay` (a given step
list) or :meth:`DifferentialOracle.random_trace` (seeded uniform
choice over the ground update instances, the same generator the
runtime's differential tests use).  A lowering bug — the test suite
injects one deliberately — surfaces as a :class:`Divergence` naming
the step, the update instance, and the disagreeing cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.algebraic.algebra import Snapshot, TraceAlgebra
from repro.algebraic.plans import UpdatePlanner
from repro.obs.tracer import count as _count, span as _span
from repro.relational.backend import RelationalDatabase

__all__ = [
    "DifferentialOracle",
    "Divergence",
    "OracleReport",
    "run_oracle",
]


@dataclass(frozen=True)
class Divergence:
    """One disagreement between the two realizations.

    Attributes:
        step: 0-based index of the diverging step in the trace.
        update: the update applied at that step.
        params: its ground parameters.
        kind: ``"admission"`` (one side admitted, the other
            no-opped) or ``"snapshot"`` (observation answers
            differ).
        detail: human-readable explanation.
        cells: the observation cells that disagree (snapshot
            divergences only).
    """

    step: int
    update: str
    params: tuple[str, ...]
    kind: str
    detail: str
    cells: tuple = ()

    def __str__(self) -> str:
        where = f"{self.update}({', '.join(self.params)})"
        return (
            f"step {self.step} [{where}] {self.kind} divergence: "
            f"{self.detail}"
        )


@dataclass(frozen=True)
class OracleReport:
    """The outcome of one differential run.

    Attributes:
        application: the specification's name.
        backend: the SQL engine's name.
        steps: number of trace steps replayed.
        applied: steps admitted (committed) by both sides.
        noops: steps rejected by the precondition on both sides.
        divergences: disagreements found (the run stops at the
            first one).
    """

    application: str
    backend: str
    steps: int
    applied: int
    noops: int
    divergences: tuple[Divergence, ...] = field(
        default_factory=tuple
    )

    @property
    def passed(self) -> bool:
        """True when the realizations agreed at every step."""
        return not self.divergences

    def to_dict(self) -> dict:
        """JSON-ready form (what ``repro diff-oracle`` prints)."""
        return {
            "application": self.application,
            "backend": self.backend,
            "steps": self.steps,
            "applied": self.applied,
            "noops": self.noops,
            "passed": self.passed,
            "divergences": [str(d) for d in self.divergences],
        }


def _differing_cells(left: Snapshot, right: Snapshot) -> tuple:
    right_values = dict(right.entries)
    return tuple(
        cell
        for cell, value in left.entries
        if right_values.get(cell, object()) != value
    )


class DifferentialOracle:
    """Replays traces through both realizations and compares.

    Args:
        database: the relational realization under test (its
            specification also drives the trace-algebra side, so the
            two sides are lowered from the *same* object).
        seed_algebra: optionally a pre-built trace algebra (defaults
            to a fresh one over the database's spec).
    """

    def __init__(
        self,
        database: RelationalDatabase,
        seed_algebra: TraceAlgebra | None = None,
    ):
        self.database = database
        self.algebra = seed_algebra or TraceAlgebra(database.spec)
        # The lowerer's planner carries the same structured
        # descriptions the SQL side lowered, so both sides decide
        # admission from one grounding.
        self._planner: UpdatePlanner = database.lowerer.planner
        self._instances = tuple(self.algebra.update_instances())

    # ------------------------------------------------------------------
    # trace generation
    # ------------------------------------------------------------------
    def random_trace(
        self, steps: int, seed: int = 0
    ) -> list[tuple[str, tuple[str, ...]]]:
        """A seeded random step list over the ground update
        instances (uniform, like the runtime's differential
        tests)."""
        rng = random.Random(seed)
        return [
            rng.choice(self._instances) for _ in range(steps)
        ]

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def _admits(self, update, params, snapshot: Snapshot) -> bool:
        plan = self._planner.ground(update, params)
        if plan.precondition is None:
            return True
        return bool(
            plan.precondition.closure(
                lambda cell: snapshot.value(cell[0], cell[1])
            )
        )

    def replay(
        self, steps: list[tuple[str, tuple[str, ...]]]
    ) -> OracleReport:
        """Replay one step list through both sides, comparing the
        admission decision and the full snapshot after every step;
        stops at the first divergence."""
        divergences: list[Divergence] = []
        applied = 0
        noops = 0
        trace = self.algebra.initial_trace()
        with _span(
            "relational.oracle.replay",
            application=self.database.spec.name,
            steps=len(steps),
        ):
            for i, (update, params) in enumerate(steps):
                reference = self.algebra.snapshot(trace)
                admits = self._admits(update, params, reference)
                committed = self.database.apply(update, *params)
                if committed != admits:
                    divergences.append(
                        Divergence(
                            i,
                            update,
                            params,
                            "admission",
                            f"SQL side {'committed' if committed else 'no-opped'}, "
                            f"rewrite side "
                            f"{'admitted' if admits else 'rejected'}",
                        )
                    )
                    break
                if admits:
                    trace = self.algebra.apply(
                        update, *params, trace=trace
                    )
                    applied += 1
                else:
                    noops += 1
                expected = self.algebra.snapshot(trace)
                actual = self.database.snapshot()
                if actual != expected:
                    cells = _differing_cells(expected, actual)
                    shown = ", ".join(
                        f"{q}({', '.join(p)})" for q, p in cells[:5]
                    )
                    divergences.append(
                        Divergence(
                            i,
                            update,
                            params,
                            "snapshot",
                            f"{len(cells)} cell(s) disagree: "
                            f"{shown}",
                            cells,
                        )
                    )
                    break
            _count("relational.oracle.steps", applied + noops)
            if divergences:
                _count("relational.oracle.divergences", len(divergences))
        return OracleReport(
            self.database.spec.name,
            self.database.backend.name,
            len(steps),
            applied,
            noops,
            tuple(divergences),
        )

    def run(self, steps: int = 40, seed: int = 0) -> OracleReport:
        """Replay a seeded random trace of ``steps`` steps."""
        return self.replay(self.random_trace(steps, seed))


def run_oracle(
    application: str,
    steps: int = 40,
    seed: int = 0,
    database: RelationalDatabase | None = None,
) -> OracleReport:
    """Build one shipped application's relational realization and run
    the differential oracle against a seeded random trace (the CLI
    and CI smoke entry point).

    Args:
        application: a registry name (courses, projects, bank,
            library).
        steps: trace length.
        seed: random seed.
        database: optionally a pre-built (possibly deliberately
            mis-lowered) realization to test instead.
    """
    from repro.relational.backend import build_database

    db = database or build_database(application)
    try:
        return DifferentialOracle(db).run(steps=steps, seed=seed)
    finally:
        if database is None:
            db.close()
