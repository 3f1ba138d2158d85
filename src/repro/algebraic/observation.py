"""Observability: identifying states by simple observations.

Paper, Section 4.1: "A term of the form q(t1,...,tn) where q is a
query function and t1,...,tn contain no occurrences of update functions
is called a *simple observation*.  We will construct the language L2 to
be sufficiently rich with queries so that states can be identified by
means of simple observations: if s and s' are state variables such
that for all simple observations f we have f(s) = f(s'), then s = s'."

In the finitely generated trace algebra this condition makes
observational equality the intended state equality.  For it to be a
*well-defined* equality on states it must be a **congruence**: updates
applied to observationally equal traces must yield observationally
equal traces, and that is a genuine, checkable property of a
specification — :func:`check_congruence` verifies it over the
reachable state space (plus one extra update layer).  Inside the
canonical plan fragment it holds by construction, and the check reads
it off the shared trace table (:func:`_congruent_by_construction`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from repro.algebraic.algebra import Snapshot, TraceAlgebra
from repro.algebraic.tracetable import Row, TraceTable
from repro.errors import ReproError
from repro.logic.terms import Term
from repro.obs.tracer import count as _count

__all__ = [
    "CongruenceViolation",
    "ObservabilityReport",
    "check_congruence",
    "observational_classes",
]


@dataclass(frozen=True)
class CongruenceViolation:
    """Two observationally equal traces driven apart by an update."""

    left: Term
    right: Term
    update: str
    params: tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"traces {self.left} and {self.right} are observationally "
            f"equal but {self.update}({', '.join(self.params)}, .) "
            "separates them"
        )


@dataclass(frozen=True)
class ObservabilityReport:
    """Outcome of the congruence / observability check.

    Attributes:
        ok: True iff observational equality is a congruence on the
            explored fragment.
        classes: number of distinct observational classes found.
        traces_checked: number of traces examined.
        violations: witnesses of congruence failure, if any.
    """

    ok: bool
    classes: int
    traces_checked: int
    violations: tuple[CongruenceViolation, ...] = field(
        default_factory=tuple
    )

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return (
                f"observational equality is a congruence on "
                f"{self.traces_checked} traces ({self.classes} classes)"
            )
        lines = ["observational equality is NOT a congruence:"]
        for violation in self.violations:
            lines.append(f"  {violation}")
        return "\n".join(lines)


def observational_classes(
    algebra: TraceAlgebra, depth: int
) -> dict[Snapshot, list[Term]]:
    """Group every trace of at most ``depth`` updates by snapshot."""
    classes: dict[Snapshot, list[Term]] = {}
    for trace in algebra.traces(depth):
        classes.setdefault(algebra.snapshot(trace), []).append(trace)
    return classes


def check_congruence(
    algebra: TraceAlgebra,
    depth: int = 3,
    max_pairs_per_class: int = 10,
    table: TraceTable | None = None,
) -> ObservabilityReport:
    """Check that observational equality is a congruence.

    The reference is an enumeration: for every pair of observationally
    equal traces (up to ``max_pairs_per_class`` representatives per
    class, since classes can be large) and every update instance, the
    updated traces must again be observationally equal.

    Given a :class:`~repro.algebraic.tracetable.TraceTable` built on
    ``algebra``, the check groups the table's rows into classes and,
    inside the canonical plan fragment, reports the congruence by
    construction (:func:`_congruent_by_construction` proves the
    lemma) without taking a successor snapshot.  It counts
    ``congruence.by_construction``, or runs the enumeration and counts
    ``congruence.fallback.<reason>``: ``disabled`` (the algebra is not
    ``packed``), ``outside_fragment``, ``row_error`` (a table row
    failed to evaluate) or ``dispatch_gap``.  Without a table that can
    serve ``depth`` the enumeration runs uncounted.

    Args:
        algebra: the trace algebra to examine.
        depth: trace enumeration depth.
        max_pairs_per_class: cap on representatives compared per
            observational class.
        table: the shared trace table, if one was built.
    """
    if not algebra.packed:
        reason = "disabled"
    else:
        entries = None if table is None else table.entries(algebra, depth)
        if entries is None:
            return _enumerate(algebra, depth, max_pairs_per_class)
        classes = Counter(row for _, row in entries)
        reason = _congruent_by_construction(
            algebra, classes, table.successors
        )
        if reason is None:
            _count("congruence.by_construction")
            return ObservabilityReport(
                ok=True, classes=len(classes), traces_checked=len(entries)
            )
    _count(f"congruence.fallback.{reason}")
    return _enumerate(algebra, depth, max_pairs_per_class)


def _congruent_by_construction(
    algebra: TraceAlgebra,
    classes: Counter[Row],
    applied: Mapping[Row, tuple[Row, ...]],
) -> str | None:
    """Decide the congruence from the table alone — ``classes`` counts
    the traces of each distinct row, ``applied`` holds the table's
    memoized plan applications (:attr:`TraceTable.successors`) —
    returning ``None`` when the lemma below applies, else the
    fallback reason.

    **Lemma.**  Suppose :class:`PackedExplorer` constructs on the
    algebra: no U-equations, no state normalization, and every ground
    update instance ``u(a)`` compiles to a non-fallback
    :class:`~repro.algebraic.plans.UpdatePlan`.  Each such plan gives
    every observation cell ``c`` a dispatch list mirroring the rewrite
    engine's: the equations of ``(q, u)`` grounded at ``c`` and ``a``,
    in declaration order, each a condition and a right-hand side
    compiled to closures that read cells of the *predecessor* state
    only (a fragment equation reads no state but its bare state
    variable).  A cell missing from the plan is a pure frame cell,
    every live entry an identity and the last unconditional; a cell
    no equation grounds keeps an empty dispatch.  So, for every trace
    ``t``, the engine evaluates ``c`` on ``u(a, t)`` by firing the
    first entry whose condition holds on the snapshot of ``t`` — the
    plan's choice — and the snapshot of ``u(a, t)`` is the plan
    applied to the snapshot of ``t`` whenever no dispatch runs out.
    Hence equal snapshots of ``t`` and ``t'`` give equal snapshots of
    ``u(a, t)`` and ``u(a, t')``: observational equality is a
    congruence by construction — the simple-observation condition of
    Section 4.1 — and the enumeration finds no violation.

    **The enumeration could not have raised either.**  It first
    snapshots every table trace, breadth-first
    (:func:`observational_classes`): that is the reference build of
    the table, and the table's rows are the reference's
    (:mod:`repro.algebraic.tracetable` proves it for rows built by
    plans), so it raises nowhere unless a row is ``None``; then the
    check falls back (``row_error``).  It then evaluates every
    cell of ``u(a, t)`` for representatives ``t`` of each class with
    two or more members.  Each instance's plan has been applied to
    that class's row without raising, while the table was built
    (``applied``) or below, where a dispatch that runs out (or a
    specification error raised by a closure) falls back
    (``dispatch_gap``).  So every cell's dispatch reaches an entry
    that fires — the engine fires the same one — over cells of ``t``,
    which the first pass left in the engine's memo: each cell fires
    one equation, as in the table's proof, and cannot run out of fuel
    or recursion.  Classes with one member take no successor snapshot
    in the enumeration, and none here.

    While coverage records, each plan applied here records the
    equations the enumeration's successor snapshots fire (one
    application per class row and instance, as in the enumeration);
    the table recorded those of the rows it applied.
    """
    # Imported here, as in TraceAlgebra: the packed explorer and the
    # plan compiler load only when a check uses them.
    from repro.algebraic.exploration import PackedUnsupported

    explorer = algebra.packed_explorer()
    if explorer is None:
        return "outside_fragment"
    if None in classes:
        return "row_error"
    apply_instance = explorer.applier()
    for row, members in classes.items():
        if members < 2 or row in applied:
            continue
        get = dict(zip(explorer.cells, row)).__getitem__
        for instance in explorer.instances:
            try:
                apply_instance(instance, row, get)
            except (PackedUnsupported, ReproError):
                return "dispatch_gap"
    return None


def _enumerate(
    algebra: TraceAlgebra, depth: int, max_pairs_per_class: int
) -> ObservabilityReport:
    """The reference: compare the successor snapshots of every class's
    representatives under every update instance."""
    classes = observational_classes(algebra, depth)
    violations: list[CongruenceViolation] = []
    traces_checked = sum(len(members) for members in classes.values())
    for members in classes.values():
        representatives = members[:max_pairs_per_class]
        if len(representatives) < 2:
            continue
        anchor = representatives[0]
        # Each anchor successor's snapshot, once per class.
        expected = [
            (
                update,
                params,
                algebra.snapshot(algebra.apply(update, *params, trace=anchor)),
            )
            for update, params in algebra.update_instances()
        ]
        for other in representatives[1:]:
            for update, params, snapshot in expected:
                right = algebra.apply(update, *params, trace=other)
                if algebra.snapshot(right) != snapshot:
                    violations.append(
                        CongruenceViolation(anchor, other, update, params)
                    )
    return ObservabilityReport(
        ok=not violations,
        classes=len(classes),
        traces_checked=traces_checked,
        violations=tuple(violations),
    )
