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
reachable state space (plus one extra update layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebraic.algebra import Snapshot, TraceAlgebra
from repro.logic.terms import Term

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
    algebra: TraceAlgebra, depth: int = 3, max_pairs_per_class: int = 10
) -> ObservabilityReport:
    """Check that observational equality is a congruence.

    For every pair of observationally equal traces (up to
    ``max_pairs_per_class`` representatives per class, since classes
    can be large) and every update instance, the updated traces must
    again be observationally equal.

    Args:
        algebra: the trace algebra to examine.
        depth: trace enumeration depth.
        max_pairs_per_class: cap on representatives compared per
            observational class.
    """
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
