"""Conditional equations — the axioms of algebraic specifications.

Paper, Section 4.1: "The type of axioms allowed in algebraic
specifications will be conditional equations, which are wffs of the
form ``P => t = t'`` where P is a wff and t and t' are terms of the
same sort s.  If s is state then we call the axiom an U-equation,
otherwise we call the axiom a Q-equation.  Often term t' is 'simpler'
than t and we can view an axiom as a conditional term-rewriting rule."
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import SpecificationError
from repro.logic import formulas as fm
from repro.logic.sorts import STATE
from repro.logic.terms import App, Term

__all__ = ["ConditionalEquation"]


@dataclass(frozen=True)
class ConditionalEquation:
    """A conditional equation ``condition => lhs = rhs``.

    Attributes:
        lhs: the left-hand term (the rewriting redex pattern).
        rhs: the right-hand term (the "simpler expression").
        condition: the guard wff P, or ``None`` for an unconditional
            equation.  Its atoms must be equalities between terms and
            it may quantify over parameter sorts only — the paper
            stresses that "the antecedents ... do not involve
            quantification over states, only over parameters".
        label: an optional name used in reports (e.g. ``"eq6a"``).
    """

    lhs: Term
    rhs: Term
    condition: fm.Formula | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.lhs.sort != self.rhs.sort:
            raise SpecificationError(
                f"{self.describe()}: sides have different sorts "
                f"({self.lhs.sort} vs {self.rhs.sort})"
            )
        extra = self.rhs.free_vars() - self.lhs.free_vars()
        if extra:
            names = sorted(v.name for v in extra)
            raise SpecificationError(
                f"{self.describe()}: right-hand side has variables not "
                f"bound by the left-hand side: {names}"
            )
        if self.condition is not None:
            cond_extra = self.condition.free_vars() - self.lhs.free_vars()
            if cond_extra:
                names = sorted(v.name for v in cond_extra)
                raise SpecificationError(
                    f"{self.describe()}: condition has variables not "
                    f"bound by the left-hand side: {names}"
                )
            for sub in self.condition.subformulas():
                if isinstance(sub, (fm.Forall, fm.Exists)):
                    if sub.var.sort == STATE:
                        raise SpecificationError(
                            f"{self.describe()}: condition quantifies over "
                            "states; only parameter quantification is "
                            "allowed (paper, Section 4.2)"
                        )
                if isinstance(sub, fm.Atom):
                    raise SpecificationError(
                        f"{self.describe()}: condition atoms must be "
                        "equalities between terms, not predicate "
                        "applications"
                    )

    @property
    def is_u_equation(self) -> bool:
        """True iff both sides have sort state (an U-equation)."""
        return self.lhs.sort == STATE

    @property
    def is_q_equation(self) -> bool:
        """True iff the sides have a non-state sort (a Q-equation)."""
        return self.lhs.sort != STATE

    @cached_property
    def head_query(self) -> str | None:
        """Name of the outermost function symbol of the lhs, if it is
        an application (for a constructor-based Q-equation this is the
        query being defined)."""
        if isinstance(self.lhs, App):
            return self.lhs.symbol.name
        return None

    @cached_property
    def state_argument(self) -> Term | None:
        """The last argument of the lhs if it has sort state.

        For the canonical pattern ``q(p..., u(p'..., U))`` this is the
        update application ``u(p'..., U)``.
        """
        if isinstance(self.lhs, App) and self.lhs.args:
            last = self.lhs.args[-1]
            if last.sort == STATE:
                return last
        return None

    @cached_property
    def constructor(self) -> str | None:
        """Name of the update/initial symbol heading the lhs's state
        argument, or ``None`` if the state argument is a bare variable
        or missing.

        Equations are indexed by ``(head_query, constructor)`` by the
        rewriting engine.
        """
        state_arg = self.state_argument
        if isinstance(state_arg, App):
            return state_arg.symbol.name
        return None

    def describe(self) -> str:
        """Short identification for error messages."""
        return self.label or f"equation {self.lhs} = {self.rhs}"

    def __str__(self) -> str:
        body = f"{self.lhs} = {self.rhs}"
        prefix = f"[{self.label}] " if self.label else ""
        if self.condition is None:
            return f"{prefix}{body}"
        return f"{prefix}{self.condition} => {body}"
