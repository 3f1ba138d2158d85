"""Algebraic (functions level) specifications T2 = (L2, A2).

An :class:`AlgebraicSpec` pairs an :class:`AlgebraicSignature` with a
set of conditional equations and provides the indexing used by the
rewriting engine: equations grouped by (defined query, constructor of
the state argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import SpecificationError
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.signature import AlgebraicSignature
from repro.logic.sorts import STATE
from repro.logic.terms import App

__all__ = ["AlgebraicSpec"]


@dataclass(frozen=True)
class AlgebraicSpec:
    """A functions-level specification ``T2 = (L2, A2)``.

    Attributes:
        signature: the algebraic language L2.
        equations: the axiom set A2 (conditional equations).
        name: optional human-readable application name.
    """

    signature: AlgebraicSignature
    equations: tuple[ConditionalEquation, ...] = field(
        default_factory=tuple
    )
    name: str = "unnamed application"

    def __post_init__(self) -> None:
        for equation in self.equations:
            self._validate(equation)

    def _validate(self, equation: ConditionalEquation) -> None:
        sig = self.signature
        if equation.is_u_equation:
            lhs = equation.lhs
            if not isinstance(lhs, App) or not sig.is_update(lhs.symbol):
                raise SpecificationError(
                    f"{equation.describe()}: the lhs of an U-equation "
                    "must be an update application"
                )
            return
        if equation.is_q_equation:
            lhs = equation.lhs
            if not isinstance(lhs, App) or not sig.is_query(lhs.symbol):
                raise SpecificationError(
                    f"{equation.describe()}: the lhs of a Q-equation must "
                    "be a query application"
                )
            state_arg = equation.state_argument
            if not isinstance(state_arg, App) or not (
                sig.is_update(state_arg.symbol)
                or sig.is_initial(state_arg.symbol)
            ):
                raise SpecificationError(
                    f"{equation.describe()}: the state argument of the lhs "
                    "must be an update or initiate application "
                    "(constructor discipline)"
                )
            for arg in lhs.args[:-1]:
                if arg.sort == STATE:
                    raise SpecificationError(
                        f"{equation.describe()}: only the last lhs "
                        "argument may have sort state"
                    )

    @property
    def q_equations(self) -> tuple[ConditionalEquation, ...]:
        """The Q-equations (non-state sorted)."""
        return tuple(e for e in self.equations if e.is_q_equation)

    @property
    def u_equations(self) -> tuple[ConditionalEquation, ...]:
        """The U-equations (state sorted)."""
        return tuple(e for e in self.equations if e.is_u_equation)

    @cached_property
    def _index(
        self,
    ) -> dict[tuple[str, str], tuple[ConditionalEquation, ...]]:
        index: dict[tuple[str, str], list[ConditionalEquation]] = {}
        for equation in self.q_equations:
            key = (equation.head_query, equation.constructor)
            index.setdefault(key, []).append(equation)
        return {key: tuple(eqs) for key, eqs in index.items()}

    def equations_for(
        self, query: str, constructor: str
    ) -> tuple[ConditionalEquation, ...]:
        """Q-equations defining ``query`` on states built by
        ``constructor`` (an update or initiate name), in declaration
        order."""
        return self._index.get((query, constructor), ())

    @cached_property
    def _u_index(self) -> dict[str, tuple[ConditionalEquation, ...]]:
        index: dict[str, list[ConditionalEquation]] = {}
        for equation in self.u_equations:
            lhs = equation.lhs
            assert isinstance(lhs, App)
            index.setdefault(lhs.symbol.name, []).append(equation)
        return {key: tuple(eqs) for key, eqs in index.items()}

    def u_equations_for(
        self, constructor: str
    ) -> tuple[ConditionalEquation, ...]:
        """U-equations whose lhs is headed by the given update, in
        declaration order (used as trace-normalization rules)."""
        return self._u_index.get(constructor, ())

    def __str__(self) -> str:
        lines = [f"Algebraic specification: {self.name}"]
        for equation in self.equations:
            lines.append(f"  {equation}")
        return "\n".join(lines)
