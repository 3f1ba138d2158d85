"""Algebraic signatures for functions-level specifications.

Paper, Section 4.1: an algebraic specification is a first-order theory
``T = (L, A)`` where the sorts of L include a *Boolean* sort and a
designated *state* sort (the sort-of-interest); the remaining sorts are
*parameter sorts*.  Each parameter sort has its own function symbols
(generating ground *parameter names*) and an equality-test symbol of
sort ``<s, s, Boolean>``.  The Boolean sort has constants True/False
and the five connectives.  All other function symbols take the state
as their last domain sort and are *update functions* (target sort
``state``) or *query functions* (any other target sort).

:class:`AlgebraicSignature` packages these conventions on top of
:class:`repro.logic.Signature` and provides term builders so that
equations can be written compactly.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import SignatureError, SpecificationError
from repro.logic.signature import FunctionSymbol, Signature
from repro.logic.sorts import BOOLEAN, STATE, Sort
from repro.logic.terms import App, Term, Var

__all__ = ["AlgebraicSignature", "CONNECTIVES"]

#: Names of the Boolean connective function symbols, with arities.
CONNECTIVES = {
    "not": 1,
    "and": 2,
    "or": 2,
    "implies": 2,
    "iff": 2,
}


class AlgebraicSignature:
    """The language L2 of an algebraic (functions level) specification.

    The constructor pre-declares the Boolean sort with its constants
    ``True``/``False`` and connectives, and the state sort.  Parameter
    sorts, parameter names (values), queries and updates are declared
    through the ``add_*`` methods.

    Example:
        >>> sig = AlgebraicSignature("courses")
        >>> course = sig.add_parameter_sort("course")
        >>> sig.add_parameter_values(course, ["c1", "c2"])
        >>> sig.add_query("offered", [course])
        >>> sig.add_update("offer", [course])
        >>> sig.add_initial("initiate")
    """

    def __init__(self, name: str = "unnamed"):
        self.name = name
        self.logic = Signature(sorts=[BOOLEAN, STATE])
        self._true = self.logic.add_constant("True", BOOLEAN)
        self._false = self.logic.add_constant("False", BOOLEAN)
        for cname, arity in CONNECTIVES.items():
            self.logic.add_function(cname, [BOOLEAN] * arity, BOOLEAN)
        self._parameter_sorts: list[Sort] = []
        self._domains: dict[Sort, list[str]] = {}
        self._value_symbols: dict[tuple[Sort, str], FunctionSymbol] = {}
        self._queries: dict[str, FunctionSymbol] = {}
        self._updates: dict[str, FunctionSymbol] = {}
        self._initials: dict[str, FunctionSymbol] = {}
        self._interpreted: dict[str, Callable[..., object]] = {}

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def add_parameter_sort(self, name: str) -> Sort:
        """Declare a parameter sort, with its equality-test symbol
        ``eq_<name>`` of sort ``<s, s, Boolean>`` (paper, Section 4.1).
        """
        sort = Sort(name)
        if sort in (BOOLEAN, STATE):
            raise SignatureError(f"{name} is a reserved sort")
        self.logic.add_sort(sort)
        self.logic.add_function(f"eq_{name}", [sort, sort], BOOLEAN)
        self._parameter_sorts.append(sort)
        self._domains[sort] = []
        return sort

    def add_parameter_value(self, sort: Sort, value: str) -> FunctionSymbol:
        """Declare one parameter name (a constant of ``sort``).

        The constant's evaluation result is its own name string, so
        carriers are sets of strings.
        """
        if sort not in self._domains:
            raise SignatureError(f"{sort} is not a parameter sort")
        symbol = self.logic.add_constant(value, sort)
        self._domains[sort].append(value)
        self._value_symbols[(sort, value)] = symbol
        return symbol

    def add_parameter_values(
        self, sort: Sort, values: Iterable[str]
    ) -> list[FunctionSymbol]:
        """Declare several parameter names at once."""
        return [self.add_parameter_value(sort, v) for v in values]

    def add_parameter_function(
        self,
        name: str,
        arg_sorts: Iterable[Sort],
        result_sort: Sort,
        interpretation: Callable[..., object],
    ) -> FunctionSymbol:
        """Declare an interpreted operation on parameter sorts.

        ``interpretation`` receives evaluated argument values (strings
        for parameter sorts, bools for Boolean) and must return a value
        of the result sort (a domain string, or a bool for Boolean).
        """
        arg_sorts = tuple(arg_sorts)
        for sort in arg_sorts:
            if sort == STATE:
                raise SignatureError(
                    "parameter functions may not involve the state sort"
                )
        symbol = self.logic.add_function(name, arg_sorts, result_sort)
        self._interpreted[name] = interpretation
        return symbol

    def add_query(
        self,
        name: str,
        param_sorts: Iterable[Sort],
        result_sort: Sort = BOOLEAN,
    ) -> FunctionSymbol:
        """Declare a query function ``name: <params..., state, result>``.

        The state sort is appended as the last domain sort following
        the paper's convention.
        """
        if result_sort == STATE:
            raise SignatureError(
                "a query function cannot return the state sort "
                "(that would make it an update)"
            )
        symbol = self.logic.add_function(
            name, (*param_sorts, STATE), result_sort
        )
        self._queries[name] = symbol
        return symbol

    def add_update(
        self, name: str, param_sorts: Iterable[Sort]
    ) -> FunctionSymbol:
        """Declare an update function ``name: <params..., state, state>``."""
        symbol = self.logic.add_function(
            name, (*param_sorts, STATE), STATE
        )
        self._updates[name] = symbol
        return symbol

    def add_initial(self, name: str = "initiate") -> FunctionSymbol:
        """Declare an initialization operation of sort ``<state>``.

        The paper's ``initiate`` is a constant of sort state; ground
        state terms (traces) are generated from the initial constants
        by the update functions.
        """
        symbol = self.logic.add_constant(name, STATE)
        self._initials[name] = symbol
        return symbol

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def parameter_sorts(self) -> tuple[Sort, ...]:
        """The declared parameter sorts."""
        return tuple(self._parameter_sorts)

    @property
    def queries(self) -> tuple[FunctionSymbol, ...]:
        """The declared query function symbols."""
        return tuple(self._queries.values())

    @property
    def updates(self) -> tuple[FunctionSymbol, ...]:
        """The declared update function symbols (excluding initials)."""
        return tuple(self._updates.values())

    @property
    def initials(self) -> tuple[FunctionSymbol, ...]:
        """The declared initial-state constants."""
        return tuple(self._initials.values())

    def query(self, name: str) -> FunctionSymbol:
        """Return the query function symbol called ``name``."""
        try:
            return self._queries[name]
        except KeyError:
            raise SignatureError(f"undeclared query {name!r}") from None

    def update(self, name: str) -> FunctionSymbol:
        """Return the update function symbol called ``name``."""
        try:
            return self._updates[name]
        except KeyError:
            raise SignatureError(f"undeclared update {name!r}") from None

    def initial(self, name: str = "initiate") -> FunctionSymbol:
        """Return the initial-state constant called ``name``."""
        try:
            return self._initials[name]
        except KeyError:
            raise SignatureError(f"undeclared initial {name!r}") from None

    def is_query(self, symbol: FunctionSymbol) -> bool:
        """True iff ``symbol`` is a declared query function."""
        return self._queries.get(symbol.name) == symbol

    def is_update(self, symbol: FunctionSymbol) -> bool:
        """True iff ``symbol`` is a declared update function."""
        return self._updates.get(symbol.name) == symbol

    def is_initial(self, symbol: FunctionSymbol) -> bool:
        """True iff ``symbol`` is a declared initial-state constant."""
        return self._initials.get(symbol.name) == symbol

    def is_connective(self, symbol: FunctionSymbol) -> bool:
        """True iff ``symbol`` is one of the Boolean connectives."""
        return symbol.name in CONNECTIVES and symbol.result_sort == BOOLEAN

    def is_equality_test(self, symbol: FunctionSymbol) -> bool:
        """True iff ``symbol`` is a parameter-sort equality test."""
        return (
            symbol.name.startswith("eq_")
            and symbol.result_sort == BOOLEAN
            and len(symbol.arg_sorts) == 2
            and symbol.arg_sorts[0] == symbol.arg_sorts[1]
        )

    def interpretation(self, name: str) -> Callable[..., object] | None:
        """The Python interpretation of an interpreted parameter
        function, or ``None``."""
        return self._interpreted.get(name)

    @property
    def interpreted_functions(self) -> tuple[str, ...]:
        """Names of the declared interpreted parameter functions (the
        relational compiler materializes each as a stored function
        table over its finite argument domains)."""
        return tuple(self._interpreted)

    def domain(self, sort: Sort) -> tuple[str, ...]:
        """The declared parameter names (values) of a parameter sort."""
        try:
            return tuple(self._domains[sort])
        except KeyError:
            raise SignatureError(
                f"{sort} is not a parameter sort of this signature"
            ) from None

    @property
    def domains(self) -> dict[Sort, tuple[str, ...]]:
        """All parameter domains, keyed by sort."""
        return {sort: tuple(vals) for sort, vals in self._domains.items()}

    # ------------------------------------------------------------------
    # term builders
    # ------------------------------------------------------------------
    def true(self) -> App:
        """The Boolean constant term ``True``."""
        return App(self._true, ())

    def false(self) -> App:
        """The Boolean constant term ``False``."""
        return App(self._false, ())

    def boolean(self, value: bool) -> App:
        """``True`` or ``False`` as a term."""
        return self.true() if value else self.false()

    def not_(self, term: Term) -> App:
        """Boolean negation term."""
        return App(self.logic.function("not"), (term,))

    def and_(self, lhs: Term, rhs: Term) -> App:
        """Boolean conjunction term."""
        return App(self.logic.function("and"), (lhs, rhs))

    def or_(self, lhs: Term, rhs: Term) -> App:
        """Boolean disjunction term."""
        return App(self.logic.function("or"), (lhs, rhs))

    def implies_(self, lhs: Term, rhs: Term) -> App:
        """Boolean implication term."""
        return App(self.logic.function("implies"), (lhs, rhs))

    def eq(self, lhs: Term, rhs: Term) -> App:
        """Equality-test term ``eq_<sort>(lhs, rhs)`` for a parameter
        sort."""
        if lhs.sort != rhs.sort:
            raise SpecificationError(
                f"cannot compare sort {lhs.sort} with {rhs.sort}"
            )
        return App(self.logic.function(f"eq_{lhs.sort.name}"), (lhs, rhs))

    def value(self, sort: Sort, value: str) -> App:
        """The constant term for parameter name ``value`` of ``sort``."""
        try:
            return App(self._value_symbols[(sort, value)], ())
        except KeyError:
            raise SignatureError(
                f"{value!r} is not a declared value of sort {sort}"
            ) from None

    def var(self, name: str, sort: Sort) -> Var:
        """A variable of a given sort."""
        return Var(name, sort)

    def state_var(self, name: str = "U") -> Var:
        """A variable of the state sort."""
        return Var(name, STATE)

    def apply_query(self, name: str, *args: Term) -> App:
        """Build the query application ``name(args...)`` (state last)."""
        return App(self.query(name), tuple(args))

    def apply_update(self, name: str, *args: Term) -> App:
        """Build the update application ``name(args...)`` (state last)."""
        return App(self.update(name), tuple(args))

    def initial_term(self, name: str = "initiate") -> App:
        """The ground trace term for an initial-state constant."""
        return App(self.initial(name), ())

    def __repr__(self) -> str:
        return (
            f"AlgebraicSignature({self.name!r}, "
            f"params={[s.name for s in self._parameter_sorts]}, "
            f"queries={sorted(self._queries)}, "
            f"updates={sorted(self._updates)})"
        )
