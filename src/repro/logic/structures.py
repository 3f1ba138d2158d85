"""Finite structures (interpretations) of many-sorted languages.

A :class:`Structure` interprets each sort by a finite *carrier*, each
function symbol by a map on carriers, and each predicate symbol by a
relation.  At the information level, structures play the role of
database states (paper, Section 3.1: "The structures in S play the role
of data base states").

Structures are immutable; state transitions produce new structures via
:meth:`Structure.with_relation`.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Hashable, Iterable

from repro.errors import EvaluationError, SignatureError
from repro.logic.signature import Signature
from repro.logic.sorts import Sort

__all__ = ["Structure", "Valuation"]

#: A valuation assigns domain elements to (free) variables.
Valuation = Mapping[Any, Hashable]


class Structure:
    """A finite many-sorted structure over a signature.

    Args:
        signature: the language's non-logical vocabulary.
        carriers: finite carrier set per sort (keyed by :class:`Sort`
            or by sort name).
        functions: interpretation of the function symbols; each entry
            is either a Python callable (applied to argument values) or
            a mapping from argument tuples to values.  Constants may be
            given directly as values.
        relations: interpretation of the predicate symbols; each entry
            is a set of argument tuples.  Predicates without an entry
            are interpreted as empty (common for db-predicates of a
            fresh state).

    Two structures are equal iff they share signature, carriers,
    relation extensions, and function-symbol names (function
    interpretations given as callables are compared by extension on
    the finite carriers).
    """

    def __init__(
        self,
        signature: Signature,
        carriers: Mapping[Sort | str, Iterable[Hashable]],
        functions: Mapping[str, Any] | None = None,
        relations: Mapping[str, Iterable[tuple]] | None = None,
    ):
        self.signature = signature
        self._carriers: dict[Sort, tuple[Hashable, ...]] = {}
        for key, values in carriers.items():
            sort = signature.sort(key) if isinstance(key, str) else key
            self._carriers[sort] = tuple(dict.fromkeys(values))
        for sort in signature.sorts:
            self._carriers.setdefault(sort, ())

        self._functions: dict[str, Any] = dict(functions or {})
        for name in self._functions:
            if not signature.has_function(name):
                raise SignatureError(
                    f"structure interprets undeclared function {name!r}"
                )

        self._relations: dict[str, frozenset[tuple]] = {}
        relations = relations or {}
        for name, tuples in relations.items():
            pred = signature.predicate(name)
            extension = frozenset(tuple(t) for t in tuples)
            for row in extension:
                if len(row) != pred.arity:
                    raise EvaluationError(
                        f"relation {name} given a tuple of wrong arity: "
                        f"{row}"
                    )
            self._relations[name] = extension
        for pred in signature.predicates:
            self._relations.setdefault(pred.name, frozenset())

    # ------------------------------------------------------------------
    # carriers
    # ------------------------------------------------------------------
    def carrier(self, sort: Sort | str) -> tuple[Hashable, ...]:
        """The carrier (finite domain) of ``sort``."""
        if isinstance(sort, str):
            sort = self.signature.sort(sort)
        try:
            return self._carriers[sort]
        except KeyError:
            raise EvaluationError(f"no carrier for sort {sort}") from None

    @property
    def carriers(self) -> dict[Sort, tuple[Hashable, ...]]:
        """All carriers, keyed by sort."""
        return dict(self._carriers)

    # ------------------------------------------------------------------
    # functions and relations
    # ------------------------------------------------------------------
    def apply_function(self, name: str, args: tuple) -> Hashable:
        """Apply the interpretation of function symbol ``name``.

        A constant with no explicit interpretation evaluates to its own
        name string — the library-wide convention that parameter names
        denote themselves (matching the algebraic level's treatment).
        """
        symbol = self.signature.function(name)
        interp = self._functions.get(name)
        if interp is None:
            if symbol.is_constant:
                return symbol.name
            raise EvaluationError(
                f"structure does not interpret function {name!r}"
            )
        if symbol.is_constant and not callable(interp):
            # Constants may be stored as bare values.
            return interp
        if callable(interp):
            return interp(*args)
        try:
            return interp[args]
        except KeyError:
            raise EvaluationError(
                f"function {name!r} undefined on arguments {args}"
            ) from None

    def relation(self, name: str) -> frozenset[tuple]:
        """The extension of predicate symbol ``name``."""
        self.signature.predicate(name)  # raises if undeclared
        return self._relations.get(name, frozenset())

    def holds(self, name: str, args: tuple) -> bool:
        """True iff ``args`` is in the extension of predicate ``name``."""
        return tuple(args) in self.relation(name)

    @property
    def relations(self) -> dict[str, frozenset[tuple]]:
        """All relation extensions, keyed by predicate name."""
        return dict(self._relations)

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------
    def with_relation(
        self, name: str, extension: Iterable[tuple]
    ) -> "Structure":
        """Return a copy of this structure with one relation replaced."""
        new_relations = dict(self._relations)
        new_relations[name] = frozenset(tuple(t) for t in extension)
        return Structure(
            self.signature, self._carriers, self._functions, new_relations
        )

    def with_relations(
        self, updates: Mapping[str, Iterable[tuple]]
    ) -> "Structure":
        """Return a copy with several relations replaced at once."""
        new_relations = dict(self._relations)
        for name, extension in updates.items():
            new_relations[name] = frozenset(tuple(t) for t in extension)
        return Structure(
            self.signature, self._carriers, self._functions, new_relations
        )

    def insert(self, name: str, row: tuple) -> "Structure":
        """Return a copy with ``row`` added to relation ``name``."""
        return self.with_relation(name, self.relation(name) | {tuple(row)})

    def delete(self, name: str, row: tuple) -> "Structure":
        """Return a copy with ``row`` removed from relation ``name``."""
        return self.with_relation(name, self.relation(name) - {tuple(row)})

    # ------------------------------------------------------------------
    # equality / hashing (by relation extensions and carriers)
    # ------------------------------------------------------------------
    def _key(self) -> tuple:
        return (
            tuple(sorted((s.name, v) for s, v in self._carriers.items())),
            tuple(sorted(self._relations.items())),
            tuple(sorted(self._functions)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        # Rows print sorted, so the text does not depend on hash order.
        rels = ", ".join(
            f"{name}={{{', '.join(map(repr, _sorted_rows(ext)))}}}"
            for name, ext in sorted(self._relations.items())
        )
        return f"Structure({rels})"


def _sorted_rows(extension: frozenset[tuple]) -> list[tuple]:
    try:
        return sorted(extension)
    except TypeError:  # rows mixing incomparable value types
        return sorted(extension, key=repr)
