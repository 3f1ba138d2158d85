"""Interpretations I from the information level into the functions
level.

Paper, Section 4.3: "The notion of refinement is formally defined by
specifying an interpretation I mapping the non-logical symbols of L1
into terms of L2": each n-ary db-predicate symbol p of sort
``<s1,...,sn>`` is mapped to a Boolean term of L2 with free variables
``x1,...,xn, σ`` of sorts ``s1,...,sn, state``.  (In the running
example, ``offered`` maps to the term ``offered(c, σ)`` and ``takes``
to ``takes(s, c, σ)``.)

Given I, a trace induces a level-1 structure: the extension of p is
the set of parameter tuples on which I(p) evaluates to True.  This is
the mapping M "from structures of L2 into universes of L1" that the
paper uses for the semantical characterization of correct refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RefinementError, SignatureError
from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.signature import AlgebraicSignature
from repro.information.spec import InformationSpec
from repro.logic.sorts import BOOLEAN, STATE, Sort
from repro.logic.structures import Structure
from repro.logic.substitution import Substitution
from repro.logic.terms import App, Term, Var

__all__ = ["PredicateInterpretation", "Interpretation"]

import itertools


@dataclass(frozen=True)
class PredicateInterpretation:
    """The image I(p) of one db-predicate symbol.

    Attributes:
        variables: the free parameter variables x1,...,xn, in the
            db-predicate's argument order.
        state_var: the free state variable σ.
        term: a Boolean term of L2 over those variables.
    """

    variables: tuple[Var, ...]
    state_var: Var
    term: Term

    def __post_init__(self) -> None:
        if self.term.sort != BOOLEAN:
            raise RefinementError(
                f"interpretation term must have Boolean sort, got "
                f"{self.term.sort}"
            )
        if self.state_var.sort != STATE:
            raise RefinementError("state variable must have sort state")
        allowed = set(self.variables) | {self.state_var}
        extra = self.term.free_vars() - allowed
        if extra:
            names = sorted(v.name for v in extra)
            raise RefinementError(
                f"interpretation term has unexpected free variables: "
                f"{names}"
            )


class Interpretation:
    """An interpretation I of L1's db-predicates as L2 Boolean terms.

    Args:
        assignments: map from db-predicate name to its
            :class:`PredicateInterpretation`.
    """

    def __init__(self, assignments: dict[str, PredicateInterpretation]):
        self._assignments = dict(assignments)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name!r}: {self._assignments[name]!r}"
            for name in sorted(self._assignments)
        )
        return f"Interpretation({{{inner}}})"

    @classmethod
    def homonym(
        cls,
        information: InformationSpec,
        signature: AlgebraicSignature,
    ) -> "Interpretation":
        """The canonical interpretation mapping each db-predicate ``p``
        to the homonym query term ``p(x1,...,xn, σ)``.

        The paper calls this one-to-one correspondence "a certain
        uniformity (...) convenient" (Section 6).

        Raises:
            RefinementError: if a db-predicate has no homonym query or
                the sorts disagree.
        """
        assignments: dict[str, PredicateInterpretation] = {}
        state_var = Var("sigma", STATE)
        for predicate in information.db_predicates:
            try:
                query = signature.query(predicate.name)
            except SignatureError as exc:
                raise RefinementError(
                    f"no query named {predicate.name!r} for the homonym "
                    "interpretation"
                ) from exc
            if tuple(query.arg_sorts[:-1]) != tuple(predicate.arg_sorts):
                raise RefinementError(
                    f"query {predicate.name!r} has parameter sorts "
                    f"{[str(s) for s in query.arg_sorts[:-1]]}, but the "
                    f"db-predicate needs {[str(s) for s in predicate.arg_sorts]}"
                )
            variables = tuple(
                Var(f"x{i + 1}", sort)
                for i, sort in enumerate(predicate.arg_sorts)
            )
            term = App(query, (*variables, state_var))
            assignments[predicate.name] = PredicateInterpretation(
                variables, state_var, term
            )
        return cls(assignments)

    def of(self, predicate_name: str) -> PredicateInterpretation:
        """The image of a db-predicate, by name."""
        try:
            return self._assignments[predicate_name]
        except KeyError:
            raise RefinementError(
                f"interpretation does not cover db-predicate "
                f"{predicate_name!r}"
            ) from None

    @property
    def predicate_names(self) -> tuple[str, ...]:
        """Names of the interpreted db-predicates."""
        return tuple(self._assignments)

    # ------------------------------------------------------------------
    # the induced structure map M
    # ------------------------------------------------------------------
    def realize(
        self,
        algebra: TraceAlgebra,
        predicate_name: str,
        params: tuple[str, ...],
        trace: Term,
    ) -> bool:
        """Evaluate I(p) at parameter values and a trace."""
        interp = self.of(predicate_name)
        signature = algebra.signature
        substitution = Substitution(
            {
                var: signature.value(var.sort, value)
                for var, value in zip(interp.variables, params)
            }
        ).bind(interp.state_var, trace)
        return bool(algebra.engine.evaluate(
            substitution.apply(interp.term)
        ))

    def structure_of_snapshot(
        self,
        information: InformationSpec,
        carriers: dict[Sort, list[str]],
        spec,
        snapshot,
    ) -> Structure:
        """The level-1 structure an *abstract* state (snapshot)
        denotes under I — used by the structural-induction proofs,
        where states need not be realized by any trace.

        ``spec`` is the :class:`~repro.algebraic.spec.AlgebraicSpec`
        whose signature interprets the terms of I.
        """
        from repro.algebraic.induction import (
            AbstractState,
            make_abstract_engine,
        )

        engine = make_abstract_engine(spec)
        signature = spec.signature
        abstract = AbstractState(snapshot)
        relations: dict[str, set[tuple[str, ...]]] = {}
        for predicate in information.db_predicates:
            extension: set[tuple[str, ...]] = set()
            domains = [carriers[sort] for sort in predicate.arg_sorts]
            interp = self.of(predicate.name)
            for params in itertools.product(*domains):
                substitution = Substitution(
                    {
                        var: signature.value(var.sort, value)
                        for var, value in zip(interp.variables, params)
                    }
                ).bind(interp.state_var, abstract)
                if bool(
                    engine.evaluate(substitution.apply(interp.term))
                ):
                    extension.add(params)
            relations[predicate.name] = extension
        return Structure(
            information.signature, carriers, relations=relations
        )

    def structure_of_trace(
        self,
        information: InformationSpec,
        carriers: dict[Sort, list[str]],
        algebra: TraceAlgebra,
        trace: Term,
    ) -> Structure:
        """The level-1 structure a trace denotes under I.

        The extension of each db-predicate p is the set of carrier
        tuples on which I(p) evaluates to True at ``trace``.
        Non-db predicates are left empty (the running examples use
        only db-predicates in their axioms).
        """
        relations: dict[str, set[tuple[str, ...]]] = {}
        for predicate in information.db_predicates:
            extension: set[tuple[str, ...]] = set()
            domains = [carriers[sort] for sort in predicate.arg_sorts]
            for params in itertools.product(*domains):
                if self.realize(algebra, predicate.name, params, trace):
                    extension.add(params)
            relations[predicate.name] = extension
        return Structure(
            information.signature, carriers, relations=relations
        )
