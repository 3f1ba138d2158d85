"""Denotational semantics of RPR (paper, Section 5.1.2).

A *universe* U for the schema's language is the set of all structures
that differ only on the values of the scalar and relational program
variables — here represented concretely: a :class:`DatabaseState`
records exactly those values, and the universe is the (finite) set of
all database states over the given column domains.

The meaning function m assigns to each statement a binary relation on
U:

    m(x := t)     = {(A,B) / B = A except B(x) = A(t)}
    m(R := F)     = {(A,B) / B = A except B(R) = A(F)}
    m(P?)         = {(A,A) / P is true in A}
    m(p u q)      = m(p) ∪ m(q)
    m(p ; q)      = m(p) ∘ m(q)
    m(p*)         = (m(p))*          (reflexive-transitive closure)

and the meaning function k assigns to ``proc I(Y1,...,Ym) = S`` the
function taking argument values c1,...,cm to the binary relation
``{(A,B) / (A[c/Y], B) ∈ m(S)}``.

Implementation note: instead of materializing the full relations
m(S) ⊆ U×U (quadratic in the exponentially-sized universe), the
evaluator computes their *images* — ``run(S, A)`` returns
``{B / (A,B) ∈ m(S)}`` — which determine the relations completely and
agree with the denotational definitions pointwise (a property-tested
fact).  :func:`statement_relation` materializes the full relation over
an explicitly given universe when the set-theoretic object itself is
wanted.

:func:`compile_proc` and :func:`compile_formula` compile k(proc) and a
wff once into closures over a positional environment, for callers that
evaluate them at many states; :func:`run_proc` and :func:`satisfies`
are their reference semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from repro.errors import ExecutionError, SpecificationError
from repro.logic import formulas as fm
from repro.logic.sorts import Sort
from repro.logic.terms import Term, Var
from repro.rpr.ast import (
    Assign,
    Delete,
    IfThen,
    IfThenElse,
    Insert,
    RelAssign,
    RelationalTerm,
    ScalarRef,
    Schema,
    Seq,
    Skip,
    Star,
    Statement,
    Test,
    Union,
    ValueLiteral,
    While,
)

__all__ = [
    "DatabaseState",
    "Domains",
    "initial_state",
    "evaluate_term",
    "satisfies",
    "evaluate_relational_term",
    "run",
    "run_proc",
    "compile_formula",
    "compile_statement",
    "compile_proc",
    "tuple_getter",
    "statement_relation",
    "proc_function",
    "all_states",
]

#: Column domains: finite carrier per sort.
Domains = Mapping[Sort, tuple[str, ...]]


@dataclass(frozen=True)
class DatabaseState:
    """One structure of the universe: the values of all relational and
    scalar program variables.

    Attributes:
        relations: sorted tuple of (relation name, extension) pairs.
        scalars: sorted tuple of (scalar name, value) pairs.
    """

    relations: tuple[tuple[str, frozenset[tuple[str, ...]]], ...]
    scalars: tuple[tuple[str, Hashable], ...] = ()

    @classmethod
    def make(
        cls,
        relations: Mapping[str, Iterable[tuple[str, ...]]],
        scalars: Mapping[str, Hashable] | None = None,
    ) -> "DatabaseState":
        """Build a state from mappings (normalizing the order)."""
        rel = tuple(
            sorted(
                (name, frozenset(tuple(row) for row in rows))
                for name, rows in relations.items()
            )
        )
        sca = tuple(sorted((scalars or {}).items()))
        return cls(rel, sca)

    def relation(self, name: str) -> frozenset[tuple[str, ...]]:
        """The extension of a relational program variable."""
        for rel_name, extension in self.relations:
            if rel_name == name:
                return extension
        raise ExecutionError(f"state has no relation {name!r}")

    def scalar(self, name: str) -> Hashable:
        """The value of a scalar program variable."""
        for scalar_name, value in self.scalars:
            if scalar_name == name:
                return value
        raise ExecutionError(f"state has no scalar {name!r}")

    def with_relation(
        self, name: str, extension: Iterable[tuple[str, ...]]
    ) -> "DatabaseState":
        """A copy with one relation replaced."""
        frozen = frozenset(tuple(row) for row in extension)
        found = False
        out = []
        for rel_name, old in self.relations:
            if rel_name == name:
                out.append((rel_name, frozen))
                found = True
            else:
                out.append((rel_name, old))
        if not found:
            raise ExecutionError(f"state has no relation {name!r}")
        return DatabaseState(tuple(out), self.scalars)

    def with_scalar(self, name: str, value: Hashable) -> "DatabaseState":
        """A copy with one scalar replaced."""
        found = False
        out = []
        for scalar_name, old in self.scalars:
            if scalar_name == name:
                out.append((scalar_name, value))
                found = True
            else:
                out.append((scalar_name, old))
        if not found:
            raise ExecutionError(f"state has no scalar {name!r}")
        return DatabaseState(self.relations, tuple(out))

    def __str__(self) -> str:
        parts = []
        for name, extension in self.relations:
            rows = ", ".join(
                "(" + ", ".join(row) + ")" for row in sorted(extension)
            )
            parts.append(f"{name} = {{{rows}}}")
        for name, value in self.scalars:
            parts.append(f"{name} = {value}")
        return "; ".join(parts)


def initial_state(
    schema: Schema, scalars: Mapping[str, Hashable] | None = None
) -> DatabaseState:
    """The state with every declared relation empty.

    Scalar variables must be given initial values if declared.
    """
    scalars = dict(scalars or {})
    for decl in schema.scalars:
        if decl.name not in scalars:
            raise ExecutionError(
                f"scalar {decl.name!r} needs an initial value"
            )
    return DatabaseState.make(
        {decl.name: frozenset() for decl in schema.relations}, scalars
    )


# ---------------------------------------------------------------------
# term and formula evaluation over a database state
# ---------------------------------------------------------------------
def evaluate_term(
    term: Term,
    state: DatabaseState,
    valuation: Mapping[Var, str] | None = None,
) -> Hashable:
    """Evaluate an RPR term: a variable (from the valuation), a scalar
    program variable (from the state) or a value literal."""
    valuation = valuation or {}
    if isinstance(term, Var):
        try:
            return valuation[term]
        except KeyError:
            raise ExecutionError(
                f"unbound variable {term.name} in RPR evaluation"
            ) from None
    if isinstance(term, ScalarRef):
        return state.scalar(term.name)
    if isinstance(term, ValueLiteral):
        return term.value
    raise ExecutionError(f"unsupported RPR term: {term}")


def satisfies(
    formula: fm.Formula,
    state: DatabaseState,
    domains: Domains,
    valuation: Mapping[Var, str] | None = None,
) -> bool:
    """Decide a wff over the schema's language at a database state.

    Atoms are relation memberships; quantifiers range over the column
    domains.
    """
    valuation = dict(valuation or {})
    if isinstance(formula, fm.TrueF):
        return True
    if isinstance(formula, fm.FalseF):
        return False
    if isinstance(formula, fm.Atom):
        args = tuple(
            evaluate_term(arg, state, valuation) for arg in formula.args
        )
        return args in state.relation(formula.predicate.name)
    if isinstance(formula, fm.Equals):
        return evaluate_term(formula.lhs, state, valuation) == evaluate_term(
            formula.rhs, state, valuation
        )
    if isinstance(formula, fm.Not):
        return not satisfies(formula.body, state, domains, valuation)
    if isinstance(formula, fm.And):
        return satisfies(
            formula.lhs, state, domains, valuation
        ) and satisfies(formula.rhs, state, domains, valuation)
    if isinstance(formula, fm.Or):
        return satisfies(
            formula.lhs, state, domains, valuation
        ) or satisfies(formula.rhs, state, domains, valuation)
    if isinstance(formula, fm.Implies):
        return (
            not satisfies(formula.lhs, state, domains, valuation)
        ) or satisfies(formula.rhs, state, domains, valuation)
    if isinstance(formula, fm.Iff):
        return satisfies(
            formula.lhs, state, domains, valuation
        ) == satisfies(formula.rhs, state, domains, valuation)
    if isinstance(formula, (fm.Forall, fm.Exists)):
        try:
            carrier = domains[formula.var.sort]
        except KeyError:
            raise ExecutionError(
                f"no domain for sort {formula.var.sort}"
            ) from None
        results = (
            satisfies(
                formula.body,
                state,
                domains,
                {**valuation, formula.var: value},
            )
            for value in carrier
        )
        if isinstance(formula, fm.Forall):
            return all(results)
        return any(results)
    raise ExecutionError(f"unsupported formula in RPR: {formula!r}")


def evaluate_relational_term(
    term: RelationalTerm,
    state: DatabaseState,
    domains: Domains,
    valuation: Mapping[Var, str] | None = None,
) -> frozenset[tuple[str, ...]]:
    """The relation A(F) denoted by ``{(x...) / P}`` at a state."""
    valuation = dict(valuation or {})
    spaces = []
    for var in term.variables:
        try:
            spaces.append(domains[var.sort])
        except KeyError:
            raise ExecutionError(
                f"no domain for sort {var.sort}"
            ) from None
    rows = set()
    for values in itertools.product(*spaces):
        inner = dict(valuation)
        inner.update(zip(term.variables, values))
        if satisfies(term.formula, state, domains, inner):
            rows.add(values)
    return frozenset(rows)


# ---------------------------------------------------------------------
# the meaning functions m and k
# ---------------------------------------------------------------------
def run(
    statement: Statement,
    state: DatabaseState,
    schema: Schema,
    domains: Domains,
    valuation: Mapping[Var, str] | None = None,
) -> frozenset[DatabaseState]:
    """The image of ``state`` under m(statement).

    Derived constructs are interpreted by their defining expansions
    (:meth:`Schema.expansion`, desugared once per schema); iteration
    is the least fixpoint, which exists and is reached in finitely many
    steps because the universe is finite.
    """
    valuation = dict(valuation or {})
    return _run(statement, state, schema, domains, valuation)


def _run(
    statement: Statement,
    state: DatabaseState,
    schema: Schema,
    domains: Domains,
    valuation: dict[Var, str],
) -> frozenset[DatabaseState]:
    if isinstance(statement, Assign):
        value = evaluate_term(statement.term, state, valuation)
        return frozenset({state.with_scalar(statement.scalar, value)})
    if isinstance(statement, RelAssign):
        extension = evaluate_relational_term(
            statement.term, state, domains, valuation
        )
        decl = schema.relation(statement.relation)
        if statement.term.sort != decl.column_sorts:
            raise ExecutionError(
                f"relational assignment to {statement.relation}: sort "
                f"mismatch"
            )
        return frozenset(
            {state.with_relation(statement.relation, extension)}
        )
    if isinstance(statement, Test):
        if satisfies(statement.formula, state, domains, valuation):
            return frozenset({state})
        return frozenset()
    if isinstance(statement, Skip):
        return frozenset({state})
    if isinstance(statement, Union):
        return _run(
            statement.left, state, schema, domains, valuation
        ) | _run(statement.right, state, schema, domains, valuation)
    if isinstance(statement, Seq):
        out: set[DatabaseState] = set()
        for middle in _run(
            statement.left, state, schema, domains, valuation
        ):
            out |= _run(statement.right, middle, schema, domains, valuation)
        return frozenset(out)
    if isinstance(statement, Star):
        reached: set[DatabaseState] = {state}
        frontier = [state]
        while frontier:
            current = frontier.pop()
            for successor in _run(
                statement.body, current, schema, domains, valuation
            ):
                if successor not in reached:
                    reached.add(successor)
                    frontier.append(successor)
        return frozenset(reached)
    if isinstance(
        statement, (IfThen, IfThenElse, While, Insert, Delete)
    ):
        return _run(
            schema.expansion(statement), state, schema, domains, valuation
        )
    raise TypeError(f"not a statement: {statement!r}")


def run_proc(
    schema: Schema,
    name: str,
    args: tuple[str, ...],
    state: DatabaseState,
    domains: Domains,
) -> frozenset[DatabaseState]:
    """The image of ``state`` under k(proc)(args) — definition (7) of
    Section 5.1.2: run the body with the parameters valuated at the
    argument values."""
    proc = schema.proc(name)
    if len(args) != len(proc.params):
        raise ExecutionError(
            f"proc {name} expects {len(proc.params)} argument(s), got "
            f"{len(args)}"
        )
    valuation = dict(zip(proc.params, args))
    return run(proc.body, state, schema, domains, valuation)


# ---------------------------------------------------------------------
# the same, compiled once into closures
# ---------------------------------------------------------------------
#: A compiled term, formula or statement: a closure over a database
#: state and a positional environment, a list with one slot per
#: procedure parameter, relational-term variable and quantifier
#: variable.
Compiled = Callable[[DatabaseState, list], object]

_NO_STATES: frozenset[DatabaseState] = frozenset()


def _raising(error: type[Exception], message: str) -> Compiled:
    """A closure raising ``error(message)`` when it is reached: the
    interpreter's error, deferred from compile time."""

    def fail(state: DatabaseState, env: list):
        raise error(message)

    return fail


def _compile_term(term: Term, scope: Mapping[Var, int]) -> Compiled:
    """:func:`evaluate_term` of ``term`` as a closure; ``scope`` maps
    each bound variable to its environment slot."""
    if isinstance(term, Var):
        slot = scope.get(term)
        if slot is None:
            return _raising(
                ExecutionError,
                f"unbound variable {term.name} in RPR evaluation",
            )
        return lambda state, env: env[slot]
    if isinstance(term, ScalarRef):
        name = term.name
        return lambda state, env: state.scalar(name)
    if isinstance(term, ValueLiteral):
        value = term.value
        return lambda state, env: value
    return _raising(ExecutionError, f"unsupported RPR term: {term}")


def tuple_getter(slots: list[int]) -> Callable[[list], tuple]:
    """A callable reading the tuple of ``env[slot]`` for ``slots``, in
    order: one :func:`operator.itemgetter` where it returns a tuple."""
    if not slots:
        return lambda env: ()
    if len(slots) == 1:  # itemgetter would return a bare value
        (slot,) = slots
        return lambda env: (env[slot],)
    return itemgetter(*slots)


def _compile_arguments(
    args: tuple[Term, ...], scope: Mapping[Var, int]
) -> Compiled:
    """The tuple of an atom's argument values, evaluated in order; one
    getter when every argument is a bound variable."""
    slots = [
        scope.get(arg) if isinstance(arg, Var) else None for arg in args
    ]
    if None not in slots:
        getter = tuple_getter(slots)
        return lambda state, env: getter(env)
    terms = [_compile_term(arg, scope) for arg in args]
    return lambda state, env: tuple([term(state, env) for term in terms])


def compile_formula(
    formula: fm.Formula,
    domains: Domains,
    scope: Mapping[Var, int],
    slots: Iterator[int],
) -> Compiled:
    """:func:`satisfies` of ``formula`` as a closure over
    ``(state, env)``.

    ``scope`` maps each bound variable to its slot in ``env``.  Each
    quantifier takes a fresh slot from ``slots`` (consecutive integers,
    an :func:`itertools.count`), which shadows any outer binding of its
    variable inside its body.  The closure
    decides as :func:`satisfies` does: ``and``, ``or`` and ``implies``
    short-circuit, ``iff`` evaluates both sides, and a quantifier
    iterates its domain in order and stops as ``all``/``any`` stop.
    Domains are looked up at compile time.  A formula the interpreter
    rejects compiles to a closure raising the same error when it is
    reached.
    """
    if isinstance(formula, fm.TrueF):
        return lambda state, env: True
    if isinstance(formula, fm.FalseF):
        return lambda state, env: False
    if isinstance(formula, fm.Atom):
        arguments = _compile_arguments(formula.args, scope)
        name = formula.predicate.name
        return lambda state, env: (
            arguments(state, env) in state.relation(name)
        )
    if isinstance(formula, fm.Equals):
        lhs = _compile_term(formula.lhs, scope)
        rhs = _compile_term(formula.rhs, scope)
        return lambda state, env: lhs(state, env) == rhs(state, env)
    if isinstance(formula, fm.Not):
        body = compile_formula(formula.body, domains, scope, slots)
        return lambda state, env: not body(state, env)
    if isinstance(formula, (fm.And, fm.Or, fm.Implies, fm.Iff)):
        lhs = compile_formula(formula.lhs, domains, scope, slots)
        rhs = compile_formula(formula.rhs, domains, scope, slots)
        if isinstance(formula, fm.And):
            return lambda state, env: lhs(state, env) and rhs(state, env)
        if isinstance(formula, fm.Or):
            return lambda state, env: lhs(state, env) or rhs(state, env)
        if isinstance(formula, fm.Implies):
            return lambda state, env: (not lhs(state, env)) or rhs(
                state, env
            )
        return lambda state, env: lhs(state, env) == rhs(state, env)
    if isinstance(formula, (fm.Forall, fm.Exists)):
        return _compile_quantifier(formula, domains, scope, slots)
    return _raising(
        ExecutionError, f"unsupported formula in RPR: {formula!r}"
    )


def _compile_quantifier(formula, domains, scope, slots) -> Compiled:
    var = formula.var
    slot = next(slots)
    body = compile_formula(formula.body, domains, {**scope, var: slot}, slots)
    try:
        carrier = domains[var.sort]
    except KeyError:
        return _raising(ExecutionError, f"no domain for sort {var.sort}")
    if isinstance(formula, fm.Forall):

        def forall(state: DatabaseState, env: list) -> bool:
            for value in carrier:
                env[slot] = value
                if not body(state, env):
                    return False
            return True

        return forall

    def exists(state: DatabaseState, env: list) -> bool:
        for value in carrier:
            env[slot] = value
            if body(state, env):
                return True
        return False

    return exists


def _compile_relational_term(
    term: RelationalTerm,
    domains: Domains,
    scope: Mapping[Var, int],
    slots: Iterator[int],
) -> Compiled:
    """:func:`evaluate_relational_term` as a closure; the tuple
    variables take consecutive fresh slots."""
    spaces = []
    for var in term.variables:
        try:
            spaces.append(domains[var.sort])
        except KeyError:
            return _raising(ExecutionError, f"no domain for sort {var.sort}")
    positions = [next(slots) for _ in term.variables]
    formula = compile_formula(
        term.formula,
        domains,
        {**scope, **dict(zip(term.variables, positions))},
        slots,
    )
    window = slice(positions[0], positions[-1] + 1) if positions else (
        slice(0, 0)
    )
    candidates = tuple(itertools.product(*spaces))

    def relation(state: DatabaseState, env: list) -> frozenset:
        rows = []
        for values in candidates:
            env[window] = values
            if formula(state, env):
                rows.append(values)
        return frozenset(rows)

    return relation


def _compile_assignment(
    statement: RelAssign,
    schema: Schema,
    domains: Domains,
    scope: Mapping[Var, int],
    slots: Iterator[int],
) -> Compiled:
    term = _compile_relational_term(statement.term, domains, scope, slots)
    name = statement.relation
    try:
        fits = schema.relation(name).column_sorts == statement.term.sort
    except SpecificationError:
        fits = False
    if not fits:

        def misfit(state: DatabaseState, env: list):
            term(state, env)
            schema.relation(name)  # raises for an undeclared relation
            raise ExecutionError(
                f"relational assignment to {name}: sort mismatch"
            )

        return misfit
    return lambda state, env: frozenset(
        {state.with_relation(name, term(state, env))}
    )


def compile_statement(
    statement: Statement,
    schema: Schema,
    domains: Domains,
    scope: Mapping[Var, int],
    slots: Iterator[int],
) -> Callable[[DatabaseState, list], frozenset[DatabaseState]]:
    """:func:`run` of ``statement`` as a closure over ``(state, env)``
    returning the image of ``state`` (see :func:`compile_formula` for
    ``scope`` and ``slots``).

    Derived statements compile through :meth:`Schema.expansion`.  One
    whose expansion raises runs the interpreter when it is reached,
    which raises the same error then and not before: an ``insert`` of
    the wrong arity in a branch never taken does not raise.  A
    relational assignment to an undeclared relation, or of the wrong
    sort, raises after its term is evaluated, as :func:`run` does.
    """
    if isinstance(statement, Assign):
        term = _compile_term(statement.term, scope)
        scalar = statement.scalar
        return lambda state, env: frozenset(
            {state.with_scalar(scalar, term(state, env))}
        )
    if isinstance(statement, RelAssign):
        return _compile_assignment(statement, schema, domains, scope, slots)
    if isinstance(statement, Test):
        formula = compile_formula(statement.formula, domains, scope, slots)
        return lambda state, env: (
            frozenset({state}) if formula(state, env) else _NO_STATES
        )
    if isinstance(statement, Skip):
        return lambda state, env: frozenset({state})
    if isinstance(statement, (Union, Seq)):
        left = compile_statement(statement.left, schema, domains, scope, slots)
        right = compile_statement(
            statement.right, schema, domains, scope, slots
        )
        if isinstance(statement, Union):
            return lambda state, env: left(state, env) | right(state, env)

        def seq(state: DatabaseState, env: list) -> frozenset:
            middles = left(state, env)
            if len(middles) == 1:
                (middle,) = middles
                return right(middle, env)
            out: set[DatabaseState] = set()
            for middle in middles:
                out |= right(middle, env)
            return frozenset(out)

        return seq
    if isinstance(statement, Star):
        body = compile_statement(statement.body, schema, domains, scope, slots)

        def star(state: DatabaseState, env: list) -> frozenset:
            reached = {state}
            frontier = [state]
            while frontier:
                for successor in body(frontier.pop(), env):
                    if successor not in reached:
                        reached.add(successor)
                        frontier.append(successor)
            return frozenset(reached)

        return star
    if isinstance(statement, (IfThen, IfThenElse, While, Insert, Delete)):
        try:
            expansion = schema.expansion(statement)
        except (SpecificationError, TypeError):
            return lambda state, env: _run(
                statement,
                state,
                schema,
                domains,
                {var: env[slot] for var, slot in scope.items()},
            )
        return compile_statement(expansion, schema, domains, scope, slots)
    return _raising(TypeError, f"not a statement: {statement!r}")


def compile_proc(
    schema: Schema, name: str, domains: Domains
) -> Callable[[tuple[str, ...], DatabaseState], frozenset[DatabaseState]]:
    """k(proc) compiled once: a callable ``(args, state)`` returning
    what ``run_proc(schema, name, args, state, domains)`` returns.

    The body becomes one closure over ``(state, env)``; ``env`` holds
    the arguments, then one slot per relational-term variable and
    quantifier variable of the body.

    Raises:
        SpecificationError: for an undeclared procedure, as
            :func:`run_proc` does.
    """
    proc = schema.proc(name)
    arity = len(proc.params)
    slots = itertools.count(arity)
    body = compile_statement(
        proc.body,
        schema,
        domains,
        {var: index for index, var in enumerate(proc.params)},
        slots,
    )
    free = [None] * (next(slots) - arity)

    def run_compiled(
        args: tuple[str, ...], state: DatabaseState
    ) -> frozenset[DatabaseState]:
        if len(args) != arity:
            raise ExecutionError(
                f"proc {name} expects {arity} argument(s), got {len(args)}"
            )
        return body(state, [*args, *free])

    return run_compiled


def all_states(
    schema: Schema,
    domains: Domains,
    scalar_values: Mapping[str, tuple[Hashable, ...]] | None = None,
) -> Iterator[DatabaseState]:
    """Enumerate the universe U: every combination of relation
    extensions (and scalar values, if declared).

    Exponential in the domain sizes; intended for the small universes
    of bounded verification and for materializing m(p) as an explicit
    relation.
    """
    scalar_values = dict(scalar_values or {})
    rel_spaces: list[list[frozenset[tuple[str, ...]]]] = []
    for decl in schema.relations:
        rows = list(
            itertools.product(
                *(domains[sort] for sort in decl.column_sorts)
            )
        )
        subsets = [
            frozenset(
                row for index, row in enumerate(rows) if mask >> index & 1
            )
            for mask in range(1 << len(rows))
        ]
        rel_spaces.append(subsets)
    scalar_names = [decl.name for decl in schema.scalars]
    scalar_spaces = [
        scalar_values.get(
            decl.name, tuple(domains.get(decl.sort, ()))
        )
        for decl in schema.scalars
    ]
    for extensions in itertools.product(*rel_spaces):
        relations = {
            decl.name: extension
            for decl, extension in zip(schema.relations, extensions)
        }
        if scalar_names:
            for values in itertools.product(*scalar_spaces):
                yield DatabaseState.make(
                    relations, dict(zip(scalar_names, values))
                )
        else:
            yield DatabaseState.make(relations)


def statement_relation(
    statement: Statement,
    schema: Schema,
    domains: Domains,
    universe: Iterable[DatabaseState] | None = None,
    valuation: Mapping[Var, str] | None = None,
) -> frozenset[tuple[DatabaseState, DatabaseState]]:
    """Materialize m(statement) as an explicit binary relation over the
    universe (all states by default)."""
    states = (
        list(universe)
        if universe is not None
        else list(all_states(schema, domains))
    )
    pairs = set()
    for state in states:
        for successor in run(statement, state, schema, domains, valuation):
            pairs.add((state, successor))
    return frozenset(pairs)


def proc_function(
    schema: Schema,
    name: str,
    domains: Domains,
):
    """k(d) as a Python callable: args -> (state -> set of states).

    If the proc body is deterministic, the returned images are
    singletons and the callable behaves as a function from U into U
    (the paper's remark at the end of Section 5.1.2).
    """

    def apply(*args: str):
        def on_state(state: DatabaseState) -> frozenset[DatabaseState]:
            return run_proc(schema, name, tuple(args), state, domains)

        return on_state

    return apply
