"""Refinement of the functions level by the representation level.

Paper, Section 5.3: the mapping K sends each update function of L2 to
a procedure declaration of T3, each Boolean query function to a wff of
L3, and parameter symbols to themselves.  "To circumvent this
difficulty [L3 cannot express the wff translation], we adopt a
*semantic* definition of correct refinement": K induces a mapping N
from universes of L3 into finitely generated structures of L2, and "T3
is a correct refinement of T2 iff for every universe of L3, N(U) is a
model of T2".

Section 5.4 proves this for the running example by induction on the
length of the trace ``u_n(u_{n-1}(...(initiate)...))``.  Here the
check is mechanized over the reachable fragment: because every
equation side evaluates through the database state a trace realizes,
validity of A2 in N(U) is decided by checking each equation at every
*reachable database state* (with the equation's state variable valued
at that state) for every parameter instantiation — the same coverage
as the paper's induction, without enumerating syntactic traces.

The sweep runs on a numbered N(U): each database state gets an id, and
the equations' conditions and sides are compiled once per check into
closures over state ids (:meth:`InducedStructure.compile_term` and
:meth:`InducedStructure.compile_condition`), as are the procedures and
the K-images of the queries.  The interpreters
:meth:`InducedStructure.eval_term` and :meth:`InducedStructure.holds`,
:func:`~repro.rpr.semantics.run_proc` and
:meth:`InducedStructure._realize` are their reference semantics.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Hashable, Iterator, Mapping

from repro.errors import (
    ExecutionError,
    RefinementError,
    SignatureError,
)
from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.signature import AlgebraicSignature
from repro.algebraic.spec import AlgebraicSpec
from repro.algebraic.tracetable import TraceTable, evaluate_rows
from repro.logic import formulas as fm
from repro.logic.sorts import BOOLEAN, STATE, Sort
from repro.logic.terms import App, Term, Var
from repro.obs.tracer import count as _count, span as _span
from repro.rpr.ast import Schema, is_deterministic
from repro.rpr.semantics import (
    DatabaseState,
    compile_formula,
    compile_proc,
    initial_state,
    satisfies,
    tuple_getter,
)

__all__ = [
    "QueryRealization",
    "RepresentationMap",
    "InducedStructure",
    "EquationFailure",
    "SecondToThirdReport",
    "check_refinement",
    "check_agreement",
]


@dataclass(frozen=True)
class QueryRealization:
    """The image K(q) of one query function: a wff of L3.

    For a Boolean query the wff has one free variable per query
    parameter (e.g. K(offered) = ``OFFERED(c)``).  For a query of a
    parameter result sort, ``result_var`` names one extra free
    variable and the wff must be *functional* in it: the query's value
    at a state is the unique value of ``result_var`` satisfying the
    wff (e.g. K(balance) = ``BALANCE(a, m)`` with result variable
    ``m``).

    Attributes:
        variables: free variables x1,...,xn (with L3 sorts), one per
            query parameter, in order.
        formula: the L3 wff.
        result_var: the result variable for a non-Boolean query, or
            ``None`` for a Boolean one.
    """

    variables: tuple[Var, ...]
    formula: fm.Formula
    result_var: Var | None = None

    def __post_init__(self) -> None:
        allowed = set(self.variables)
        if self.result_var is not None:
            allowed.add(self.result_var)
        extra = self.formula.free_vars() - allowed
        if extra:
            names = sorted(v.name for v in extra)
            raise RefinementError(
                f"realization wff has unexpected free variables: {names}"
            )


class RepresentationMap:
    """The mapping K from L2 symbols into the schema T3.

    Args:
        query_map: L2 query name -> :class:`QueryRealization`.
        update_map: L2 update name -> procedure name.
        sort_map: L2 parameter sort -> L3 sort (carriers are shared
            value strings).
        initial_proc: procedure implementing the initial constant
            (default ``initiate``); K(initiate) is this procedure run
            on the all-empty state.
    """

    def __init__(
        self,
        query_map: Mapping[str, QueryRealization],
        update_map: Mapping[str, str],
        sort_map: Mapping[Sort, Sort],
        initial_proc: str = "initiate",
    ):
        self.query_map = dict(query_map)
        self.update_map = dict(update_map)
        self.sort_map = dict(sort_map)
        self.initial_proc = initial_proc

    def __repr__(self) -> str:
        queries = ", ".join(
            f"{name!r}: {self.query_map[name]!r}"
            for name in sorted(self.query_map)
        )
        updates = ", ".join(
            f"{name!r}: {self.update_map[name]!r}"
            for name in sorted(self.update_map)
        )
        sorts = ", ".join(
            f"{source!r}: {self.sort_map[source]!r}"
            for source in sorted(self.sort_map, key=lambda s: s.name)
        )
        return (
            f"RepresentationMap(query_map={{{queries}}}, "
            f"update_map={{{updates}}}, sort_map={{{sorts}}}, "
            f"initial_proc={self.initial_proc!r})"
        )

    @classmethod
    def homonym(
        cls, signature: AlgebraicSignature, schema: Schema
    ) -> "RepresentationMap":
        """The canonical correspondence of the running example:

        * each L2 parameter sort maps to the L3 sort whose
          (lower-cased) name starts with the L2 sort's name
          (``student`` -> ``Students``);
        * each query ``q`` maps to the membership wff of the relation
          whose lower-cased name equals ``q`` (``offered`` ->
          ``OFFERED(x1)``);
        * each update maps to the homonym procedure.

        Raises:
            RefinementError: when a correspondence is missing or
                ambiguous — supply the maps explicitly then.
        """
        sort_map: dict[Sort, Sort] = {}
        l3_sorts = schema.sorts
        for l2_sort in signature.parameter_sorts:
            matches = [
                sort
                for sort in l3_sorts
                if sort.name.lower().startswith(l2_sort.name.lower())
            ]
            if len(matches) != 1:
                raise RefinementError(
                    f"cannot map parameter sort {l2_sort} onto a schema "
                    f"sort (candidates: {[s.name for s in matches]})"
                )
            sort_map[l2_sort] = matches[0]

        query_map: dict[str, QueryRealization] = {}
        for query in signature.queries:
            if query.result_sort != BOOLEAN:
                raise RefinementError(
                    f"homonym map only covers Boolean queries; realize "
                    f"{query.name!r} explicitly"
                )
            matches = [
                decl
                for decl in schema.relations
                if decl.name.lower() == query.name.lower()
            ]
            if len(matches) != 1:
                raise RefinementError(
                    f"no unique relation for query {query.name!r}"
                )
            decl = matches[0]
            expected = tuple(
                sort_map[sort] for sort in query.arg_sorts[:-1]
            )
            if decl.column_sorts != expected:
                raise RefinementError(
                    f"relation {decl.name} columns "
                    f"{[s.name for s in decl.column_sorts]} do not match "
                    f"query {query.name} parameters"
                )
            variables = tuple(
                Var(f"x{i + 1}", sort)
                for i, sort in enumerate(decl.column_sorts)
            )
            from repro.logic.signature import PredicateSymbol

            predicate = PredicateSymbol(decl.name, decl.column_sorts)
            query_map[query.name] = QueryRealization(
                variables, fm.Atom(predicate, variables)
            )

        update_map: dict[str, str] = {}
        for update in signature.updates:
            schema.proc(update.name)  # raises if missing
            update_map[update.name] = update.name
        initial_name = signature.initials[0].name
        schema.proc(initial_name)
        return cls(query_map, update_map, sort_map, initial_name)

    def realization(self, query_name: str) -> QueryRealization:
        """The image K(q) of a query, by name."""
        try:
            return self.query_map[query_name]
        except KeyError:
            raise RefinementError(
                f"K does not cover query {query_name!r}"
            ) from None

    def proc_for(self, update_name: str) -> str:
        """The procedure implementing an update."""
        try:
            return self.update_map[update_name]
        except KeyError:
            raise RefinementError(
                f"K does not cover update {update_name!r}"
            ) from None


#: Memo-miss marker (cached query values include ``False``).
_MISSING = object()

#: A compiled term or condition: a closure over a positional
#: environment (a list holding the equation's parameters, its state
#: and one slot per quantifier).
Compiled = Callable[[list], Hashable]


def _failing(message: str) -> Compiled:
    """A closure raising ``RefinementError(message)`` when it is
    reached: the interpreter's error, deferred from compile time."""

    def fail(env: list):
        raise RefinementError(message)

    return fail


def _not_functional(
    query: str,
    params: tuple[str, ...],
    state: DatabaseState,
    candidates: list,
) -> RefinementError:
    return RefinementError(
        f"K({query}) is not functional at state ({state}): "
        f"{len(candidates)} result value(s) for params {params}"
    )


class InducedStructure:
    """The mapping N: the finitely generated L2 structure a schema
    universe induces (paper, Section 5.3).

    States of sort ``state`` are database states; queries are evaluated
    by their K-images; updates act by running their procedures.  Every
    procedure must be deterministic: the induced update *functions*
    would otherwise be multivalued (a procedure that blocks, and so
    would make one partial, raises when it runs).

    N(U) is numbered: each database state the structure meets gets an
    id, in first-seen order, so ids do not depend on the hash seed.
    Procedure results and query values are kept in one row per
    ``(name, params)``, indexed by state id, for the lifetime of the
    instance (one check), so each procedure runs once per state and
    update instance however many equation instances ask for it.  Each
    procedure body and each K(q) realization compiles once, when it is
    first used (:func:`~repro.rpr.semantics.compile_proc`,
    :func:`~repro.rpr.semantics.compile_formula`);
    :func:`~repro.rpr.semantics.run_proc` and :meth:`_realize` are
    their reference semantics.

    Args:
        signature: the L2 language.
        schema: the parsed T3 schema.
        rep_map: the mapping K.
    """

    def __init__(
        self,
        signature: AlgebraicSignature,
        schema: Schema,
        rep_map: RepresentationMap,
    ):
        self.signature = signature
        self.schema = schema
        self.rep_map = rep_map
        self._domains = {
            rep_map.sort_map[sort]: tuple(signature.domain(sort))
            for sort in signature.parameter_sorts
        }
        for proc in schema.procs:
            if not is_deterministic(proc.body):
                raise RefinementError(
                    f"procedure {proc.name!r} is not deterministic; "
                    "the induced update function would be "
                    "multivalued"
                )
        #: The numbering: state -> id, and id -> state.
        self._ids: dict[DatabaseState, int] = {}
        self._states: list[DatabaseState] = []
        #: The id of the all-empty state K(initiate) runs on, once
        #: built, and the id each realized trace denotes.
        self._empty: int | None = None
        self._trace_cache: dict[Term, int] = {}
        #: Successor ids of successful procedure runs and values of
        #: query realizations: name -> params -> row, each row indexed
        #: by state id and holding ``_MISSING`` where nothing is known.
        #: Errors are never stored, so a blocking procedure or a
        #: non-functional realization raises on every call.
        self._step_rows: defaultdict[str, dict] = defaultdict(dict)
        self._query_rows: defaultdict[str, dict] = defaultdict(dict)
        self._rows: list[list] = []
        self._procs: dict[str, Callable] = {}
        self._realizations: dict[str, Callable] = {}
        #: Procedure runs made, and step calls the rows answered.
        self.proc_runs = 0
        self.proc_memo_hits = 0

    @property
    def domains(self) -> dict[Sort, tuple[str, ...]]:
        """The L3 column domains induced by the L2 parameter domains."""
        return dict(self._domains)

    # ------------------------------------------------------------------
    # states
    # ------------------------------------------------------------------
    def initial(self) -> DatabaseState:
        """K(initiate): run the initial procedure on the empty state."""
        return self._states[self._initial()]

    def apply_update(
        self, update: str, params: tuple[str, ...], state: DatabaseState
    ) -> DatabaseState:
        """Run the procedure implementing ``update`` on ``state``."""
        return self._states[
            self._step(
                self.rep_map.proc_for(update), params, self._number(state)
            )
        ]

    def _number(self, state: DatabaseState) -> int:
        """The id of ``state``, assigning the next one to a new state."""
        sid = self._ids.get(state)
        if sid is None:
            sid = self._ids[state] = len(self._states)
            self._states.append(state)
            for row in self._rows:
                row.append(_MISSING)
        return sid

    def _row(self, table: dict, key: tuple[str, ...]) -> list:
        """The row of ``key`` in ``table``, made on first use."""
        row = table.get(key)
        if row is None:
            row = table[key] = [_MISSING] * len(self._states)
            self._rows.append(row)
        return row

    def _initial(self) -> int:
        if self._empty is None:
            self._empty = self._number(initial_state(self.schema))
        return self._step(self.rep_map.initial_proc, (), self._empty)

    def _apply(self, update: str, params: tuple[str, ...], sid: int) -> int:
        return self._step(self.rep_map.proc_for(update), params, sid)

    def _step(self, proc: str, params: tuple[str, ...], sid: int) -> int:
        """The id of the successor of state ``sid`` under
        ``proc(params)``, from its row or by running the procedure."""
        row = self._row(self._step_rows[proc], params)
        successor = row[sid]
        if successor is not _MISSING:
            self.proc_memo_hits += 1
            return successor
        self.proc_runs += 1
        results = self._run_compiled(proc, params, self._states[sid])
        if not results:
            raise ExecutionError(
                f"procedure {proc}({', '.join(params)}) blocks; the "
                "induced update function is partial"
            )
        if len(results) > 1:
            raise ExecutionError(
                f"procedure {proc}({', '.join(params)}) is "
                f"nondeterministic ({len(results)} successors)"
            )
        (state,) = results
        successor = row[sid] = self._number(state)
        return successor

    def _run_compiled(
        self, proc: str, params: tuple[str, ...], state: DatabaseState
    ) -> frozenset[DatabaseState]:
        """``run_proc(schema, proc, params, state, domains)``, by the
        procedure's body compiled on its first run."""
        runner = self._procs.get(proc)
        if runner is None:
            runner = self._procs[proc] = compile_proc(
                self.schema, proc, self._domains
            )
        return runner(params, state)

    def state_of_trace(self, trace: Term) -> DatabaseState:
        """Realize a ground L2 trace as a database state (memoized)."""
        return self._states[self._trace_id(trace)]

    def _trace_id(self, trace: Term) -> int:
        cached = self._trace_cache.get(trace)
        if cached is not None:
            return cached
        if not isinstance(trace, App):
            raise RefinementError(f"not a ground trace: {trace}")
        if self.signature.is_initial(trace.symbol):
            result = self._initial()
        elif self.signature.is_update(trace.symbol):
            inner = self._trace_id(trace.args[-1])
            params = tuple(
                self._param_value(arg) for arg in trace.args[:-1]
            )
            result = self._apply(trace.symbol.name, params, inner)
        else:
            raise RefinementError(f"not a trace constructor: {trace}")
        self._trace_cache[trace] = result
        return result

    @staticmethod
    def _param_value(term: Term) -> str:
        if isinstance(term, App) and term.symbol.is_constant:
            return term.symbol.name
        raise RefinementError(
            f"trace parameter {term} is not a parameter name"
        )

    def reachable_states(
        self, max_states: int = 100_000
    ) -> list[DatabaseState]:
        """BFS over database states from the initial state through all
        update instances."""
        return [self._states[sid] for sid in self._reachable(max_states)]

    def _reachable(self, max_states: int) -> list[int]:
        start = self._initial()
        seen = {start}
        order = [start]
        frontier = deque([start])
        instances = list(self._update_instances())
        while frontier:
            sid = frontier.popleft()
            for update, params in instances:
                successor = self._apply(update, params, sid)
                if successor not in seen:
                    if len(seen) >= max_states:
                        raise RefinementError(
                            "state space exceeds max_states; raise the "
                            "bound or shrink the domains"
                        )
                    seen.add(successor)
                    order.append(successor)
                    frontier.append(successor)
        return order

    def _update_instances(self):
        for update in self.signature.updates:
            spaces = [
                self.signature.domain(sort)
                for sort in update.arg_sorts[:-1]
            ]
            for params in itertools.product(*spaces):
                yield update.name, params

    # ------------------------------------------------------------------
    # evaluation of L2 terms/conditions in the induced structure
    # ------------------------------------------------------------------
    def eval_query(
        self,
        query: str,
        params: tuple[str, ...],
        state: DatabaseState,
    ) -> Hashable:
        """Evaluate query ``q(params)`` at a database state via K(q).

        Boolean queries evaluate their wff directly; non-Boolean
        queries return the unique value of the realization's result
        variable that satisfies the wff.

        Raises:
            RefinementError: if a functional realization has zero or
                several satisfying result values at the state.
        """
        return self._query(query, params, self._number(state))

    def _query(self, query: str, params: tuple[str, ...], sid: int):
        row = self._row(self._query_rows[query], params)
        value = row[sid]
        if value is _MISSING:
            value = row[sid] = self._realize_compiled(
                query, params, self._states[sid]
            )
        return value

    def _realize_compiled(
        self,
        query: str,
        params: tuple[str, ...],
        state: DatabaseState,
    ) -> Hashable:
        """:meth:`_realize`, by the realization's wff compiled on first
        use over the slots ``[*variables, result_var]``."""
        realize = self._realizations.get(query)
        if realize is None:
            realize = self._realizations[query] = self._compile_realization(
                query
            )
        return realize(params, state)

    def _compile_realization(self, query: str):
        realization = self.rep_map.realization(query)
        variables = realization.variables
        result_var = realization.result_var
        frame = [*variables] if result_var is None else [
            *variables, result_var
        ]
        slots = itertools.count(len(frame))
        formula = compile_formula(
            realization.formula,
            self._domains,
            {var: index for index, var in enumerate(frame)},
            slots,
        )
        free = [None] * (next(slots) - len(variables))
        arity = len(variables)
        interpreted = self._realize
        if result_var is None:

            def realize(params, state):
                if len(params) != arity:  # _realize binds a prefix
                    return interpreted(query, params, state)
                return formula(state, [*params, *free])

            return realize
        candidates = self._domains.get(result_var.sort, ())

        def realize_functional(params, state):
            if len(params) != arity:
                return interpreted(query, params, state)
            env = [*params, *free]
            found = []
            for value in candidates:
                env[arity] = value
                if formula(state, env):
                    found.append(value)
            if len(found) != 1:
                raise _not_functional(query, params, state, found)
            return found[0]

        return realize_functional

    def _realize(
        self,
        query: str,
        params: tuple[str, ...],
        state: DatabaseState,
    ) -> Hashable:
        realization = self.rep_map.realization(query)
        valuation = {
            var: value
            for var, value in zip(realization.variables, params)
        }
        if realization.result_var is None:
            return satisfies(
                realization.formula, state, self._domains, valuation
            )
        result_var = realization.result_var
        candidates = [
            value
            for value in self._domains.get(result_var.sort, ())
            if satisfies(
                realization.formula,
                state,
                self._domains,
                {**valuation, result_var: value},
            )
        ]
        if len(candidates) != 1:
            raise _not_functional(query, params, state, candidates)
        return candidates[0]

    def eval_term(
        self,
        term: Term,
        valuation: Mapping[Var, Hashable],
    ) -> Hashable:
        """Evaluate an L2 term (of parameter/Boolean/state sort) in the
        induced structure; state-sorted subterms evaluate to database
        states."""
        if isinstance(term, Var):
            try:
                return valuation[term]
            except KeyError:
                raise RefinementError(
                    f"unbound variable {term.name}"
                ) from None
        if not isinstance(term, App):
            raise RefinementError(f"unsupported term {term!r}")
        symbol = term.symbol
        sig = self.signature
        if symbol.name == "True" and symbol.result_sort == BOOLEAN:
            return True
        if symbol.name == "False" and symbol.result_sort == BOOLEAN:
            return False
        if sig.is_connective(symbol):
            values = [
                bool(self.eval_term(arg, valuation)) for arg in term.args
            ]
            return {
                "not": lambda: not values[0],
                "and": lambda: values[0] and values[1],
                "or": lambda: values[0] or values[1],
                "implies": lambda: (not values[0]) or values[1],
                "iff": lambda: values[0] == values[1],
            }[symbol.name]()
        if sig.is_equality_test(symbol):
            return self.eval_term(
                term.args[0], valuation
            ) == self.eval_term(term.args[1], valuation)
        interp = sig.interpretation(symbol.name)
        if interp is not None:
            return interp(
                *(self.eval_term(arg, valuation) for arg in term.args)
            )
        if sig.is_initial(symbol):
            return self.initial()
        if sig.is_update(symbol):
            inner = self.eval_term(term.args[-1], valuation)
            params = tuple(
                str(self.eval_term(arg, valuation))
                for arg in term.args[:-1]
            )
            return self.apply_update(symbol.name, params, inner)
        if sig.is_query(symbol):
            state = self.eval_term(term.args[-1], valuation)
            params = tuple(
                str(self.eval_term(arg, valuation))
                for arg in term.args[:-1]
            )
            return self.eval_query(symbol.name, params, state)
        if symbol.is_constant:
            return symbol.name  # a parameter name
        raise RefinementError(f"cannot evaluate {term} in N(U)")

    def holds(
        self,
        condition: fm.Formula,
        valuation: Mapping[Var, Hashable],
    ) -> bool:
        """Decide an equation condition in the induced structure."""
        valuation = dict(valuation)
        if isinstance(condition, fm.TrueF):
            return True
        if isinstance(condition, fm.FalseF):
            return False
        if isinstance(condition, fm.Equals):
            return self.eval_term(
                condition.lhs, valuation
            ) == self.eval_term(condition.rhs, valuation)
        if isinstance(condition, fm.Not):
            return not self.holds(condition.body, valuation)
        if isinstance(condition, fm.And):
            return self.holds(condition.lhs, valuation) and self.holds(
                condition.rhs, valuation
            )
        if isinstance(condition, fm.Or):
            return self.holds(condition.lhs, valuation) or self.holds(
                condition.rhs, valuation
            )
        if isinstance(condition, fm.Implies):
            return (
                not self.holds(condition.lhs, valuation)
            ) or self.holds(condition.rhs, valuation)
        if isinstance(condition, fm.Iff):
            return self.holds(condition.lhs, valuation) == self.holds(
                condition.rhs, valuation
            )
        if isinstance(condition, (fm.Forall, fm.Exists)):
            var = condition.var
            try:
                carrier = self.signature.domain(var.sort)
            except SignatureError:
                raise RefinementError(
                    f"condition quantifies over non-parameter sort "
                    f"{var.sort}"
                ) from None
            results = (
                self.holds(condition.body, {**valuation, var: value})
                for value in carrier
            )
            if isinstance(condition, fm.Forall):
                return all(results)
            return any(results)
        raise RefinementError(
            f"unsupported condition construct {condition!r}"
        )

    # ------------------------------------------------------------------
    # the same, compiled once into closures
    # ------------------------------------------------------------------
    def compile_term(self, term: Term, scope: Mapping[Var, int]) -> Compiled:
        """:meth:`eval_term` of ``term`` as a closure over a positional
        environment; ``scope`` maps each bound variable to its index.

        State-sorted values are state ids: a state variable's slot
        holds one, and an update application returns one.  Otherwise
        the closure evaluates exactly as the interpreter does: the same
        argument order, every argument of a connective, the same
        procedure runs and query realizations from the same rows.  A
        term the interpreter rejects compiles to a closure raising the
        same error when it is reached.
        """
        if isinstance(term, Var):
            if term not in scope:
                return _failing(f"unbound variable {term.name}")
            return itemgetter(scope[term])
        if not isinstance(term, App):
            return _failing(f"unsupported term {term!r}")
        symbol = term.symbol
        sig = self.signature
        if symbol.name == "True" and symbol.result_sort == BOOLEAN:
            return lambda env: True
        if symbol.name == "False" and symbol.result_sort == BOOLEAN:
            return lambda env: False
        args = [self.compile_term(arg, scope) for arg in term.args]
        if sig.is_connective(symbol):
            return _compile_connective(symbol.name, args)
        if sig.is_equality_test(symbol):
            lhs, rhs = args
            return lambda env: lhs(env) == rhs(env)
        interp = sig.interpretation(symbol.name)
        if interp is not None:
            return lambda env: interp(*[arg(env) for arg in args])
        if sig.is_initial(symbol):
            initial = self._initial
            return lambda env: initial()
        name = symbol.name
        if sig.is_update(symbol) or sig.is_query(symbol):
            *params, state = args
            getter = _parameter_getter(term.args[:-1], params, scope)
            if sig.is_update(symbol):
                return self._compile_update(name, getter, state)
            return self._compile_query(name, getter, state)
        if symbol.is_constant:
            return lambda env: name  # a parameter name
        return _failing(f"cannot evaluate {term} in N(U)")

    def compile_condition(
        self,
        condition: fm.Formula,
        scope: Mapping[Var, int],
        slots: Iterator[int],
    ) -> Compiled:
        """:meth:`holds` of ``condition`` as a closure over a positional
        environment (see :meth:`compile_term`).

        Connectives short-circuit as in :meth:`holds`.  Each quantifier
        takes a fresh environment slot from ``slots`` for its variable,
        which shadows any outer binding inside its body; its domain is
        resolved on every evaluation, as :meth:`holds` resolves it.
        """
        if isinstance(condition, fm.TrueF):
            return lambda env: True
        if isinstance(condition, fm.FalseF):
            return lambda env: False
        if isinstance(condition, fm.Equals):
            lhs = self.compile_term(condition.lhs, scope)
            rhs = self.compile_term(condition.rhs, scope)
            return lambda env: lhs(env) == rhs(env)
        if isinstance(condition, fm.Not):
            body = self.compile_condition(condition.body, scope, slots)
            return lambda env: not body(env)
        if isinstance(condition, (fm.And, fm.Or, fm.Implies, fm.Iff)):
            lhs = self.compile_condition(condition.lhs, scope, slots)
            rhs = self.compile_condition(condition.rhs, scope, slots)
            if isinstance(condition, fm.And):
                return lambda env: lhs(env) and rhs(env)
            if isinstance(condition, fm.Or):
                return lambda env: lhs(env) or rhs(env)
            if isinstance(condition, fm.Implies):
                return lambda env: (not lhs(env)) or rhs(env)
            return lambda env: lhs(env) == rhs(env)
        if isinstance(condition, (fm.Forall, fm.Exists)):
            return self._compile_quantifier(condition, scope, slots)
        return _failing(f"unsupported condition construct {condition!r}")

    def _compile_quantifier(self, condition, scope, slots) -> Compiled:
        var = condition.var
        slot = next(slots)
        body = self.compile_condition(
            condition.body, {**scope, var: slot}, slots
        )
        junction = all if isinstance(condition, fm.Forall) else any
        signature = self.signature

        def quantified(env: list) -> bool:
            try:
                carrier = signature.domain(var.sort)
            except SignatureError:
                raise RefinementError(
                    f"condition quantifies over non-parameter sort "
                    f"{var.sort}"
                ) from None

            def results():
                for value in carrier:
                    env[slot] = value
                    yield body(env)

            return junction(results())

        return quantified


    def _compile_update(
        self, update: str, params: Compiled, state: Compiled
    ) -> Compiled:
        """An update application: the state argument first, then the
        parameters; the successor's id from the procedure's row, or by
        :meth:`_apply` where the row has none."""
        proc = self.rep_map.update_map.get(update)
        rows = {} if proc is None else self._step_rows[proc]
        apply = self._apply

        def application(env: list) -> int:
            at = state(env)
            key = params(env)
            row = rows.get(key)
            if row is not None:
                successor = row[at]
                if successor is not _MISSING:
                    self.proc_memo_hits += 1
                    return successor
            return apply(update, key, at)

        return application

    def _compile_query(
        self, query: str, params: Compiled, state: Compiled
    ) -> Compiled:
        """A query application, as :meth:`_compile_update` reads an
        update's: the value from the query's row, or by :meth:`_query`
        where the row has none."""
        rows = self._query_rows[query]
        evaluate = self._query

        def application(env: list) -> Hashable:
            at = state(env)
            key = params(env)
            row = rows.get(key)
            if row is not None:
                value = row[at]
                if value is not _MISSING:
                    return value
            return evaluate(query, key, at)

        return application


def _parameter_getter(
    terms: tuple[Term, ...], compiled: list[Compiled], scope: Mapping[Var, int]
) -> Compiled:
    """An application's parameter tuple, each value as its ``str`` (see
    :meth:`InducedStructure.eval_term`).  Where every parameter is a
    bound variable, one getter reads the tuple: the slots of parameter
    and quantifier variables hold domain strings already."""
    if not all(
        isinstance(term, Var) and term in scope and term.sort != STATE
        for term in terms
    ):
        return lambda env: tuple([str(param(env)) for param in compiled])
    return tuple_getter([scope[term] for term in terms])


def _compile_connective(name: str, args: list[Compiled]) -> Compiled:
    """A connective *term*: every argument is evaluated, in order, then
    combined (see :meth:`InducedStructure.eval_term`)."""
    if name == "not":
        (only,) = args
        return lambda env: not bool(only(env))
    lhs, rhs = args
    if name == "and":
        return lambda env: bool(lhs(env)) & bool(rhs(env))
    if name == "or":
        return lambda env: bool(lhs(env)) | bool(rhs(env))
    if name == "implies":
        return lambda env: (not bool(lhs(env))) | bool(rhs(env))
    return lambda env: bool(lhs(env)) == bool(rhs(env))


@dataclass(frozen=True)
class EquationFailure:
    """A falsified instance of an A2 equation in N(U)."""

    equation: ConditionalEquation
    state: DatabaseState
    valuation: tuple[tuple[str, Hashable], ...]
    lhs_value: Hashable
    rhs_value: Hashable

    def __str__(self) -> str:
        binding = ", ".join(
            f"{name}={value}" for name, value in self.valuation
        )
        return (
            f"{self.equation.describe()} fails at [{binding}] on state "
            f"({self.state}): lhs={self.lhs_value}, rhs={self.rhs_value}"
        )


@dataclass(frozen=True)
class SecondToThirdReport:
    """Outcome of the Section 5.4 check: is N(U) a model of T2?

    Attributes:
        ok: True iff every equation held on every reachable state and
            parameter instantiation.
        states_checked: number of reachable database states examined.
        instances_checked: number of ground equation instances
            evaluated.
        failures: falsified instances (capped at 20).
    """

    ok: bool
    states_checked: int
    instances_checked: int
    failures: tuple[EquationFailure, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return (
                f"T3 correctly refines T2: all {self.instances_checked} "
                f"equation instances hold on {self.states_checked} "
                "reachable states"
            )
        lines = ["T3 does NOT refine T2:"]
        for failure in self.failures[:10]:
            lines.append(f"  {failure}")
        return "\n".join(lines)


#: The early-exit cap on recorded equation failures: the sweep stops
#: once this many are recorded.
_FAILURE_CAP = 20


def _equation_frame(spec: AlgebraicSpec, equation: ConditionalEquation):
    """The (state variable, parameter variables, value spaces) of one
    equation — the serial loop's per-equation preamble."""
    variables = sorted(
        equation.lhs.free_vars()
        | (
            equation.condition.free_vars()
            if equation.condition is not None
            else frozenset()
        ),
        key=lambda v: v.name,
    )
    state_vars = [v for v in variables if v.sort == STATE]
    param_vars = [v for v in variables if v.sort != STATE]
    if len(state_vars) > 1:
        raise RefinementError(
            f"{equation.describe()}: more than one state variable"
        )
    spaces = [spec.signature.domain(var.sort) for var in param_vars]
    return state_vars, param_vars, spaces


def _compile_equation(
    induced: InducedStructure,
    equation: ConditionalEquation,
    param_vars: list[Var],
    state_vars: list[Var],
) -> tuple[Compiled | None, Compiled, Compiled, int]:
    """An equation's condition (``None`` when it has none), lhs and rhs
    compiled over the environment ``[*params, *state, *slots]``, where
    the state slot holds a state id, and the number of quantifier slots
    the condition needs."""
    frame = [*param_vars, *state_vars]
    scope = {var: index for index, var in enumerate(frame)}
    slots = itertools.count(len(frame))
    condition = None
    if equation.condition is not None:
        condition = induced.compile_condition(
            equation.condition, scope, slots
        )
    lhs = induced.compile_term(equation.lhs, scope)
    rhs = induced.compile_term(equation.rhs, scope)
    return condition, lhs, rhs, next(slots) - len(frame)


def check_refinement(
    spec: AlgebraicSpec,
    schema: Schema,
    rep_map: RepresentationMap | None = None,
    max_states: int = 100_000,
) -> SecondToThirdReport:
    """Verify that T3 is a correct refinement of T2 under K.

    Every conditional equation of A2 is checked at every reachable
    database state (the value of the equation's state variable), for
    every instantiation of its parameter variables over the declared
    domains; both sides are evaluated in the induced structure N(U),
    by closures compiled once per equation.  An equation without a
    state variable (an ``initiate`` equation) does not depend on the
    state, so it is checked once, at the initial state.  The instances
    checked are counted as ``items`` on the active span.
    """
    if rep_map is None:
        rep_map = RepresentationMap.homonym(spec.signature, schema)
    induced = InducedStructure(spec.signature, schema, rep_map)
    with _span("second-third.reachable", max_states=max_states) as rs:
        reachable = induced._reachable(max_states)
        rs.count("second_third.db_states", len(reachable))
    states = induced._states

    failures: list[EquationFailure] = []
    instances = 0
    report = None
    for equation in spec.equations:
        state_vars, param_vars, spaces = _equation_frame(
            spec, equation
        )
        condition, lhs, rhs, width = _compile_equation(
            induced, equation, param_vars, state_vars
        )
        for sid in reachable if state_vars else reachable[:1]:
            # The environment: parameters, then the state's id (when
            # the equation has a state variable), then the quantifier
            # slots.
            tail = [sid] * len(state_vars) + [None] * width
            for values in itertools.product(*spaces):
                env = [*values, *tail]
                if condition is not None and not condition(env):
                    continue
                instances += 1
                lhs_value = lhs(env)
                rhs_value = rhs(env)
                if lhs_value != rhs_value:
                    if equation.is_u_equation:  # both sides are ids
                        lhs_value = states[lhs_value]
                        rhs_value = states[rhs_value]
                    failures.append(
                        EquationFailure(
                            equation,
                            states[sid],
                            tuple(
                                (var.name, value)
                                for var, value in zip(
                                    param_vars, values
                                )
                            ),
                            lhs_value,
                            rhs_value,
                        )
                    )
                    if len(failures) >= _FAILURE_CAP:
                        report = SecondToThirdReport(
                            False,
                            len(reachable),
                            instances,
                            tuple(failures),
                        )
                        break
            if report is not None:
                break
        if report is not None:
            break
    if report is None:
        report = SecondToThirdReport(
            not failures, len(reachable), instances, tuple(failures)
        )
    _count("second_third.proc_runs", induced.proc_runs)
    _count("second_third.proc_memo_hits", induced.proc_memo_hits)
    _count("items", report.instances_checked)
    return report


def check_agreement(
    algebra: TraceAlgebra,
    schema: Schema,
    rep_map: RepresentationMap | None = None,
    depth: int = 3,
    max_traces: int = 2_000,
    table: TraceTable | None = None,
) -> SecondToThirdReport:
    """Cross-level agreement: for every trace, every simple observation
    computed by rewriting (level 2) equals the K-realized observation
    on the database state the procedures produce (level 3).

    A complementary, more direct check than equation validity: it
    compares the two levels' answers to every query.

    A trace's level-2 observations are the row of the shared ``table``
    when one was built on ``algebra``, else one
    :meth:`~repro.algebraic.rewriting.RewriteEngine.evaluate_cells`
    batch of its own.  The reference, one :meth:`TraceAlgebra.query`
    per cell, redoes a trace whose batch raised, and runs every trace
    when the algebra is not ``packed`` (counted as
    ``agreement.fallback.disabled``).
    """
    if rep_map is None:
        rep_map = RepresentationMap.homonym(algebra.signature, schema)
    induced = InducedStructure(algebra.signature, schema, rep_map)
    observations = algebra.observations
    if not algebra.packed:
        _count("agreement.fallback.disabled")
        entries = ((trace, None) for trace in algebra.traces(depth))
    else:
        entries = None if table is None else table.entries(algebra, depth)
        if entries is None:
            entries = evaluate_rows(algebra, algebra.traces(depth))
    failures: list[EquationFailure] = []
    instances = 0
    states = 0
    for trace, values in itertools.islice(entries, max_traces):
        states += 1
        sid = induced._trace_id(trace)
        db_state = induced._states[sid]
        if values is None and algebra.packed:
            _count("agreement.cell_fallbacks")
        for index, (name, params) in enumerate(observations):
            instances += 1
            if values is not None:
                algebraic_value = values[index]
            else:
                algebraic_value = algebra.query(name, *params, trace=trace)
            realized_value = induced._query(name, params, sid)
            if algebraic_value != realized_value:
                signature = algebra.signature
                query_symbol = signature.query(name)
                lhs = signature.apply_query(
                    name,
                    *(
                        signature.value(sort, value)
                        for sort, value in zip(
                            query_symbol.arg_sorts[:-1], params
                        )
                    ),
                    trace,
                )
                if query_symbol.result_sort == BOOLEAN:
                    rhs: Term = signature.boolean(bool(realized_value))
                else:
                    rhs = signature.value(
                        query_symbol.result_sort, str(realized_value)
                    )
                dummy = ConditionalEquation(
                    lhs, rhs, None, f"agreement:{name}"
                )
                failures.append(
                    EquationFailure(
                        dummy,
                        db_state,
                        (("trace", str(trace)),),
                        algebraic_value,
                        realized_value,
                    )
                )
                if len(failures) >= 20:
                    return SecondToThirdReport(
                        False, states, instances, tuple(failures)
                    )
    return SecondToThirdReport(
        not failures, states, instances, tuple(failures)
    )
