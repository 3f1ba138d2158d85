"""Conditional term rewriting: evaluating queries on trace states.

Paper, Section 4.2: the ground terms of sort state ("traces") are the
smallest set containing ``initiate`` and closed under symbolic
application of the update functions; the Q-equations are "a system of
mutually recursive equations defining the query functions", oriented
left-to-right as conditional rewrite rules

    q(p, u(p', U)) = "simpler expression"     (perhaps with a condition)

The :class:`RewriteEngine` evaluates any ground term of parameter or
Boolean sort by structural recursion on the trace:

* parameter names evaluate to themselves (their name string);
* Boolean connectives and equality tests evaluate by truth tables;
* interpreted parameter functions evaluate by their Python
  interpretation;
* a query application is matched against the equations indexed by
  (query, constructor); the first equation whose condition holds fires
  and its instantiated rhs is evaluated.

Evaluation is driven by a **compiled dispatch table**: the first time
a function symbol is evaluated the engine classifies it once
(connective, equality test, interpreted function, parameter name,
query) and stores a specialized closure; subsequent evaluations of the
same symbol go straight to the closure instead of re-walking the
classification chain.  Q-equations are likewise compiled, per
(query, constructor) pair, into positional matchers that bind each
pattern variable by direct argument indexing — the generic recursive
:func:`~repro.logic.substitution.match` only remains as a fallback for
non-canonical equation shapes.  Terms are hash-consed
(:mod:`repro.logic.terms`), so the memo cache is effectively keyed by
object identity: hashes are precomputed and key comparison is an
identity check.

Conditions may quantify over parameter sorts; quantifiers range over
the declared parameter names.  Evaluation is guarded by a *fuel*
budget: a circular equation system (violating sufficient completeness,
Section 4.4a) raises :class:`~repro.errors.NonTerminationError` rather
than looping, and a ground query term no equation covers raises
:class:`~repro.errors.IncompletenessError`.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.errors import (
    EvaluationError,
    IncompletenessError,
    NonTerminationError,
)
from repro.obs.switch import SWITCH
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.spec import AlgebraicSpec
from repro.logic import formulas as fm
from repro.logic.sorts import BOOLEAN, STATE
from repro.logic.arena import KIND_APP, TermArena
from repro.logic.substitution import (
    apply_to_formula,
    apply_to_term,
    match,
)
from repro.logic.terms import App, Term, Var

__all__ = ["RewriteEngine", "Value"]

#: Sentinel marking a (query, constructor) pair whose equations fall
#: outside the arena-compilable fragment; the arena loop materializes
#: the term and routes it through the object path instead.
_ARENA_FALLBACK = object()


class _ArenaUnsupported(Exception):
    """An equation part is outside the arena-native fragment."""

#: Evaluation results: parameter names are strings, Booleans are bools.
Value = Hashable

#: Default fuel: number of query evaluations allowed per top-level call.
DEFAULT_FUEL = 100_000


def _compile_matcher(
    equation: ConditionalEquation,
) -> Callable[[App], dict[Var, Term] | None]:
    """Compile an equation's lhs into a positional matcher.

    The canonical Q-equation shape ``q(a1,...,ak, u(b1,...,bm))`` with
    each ``ai``/``bj`` a variable or a constant admits matching by
    direct indexing: variables bind the argument at their position,
    constants require identity (terms are interned), and a repeated
    variable requires its positions to carry the same term.  The
    matcher assumes the target already agrees with the pattern on the
    query and constructor symbols — the dispatch index guarantees it.

    Returns ``None`` for non-canonical shapes (nested applications in
    parameter positions, a non-variable inner state, ...); the caller
    falls back to the generic recursive matcher.
    """
    lhs = equation.lhs
    if not isinstance(lhs, App):
        return None
    state_pat = lhs.args[-1] if lhs.args else None
    if not isinstance(state_pat, App):
        return None

    binds: list[tuple[bool, int, Var]] = []
    consts: list[tuple[bool, int, Term]] = []
    same: list[tuple[bool, int, bool, int]] = []
    seen: dict[Var, tuple[bool, int]] = {}

    def visit(pattern: Term, in_state: bool, index: int) -> bool:
        if isinstance(pattern, Var):
            # Sorts need no runtime check: the dispatch key fixes both
            # symbols, and symbol arities sort every position.
            if pattern in seen:
                prev = seen[pattern]
                same.append((prev[0], prev[1], in_state, index))
            else:
                seen[pattern] = (in_state, index)
                binds.append((in_state, index, pattern))
            return True
        if isinstance(pattern, App) and not pattern.args:
            consts.append((in_state, index, pattern))
            return True
        return False

    for i, arg in enumerate(lhs.args[:-1]):
        if not visit(arg, False, i):
            return None
    for j, arg in enumerate(state_pat.args):
        if not visit(arg, True, j):
            return None

    def matcher(term: App) -> dict[Var, Term] | None:
        args = term.args
        state_args = args[-1].args
        for in_state, index, expected in consts:
            actual = state_args[index] if in_state else args[index]
            if actual is not expected and actual != expected:
                return None
        for a_state, a_index, b_state, b_index in same:
            first = state_args[a_index] if a_state else args[a_index]
            second = state_args[b_index] if b_state else args[b_index]
            if first is not second and first != second:
                return None
        return {
            var: (state_args[index] if in_state else args[index])
            for in_state, index, var in binds
        }

    return matcher


def _generic_matcher(
    equation: ConditionalEquation,
) -> Callable[[App], dict[Var, Term] | None]:
    """Fallback: full recursive first-order matching against the lhs."""
    lhs = equation.lhs

    def matcher(term: App):
        return match(lhs, term)

    return matcher


class RewriteEngine:
    """Evaluator for ground terms over an algebraic specification.

    Args:
        spec: the algebraic specification (equations are used as
            conditional rewrite rules in declaration order).
        fuel: maximum number of query-application evaluations per
            top-level :meth:`evaluate` call before concluding
            non-termination.
        memoize: cache evaluation results keyed by ground term.  The
            cache is sound because evaluation is pure; it makes
            repeated observation of overlapping traces (the common
            case in reachability analysis) close to linear.  Terms are
            interned, so cache probes are identity probes with a
            precomputed hash.
    """

    def __init__(
        self,
        spec: AlgebraicSpec,
        fuel: int = DEFAULT_FUEL,
        memoize: bool = True,
        state_oracle=None,
    ):
        self.spec = spec
        self.signature = spec.signature
        self._fuel_limit = fuel
        self._memoize = memoize
        #: Optional hook (query_name, param_values, state_term) ->
        #: value or None, consulted before equation dispatch.  Used by
        #: the induction engine to evaluate queries on *abstract*
        #: states given by a snapshot rather than a concrete trace.
        self._state_oracle = state_oracle
        self._cache: dict[Term, Value] = {}
        #: Monotone counters surfaced by the verification statistics:
        #: memo-cache hits/misses, equation-firing (rewrite) steps, and
        #: reuses of a compiled dispatch entry.
        self.cache_hits = 0
        self.cache_misses = 0
        self.rewrite_steps = 0
        self.dispatch_hits = 0
        #: Compiled per-symbol evaluation closures, built on first use.
        self._dispatch: dict[str, Callable[[App, list[int]], Value]] = {}
        #: Compiled equation lists per (query, constructor) pair; each
        #: entry carries the equation's index in ``spec.equations`` so
        #: coverage recording can name what fired.
        self._equation_tables: dict[
            tuple[str, str],
            tuple[
                tuple[
                    Callable[[App], dict[Var, Term] | None],
                    fm.Formula | None,
                    Term,
                    int,
                ],
                ...,
            ],
        ] = {}
        #: Equation object -> index into ``spec.equations``, built on
        #: first compile (identity-keyed: ``equations_for`` returns
        #: the declaration objects themselves).
        self._equation_index: dict[int, int] | None = None
        #: Packed-term arena (built on the first batch evaluation) and
        #: its memo/dispatch tables: node id -> value, symbol id ->
        #: handler closure, (query, constructor) -> compiled
        #: integer-matcher table (or the object-path fallback marker).
        self._arena: TermArena | None = None
        self._acache: dict[int, Value] = {}
        self._ahandlers: dict = {}
        self._atables: dict = {}
        #: Compiled observation programs per observations tuple,
        #: keyed by id (the value keeps the tuple alive so ids are
        #: stable); one arena-program list and one object-term list.
        self._obs_programs: dict[int, tuple] = {}
        self._obs_terms: dict[int, tuple] = {}
        # Value constants per sort, prebuilt for quantifier expansion.
        self._domain_terms = {
            sort: tuple(
                self.signature.value(sort, v)
                for v in self.signature.domain(sort)
            )
            for sort in self.signature.parameter_sorts
        }

    # ------------------------------------------------------------------
    # pickling (context bundles for the executor backends)
    # ------------------------------------------------------------------
    #: Lazily compiled state: closures and memo tables built on first
    #: use.  None of it pickles (closures) and none of it belongs in a
    #: context bundle — a bundled engine is a *cold* engine, whatever
    #: the parent had warmed, so every executor backend prices its
    #: virtual workers from the same starting point.
    _COMPILED_SLOTS = (
        "_cache",
        "_dispatch",
        "_equation_tables",
        "_acache",
        "_ahandlers",
        "_atables",
        "_obs_programs",
        "_obs_terms",
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for slot in self._COMPILED_SLOTS:
            state[slot] = {}
        state["_equation_index"] = None
        state["_arena"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(self, term: Term) -> Value:
        """Evaluate a ground term of parameter or Boolean sort.

        Raises:
            EvaluationError: if the term is not ground or has sort
                state.
            IncompletenessError: if no equation applies to some query
                application encountered.
            NonTerminationError: if the fuel budget is exhausted.
        """
        tracer = SWITCH.tracer
        if tracer is not None:
            tracer.count("rewrite.evaluate.calls")
        coverage = SWITCH.coverage
        if coverage is not None:
            # Top-level dispatch-cell census: the multiset of these
            # calls is exactly the workload, and each check runs in
            # exactly one process — so summed per-cell counts are
            # identical for every worker count.
            if (
                isinstance(term, App)
                and term.args
                and self.signature.is_query(term.symbol)
            ):
                state = term.args[-1]
                if isinstance(state, App):
                    coverage.record_dispatch(
                        term.symbol.name, state.symbol.name
                    )
        if term.sort == STATE:
            raise EvaluationError(
                "terms of sort state are symbolic traces; only query/"
                "parameter terms evaluate to values"
            )
        if not term.is_ground:
            raise EvaluationError(f"term is not ground: {term}")
        budget = [self._fuel_limit]
        try:
            return self._eval(term, budget)
        except RecursionError:
            raise NonTerminationError(
                f"recursion limit reached while evaluating {term}: the "
                "equation system appears circular"
            ) from None

    def holds(self, condition: fm.Formula) -> bool:
        """Decide a ground condition (wff with equality atoms).

        Quantifiers must range over parameter sorts; they are expanded
        over the declared parameter names.
        """
        budget = [self._fuel_limit]
        return self._holds(condition, budget)

    def query(self, name: str, *args: Term) -> Value:
        """Convenience: evaluate query ``name`` applied to ``args``
        (parameter terms followed by the trace)."""
        return self.evaluate(self.signature.apply_query(name, *args))

    def normalize_state(self, term: Term) -> Term:
        """Normalize a ground trace by the U-equations.

        Paper, Section 4.1: axioms of sort state are U-equations; read
        left-to-right they rewrite traces into "simpler" traces (e.g.
        an idempotence law ``offer(c, offer(c, U)) = offer(c, U)``).
        Normalization is innermost-first; an applied rule's result is
        re-normalized at the top, with the usual fuel guard.

        Specifications without U-equations get the term back
        unchanged (the common case, including the paper's example).
        """
        if term.sort != STATE:
            raise EvaluationError(
                f"normalize_state expects a state term, got {term.sort}"
            )
        if not self.spec.u_equations:
            return term
        tracer = SWITCH.tracer
        if tracer is not None:
            tracer.count("rewrite.normalize.calls")
        budget = [self._fuel_limit]
        return self._normalize(term, budget)

    def _normalize(self, term: Term, budget: list[int]) -> Term:
        if not isinstance(term, App):
            raise EvaluationError(f"not a ground trace: {term}")
        if self.signature.is_initial(term.symbol):
            return term
        budget[0] -= 1
        if budget[0] < 0:
            raise NonTerminationError(
                "fuel exhausted during state normalization: the "
                "U-equations appear non-terminating"
            )
        inner = self._normalize(term.args[-1], budget)
        current = App(term.symbol, (*term.args[:-1], inner))
        for equation in self.spec.u_equations_for(current.symbol.name):
            substitution = match(equation.lhs, current)
            if substitution is None:
                continue
            if equation.condition is not None:
                closed = substitution.apply_formula(equation.condition)
                if not self._holds(closed, budget):
                    continue
            rewritten = apply_to_term(substitution, equation.rhs)
            self.rewrite_steps += 1
            coverage = SWITCH.coverage
            if coverage is not None:
                coverage.record_u_fire(
                    current.symbol.name, self._index_of(equation)
                )
            if not isinstance(rewritten, App):
                raise EvaluationError(
                    f"U-equation {equation.describe()} produced a "
                    f"non-ground state {rewritten}"
                )
            if self.signature.is_initial(rewritten.symbol):
                return rewritten
            # The rewrite may expose new redexes: renormalize fully.
            return self._normalize(rewritten, budget)
        return current

    def evaluate_cells(
        self,
        trace: Term,
        observations: tuple[tuple[str, tuple[str, ...]], ...],
    ) -> list[Value]:
        """Batch-evaluate observation cells ``(query, params)`` on one
        ground trace through the packed term arena.

        Semantically identical to calling :meth:`evaluate` on
        ``q(params..., trace)`` per observation (same errors, same
        fuel budget per cell, same coverage dispatch cells and fired
        equations), but the hot loop runs on int node ids: the trace
        is packed once, each cell is one arena application, and
        dispatch/matching are integer comparisons.  Non-canonical
        fragments fall back to the object path per term.
        """
        if (
            self._state_oracle is not None
            or not isinstance(trace, App)
            or not trace.is_ground
        ):
            return self._evaluate_cells_objects(trace, observations)
        arena = self._arena
        if arena is None:
            arena = self._arena = TermArena()
        programs = self._obs_programs.get(id(observations))
        if programs is None:
            sig = self.signature
            compiled = []
            for name, params in observations:
                symbol = sig.query(name)
                arg_ids = tuple(
                    arena.intern(sig.value(sort, value))
                    for sort, value in zip(symbol.arg_sorts[:-1], params)
                )
                compiled.append((name, arena.symbol_id(symbol), arg_ids))
            programs = (observations, tuple(compiled))
            self._obs_programs[id(observations)] = programs
        trace_id = arena.intern(trace)
        constructor = trace.symbol.name
        tracer = SWITCH.tracer
        coverage = SWITCH.coverage
        app = arena.app
        eval_idx = self._eval_idx
        fuel = self._fuel_limit
        values: list[Value] = []
        for name, qsid, arg_ids in programs[1]:
            if tracer is not None:
                tracer.count("rewrite.evaluate.calls")
            if coverage is not None:
                coverage.record_dispatch(name, constructor)
            node = app(qsid, (*arg_ids, trace_id))
            budget = [fuel]
            try:
                values.append(eval_idx(node, budget))
            except RecursionError:
                raise NonTerminationError(
                    f"recursion limit reached while evaluating "
                    f"{arena.term(node)}: the equation system appears "
                    "circular"
                ) from None
        return values

    def _evaluate_cells_objects(
        self,
        trace: Term,
        observations: tuple[tuple[str, tuple[str, ...]], ...],
    ) -> list[Value]:
        """Object-path batch evaluation (oracle engines, non-ground or
        exotic traces): plain :meth:`evaluate` per observation."""
        terms = self._obs_terms.get(id(observations))
        if terms is None:
            sig = self.signature
            compiled = []
            for name, params in observations:
                symbol = sig.query(name)
                args = tuple(
                    sig.value(sort, value)
                    for sort, value in zip(symbol.arg_sorts[:-1], params)
                )
                compiled.append((symbol, args))
            terms = (observations, tuple(compiled))
            self._obs_terms[id(observations)] = terms
        return [
            self.evaluate(App(symbol, (*args, trace)))
            for symbol, args in terms[1]
        ]

    def clear_cache(self) -> None:
        """Drop all memoized results (object and arena memos).

        The compiled dispatch tables survive (they depend only on the
        specification); dropping the memos also releases the engine's
        strong references to cached ground terms — including the
        arena's object views — allowing retired terms to leave the
        intern table.
        """
        self._cache.clear()
        self._acache.clear()
        if self._arena is not None:
            self._arena.release_views()

    @property
    def cache_size(self) -> int:
        """Number of memoized ground-term results."""
        return len(self._cache)

    # ------------------------------------------------------------------
    # evaluation core
    # ------------------------------------------------------------------
    _MISSING = object()

    def _eval(self, term: Term, budget: list[int]) -> Value:
        if self._memoize:
            cached = self._cache.get(term, self._MISSING)
            if cached is not self._MISSING:
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
        result = self._eval_uncached(term, budget)
        if self._memoize:
            self._cache[term] = result
        return result

    def _eval_uncached(self, term: Term, budget: list[int]) -> Value:
        if isinstance(term, Var):
            raise EvaluationError(f"unbound variable {term} in evaluation")
        if not isinstance(term, App):
            raise TypeError(f"not a term: {term!r}")
        handler = self._dispatch.get(term.symbol.name)
        if handler is None:
            handler = self._build_handler(term.symbol)
            self._dispatch[term.symbol.name] = handler
        else:
            self.dispatch_hits += 1
        return handler(term, budget)

    def _build_handler(
        self, symbol
    ) -> Callable[[App, list[int]], Value]:
        """Classify ``symbol`` once and return its evaluation closure.

        The classification order mirrors the paper's evaluation rules
        (and the engine's original dispatch chain): Boolean constants,
        connectives, equality tests, interpreted functions, parameter
        names, queries.
        """
        sig = self.signature
        name = symbol.name
        if symbol.result_sort == BOOLEAN and name in ("True", "False"):
            constant = name == "True"
            return lambda term, budget: constant

        if sig.is_connective(symbol):
            return self._connective_handler(name)

        if sig.is_equality_test(symbol):
            def equality(term: App, budget: list[int]) -> bool:
                return self._eval(term.args[0], budget) == self._eval(
                    term.args[1], budget
                )

            return equality

        interp = sig.interpretation(name)
        if interp is not None:
            def interpreted(term: App, budget: list[int]) -> Value:
                return interp(
                    *[self._eval(arg, budget) for arg in term.args]
                )

            return interpreted

        if symbol.is_constant and symbol.result_sort != STATE:
            # A parameter name evaluates to itself.
            return lambda term, budget: name

        if sig.is_query(symbol):
            return self._eval_query

        def unsupported(term: App, budget: list[int]) -> Value:
            raise EvaluationError(
                f"cannot evaluate {term}: {term.symbol.name} is neither "
                "a connective, equality test, interpreted function, "
                "parameter name, nor query"
            )

        return unsupported

    def _connective_handler(
        self, name: str
    ) -> Callable[[App, list[int]], bool]:
        eval_ = self._eval
        if name == "not":
            return lambda term, budget: not eval_(term.args[0], budget)
        # Short-circuit where the truth table allows it.
        if name == "and":
            return lambda term, budget: bool(
                eval_(term.args[0], budget)
            ) and bool(eval_(term.args[1], budget))
        if name == "or":
            return lambda term, budget: bool(
                eval_(term.args[0], budget)
            ) or bool(eval_(term.args[1], budget))
        if name == "implies":
            return lambda term, budget: (
                not eval_(term.args[0], budget)
            ) or bool(eval_(term.args[1], budget))
        if name == "iff":
            return lambda term, budget: bool(
                eval_(term.args[0], budget)
            ) == bool(eval_(term.args[1], budget))

        def unknown(term: App, budget: list[int]) -> bool:
            raise EvaluationError(f"unknown connective {name!r}")

        return unknown

    def _compiled_equations(self, query: str, constructor: str):
        """The compiled matcher table for a (query, constructor) pair."""
        key = (query, constructor)
        table = self._equation_tables.get(key)
        if table is None:
            compiled = []
            for equation in self.spec.equations_for(query, constructor):
                matcher = _compile_matcher(equation)
                if matcher is None:
                    matcher = _generic_matcher(equation)
                compiled.append(
                    (
                        matcher,
                        equation.condition,
                        equation.rhs,
                        self._index_of(equation),
                    )
                )
            table = tuple(compiled)
            self._equation_tables[key] = table
        else:
            self.dispatch_hits += 1
        return table

    def _index_of(self, equation: ConditionalEquation) -> int:
        """The equation's index within ``spec.equations``."""
        index = self._equation_index
        if index is None:
            index = {
                id(candidate): position
                for position, candidate in enumerate(self.spec.equations)
            }
            self._equation_index = index
        return index.get(id(equation), -1)

    def _eval_query(self, term: App, budget: list[int]) -> Value:
        budget[0] -= 1
        if budget[0] < 0:
            raise NonTerminationError(
                f"fuel exhausted while evaluating {term}: the equation "
                "system appears circular (sufficient completeness fails)"
            )
        state_arg = term.args[-1]
        if self._state_oracle is not None:
            params = tuple(
                self._eval(arg, budget) for arg in term.args[:-1]
            )
            resolved = self._state_oracle(
                term.symbol.name, params, state_arg
            )
            if resolved is not None:
                return resolved
        if not isinstance(state_arg, App):
            raise EvaluationError(
                f"query {term} applied to a non-ground state"
            )
        constructor = state_arg.symbol.name
        table = self._compiled_equations(term.symbol.name, constructor)
        for matcher, condition, rhs, eq_index in table:
            bindings = matcher(term)
            if bindings is None:
                continue
            if condition is not None:
                closed = apply_to_formula(bindings, condition)
                if not self._holds(closed, budget):
                    continue
            instantiated = apply_to_term(bindings, rhs)
            self.rewrite_steps += 1
            coverage = SWITCH.coverage
            if coverage is not None:
                # Fired-equation *sets* union-merge exactly: within an
                # engine the memo-missed terms are the needed terms,
                # and need distributes over workload unions.
                coverage.record_fire(
                    term.symbol.name, constructor, eq_index
                )
            return self._eval(instantiated, budget)
        raise IncompletenessError(
            f"no equation applies to {term} (query "
            f"{term.symbol.name!r} on constructor {constructor!r}): the "
            "specification is not sufficiently complete"
        )

    # ------------------------------------------------------------------
    # arena-native evaluation (int node ids instead of boxed terms)
    # ------------------------------------------------------------------
    def _eval_idx(self, node: int, budget: list[int]) -> Value:
        if self._memoize:
            cached = self._acache.get(node, self._MISSING)
            if cached is not self._MISSING:
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
        sid = self._arena.sym_of(node)
        handler = self._ahandlers.get(sid)
        if handler is None:
            handler = self._build_arena_handler(sid)
            self._ahandlers[sid] = handler
        else:
            self.dispatch_hits += 1
        result = handler(node, budget)
        if self._memoize:
            self._acache[node] = result
        return result

    def _build_arena_handler(self, sid: int):
        """Classify an arena symbol once into an evaluation closure —
        the packed mirror of :meth:`_build_handler`."""
        arena = self._arena
        symbol = arena.symbol(sid)
        if isinstance(symbol, Var):
            def unbound(node: int, budget: list[int]) -> Value:
                raise EvaluationError(
                    f"unbound variable {arena.term(node)} in evaluation"
                )

            return unbound
        sig = self.signature
        name = symbol.name
        if symbol.result_sort == BOOLEAN and name in ("True", "False"):
            constant = name == "True"
            return lambda node, budget: constant

        if sig.is_connective(symbol):
            return self._arena_connective(name)

        if sig.is_equality_test(symbol):
            def equality(node: int, budget: list[int]) -> bool:
                left, right = arena.children(node)
                return self._eval_idx(left, budget) == self._eval_idx(
                    right, budget
                )

            return equality

        interp = sig.interpretation(name)
        if interp is not None:
            def interpreted(node: int, budget: list[int]) -> Value:
                return interp(
                    *[
                        self._eval_idx(child, budget)
                        for child in arena.children(node)
                    ]
                )

            return interpreted

        if symbol.is_constant and symbol.result_sort != STATE:
            return lambda node, budget: name

        if sig.is_query(symbol):
            def query_handler(node: int, budget: list[int]) -> Value:
                return self._eval_query_idx(name, node, budget)

            return query_handler

        def unsupported(node: int, budget: list[int]) -> Value:
            term = arena.term(node)
            raise EvaluationError(
                f"cannot evaluate {term}: {term.symbol.name} is neither "
                "a connective, equality test, interpreted function, "
                "parameter name, nor query"
            )

        return unsupported

    def _arena_connective(self, name: str):
        arena = self._arena
        eval_idx = self._eval_idx
        if name == "not":
            return lambda node, budget: not eval_idx(
                arena.children(node)[0], budget
            )
        if name == "and":
            def conj(node: int, budget: list[int]) -> bool:
                left, right = arena.children(node)
                return bool(eval_idx(left, budget)) and bool(
                    eval_idx(right, budget)
                )

            return conj
        if name == "or":
            def disj(node: int, budget: list[int]) -> bool:
                left, right = arena.children(node)
                return bool(eval_idx(left, budget)) or bool(
                    eval_idx(right, budget)
                )

            return disj
        if name == "implies":
            def impl(node: int, budget: list[int]) -> bool:
                left, right = arena.children(node)
                return (not eval_idx(left, budget)) or bool(
                    eval_idx(right, budget)
                )

            return impl
        if name == "iff":
            def iff(node: int, budget: list[int]) -> bool:
                left, right = arena.children(node)
                return bool(eval_idx(left, budget)) == bool(
                    eval_idx(right, budget)
                )

            return iff

        def unknown(node: int, budget: list[int]) -> bool:
            raise EvaluationError(f"unknown connective {name!r}")

        return unknown

    def _eval_query_idx(
        self, qname: str, node: int, budget: list[int]
    ) -> Value:
        budget[0] -= 1
        if budget[0] < 0:
            raise NonTerminationError(
                f"fuel exhausted while evaluating "
                f"{self._arena.term(node)}: the equation system appears "
                "circular (sufficient completeness fails)"
            )
        arena = self._arena
        children = arena.children(node)
        state = children[-1]
        if arena.kind(state) != KIND_APP:
            raise EvaluationError(
                f"query {arena.term(node)} applied to a non-ground state"
            )
        constructor = arena.symbol(arena.sym_of(state)).name
        table = self._arena_table(qname, constructor)
        if table is _ARENA_FALLBACK:
            return self._eval(arena.term(node), budget)
        args = children[:-1]
        state_args = arena.children(state)
        for matcher, condition, rhs, eq_index in table:
            bind = matcher(args, state_args)
            if bind is None:
                continue
            if condition is not None and not condition(bind, budget):
                continue
            self.rewrite_steps += 1
            coverage = SWITCH.coverage
            if coverage is not None:
                # Same union-invariance argument as the object path:
                # arena memo misses are exactly the needed nodes.
                coverage.record_fire(qname, constructor, eq_index)
            return rhs(bind, budget)
        raise IncompletenessError(
            f"no equation applies to {arena.term(node)} (query "
            f"{qname!r} on constructor {constructor!r}): the "
            "specification is not sufficiently complete"
        )

    def _arena_table(self, query: str, constructor: str):
        """The arena-compiled equation table for a (query, constructor)
        pair, or :data:`_ARENA_FALLBACK` when any of its equations is
        outside the integer-matchable fragment."""
        key = (query, constructor)
        table = self._atables.get(key)
        if table is not None:
            self.dispatch_hits += 1
            return table
        try:
            table = tuple(
                self._compile_arena_equation(equation)
                for equation in self.spec.equations_for(query, constructor)
            )
        except _ArenaUnsupported:
            table = _ARENA_FALLBACK
        self._atables[key] = table
        return table

    def _compile_arena_equation(self, equation: ConditionalEquation):
        """Compile one canonical equation into ``(matcher, condition,
        rhs, index)`` over packed node ids.

        The matcher binds pattern variables positionally into a flat
        ``bind`` tuple of node ids; condition and rhs are closed
        programs over ``(bind, budget)``.  Anything non-canonical
        raises :class:`_ArenaUnsupported` (whole-table fallback).
        """
        lhs = equation.lhs
        if not isinstance(lhs, App):
            raise _ArenaUnsupported
        state_pat = lhs.args[-1] if lhs.args else None
        if not isinstance(state_pat, App):
            raise _ArenaUnsupported

        arena = self._arena
        binds: list[tuple[bool, int]] = []
        consts: list[tuple[bool, int, int]] = []
        same: list[tuple[bool, int, bool, int]] = []
        slots: dict[Var, int] = {}

        def visit(pattern: Term, in_state: bool, index: int) -> None:
            if isinstance(pattern, Var):
                if pattern in slots:
                    prev_state, prev_index = binds[slots[pattern]]
                    same.append((prev_state, prev_index, in_state, index))
                else:
                    slots[pattern] = len(binds)
                    binds.append((in_state, index))
                return
            if isinstance(pattern, App) and not pattern.args:
                consts.append((in_state, index, arena.intern(pattern)))
                return
            raise _ArenaUnsupported

        for i, arg in enumerate(lhs.args[:-1]):
            visit(arg, False, i)
        for j, arg in enumerate(state_pat.args):
            visit(arg, True, j)

        consts_t = tuple(consts)
        same_t = tuple(same)
        binds_t = tuple(binds)

        def matcher(args, state_args):
            for in_state, index, expected in consts_t:
                actual = state_args[index] if in_state else args[index]
                if actual != expected:
                    return None
            for a_state, a_index, b_state, b_index in same_t:
                first = state_args[a_index] if a_state else args[a_index]
                second = state_args[b_index] if b_state else args[b_index]
                if first != second:
                    return None
            return tuple(
                state_args[index] if in_state else args[index]
                for in_state, index in binds_t
            )

        condition = None
        if equation.condition is not None:
            condition = self._compile_arena_formula(
                equation.condition, dict(slots), len(binds)
            )
        rhs = self._compile_arena_value(equation.rhs, slots, len(binds))
        return matcher, condition, rhs, self._index_of(equation)

    def _compile_arena_index(
        self, term: Term, slots: dict[Var, int]
    ):
        """A program producing the arena node id of ``term`` under a
        bind tuple: a bound variable reads its slot, a ground term is
        interned once at compile time."""
        if isinstance(term, Var):
            slot = slots.get(term)
            if slot is None:
                raise _ArenaUnsupported
            return lambda bind: bind[slot]
        if term.is_ground:
            node = self._arena.intern(term)
            return lambda bind: node
        raise _ArenaUnsupported

    def _compile_arena_value(
        self, term: Term, slots: dict[Var, int], depth: int
    ):
        """A value program ``(bind, budget) -> Value`` mirroring the
        object handlers over packed ids."""
        eval_idx = self._eval_idx
        if isinstance(term, Var):
            if term.sort == STATE:
                raise _ArenaUnsupported
            slot = slots.get(term)
            if slot is None:
                raise _ArenaUnsupported
            return lambda bind, budget: eval_idx(bind[slot], budget)
        if not isinstance(term, App):
            raise _ArenaUnsupported
        symbol = term.symbol
        sig = self.signature
        name = symbol.name
        if symbol.result_sort == BOOLEAN and name in ("True", "False"):
            constant = name == "True"
            return lambda bind, budget: constant
        if sig.is_connective(symbol):
            if name == "not":
                body = self._compile_arena_value(
                    term.args[0], slots, depth
                )
                return lambda bind, budget: not body(bind, budget)
            left = self._compile_arena_value(term.args[0], slots, depth)
            right = self._compile_arena_value(term.args[1], slots, depth)
            if name == "and":
                return lambda bind, budget: bool(
                    left(bind, budget)
                ) and bool(right(bind, budget))
            if name == "or":
                return lambda bind, budget: bool(
                    left(bind, budget)
                ) or bool(right(bind, budget))
            if name == "implies":
                return lambda bind, budget: (
                    not left(bind, budget)
                ) or bool(right(bind, budget))
            if name == "iff":
                return lambda bind, budget: bool(
                    left(bind, budget)
                ) == bool(right(bind, budget))
            raise _ArenaUnsupported
        if sig.is_equality_test(symbol):
            left = self._compile_arena_value(term.args[0], slots, depth)
            right = self._compile_arena_value(term.args[1], slots, depth)
            return lambda bind, budget: left(bind, budget) == right(
                bind, budget
            )
        interp = sig.interpretation(name)
        if interp is not None:
            parts = tuple(
                self._compile_arena_value(arg, slots, depth)
                for arg in term.args
            )
            return lambda bind, budget: interp(
                *[part(bind, budget) for part in parts]
            )
        if symbol.is_constant and symbol.result_sort != STATE:
            return lambda bind, budget: name
        if sig.is_query(symbol):
            arg_programs = tuple(
                self._compile_arena_index(arg, slots)
                for arg in term.args
            )
            qsid = self._arena.symbol_id(symbol)
            app = self._arena.app

            def query_value(bind, budget):
                return eval_idx(
                    app(
                        qsid,
                        tuple(
                            program(bind) for program in arg_programs
                        ),
                    ),
                    budget,
                )

            return query_value
        raise _ArenaUnsupported

    def _compile_arena_formula(
        self, formula: fm.Formula, slots: dict[Var, int], depth: int
    ):
        """A condition program ``(bind, budget) -> bool`` mirroring
        :meth:`_holds`; quantifiers unroll over pre-interned domain
        value nodes, extending the bind tuple by one slot."""
        if isinstance(formula, fm.TrueF):
            return lambda bind, budget: True
        if isinstance(formula, fm.FalseF):
            return lambda bind, budget: False
        if isinstance(formula, fm.Equals):
            left = self._compile_arena_value(formula.lhs, slots, depth)
            right = self._compile_arena_value(formula.rhs, slots, depth)
            return lambda bind, budget: left(bind, budget) == right(
                bind, budget
            )
        if isinstance(formula, fm.Not):
            body = self._compile_arena_formula(formula.body, slots, depth)
            return lambda bind, budget: not body(bind, budget)
        if isinstance(formula, (fm.And, fm.Or, fm.Implies, fm.Iff)):
            left = self._compile_arena_formula(formula.lhs, slots, depth)
            right = self._compile_arena_formula(formula.rhs, slots, depth)
            if isinstance(formula, fm.And):
                return lambda bind, budget: left(bind, budget) and right(
                    bind, budget
                )
            if isinstance(formula, fm.Or):
                return lambda bind, budget: left(bind, budget) or right(
                    bind, budget
                )
            if isinstance(formula, fm.Implies):
                return lambda bind, budget: (
                    not left(bind, budget)
                ) or right(bind, budget)
            return lambda bind, budget: left(bind, budget) == right(
                bind, budget
            )
        if isinstance(formula, (fm.Forall, fm.Exists)):
            var = formula.var
            try:
                domain = self._domain_terms[var.sort]
            except KeyError:
                raise _ArenaUnsupported from None
            arena = self._arena
            instances = tuple(arena.intern(value) for value in domain)
            inner = dict(slots)
            inner[var] = depth
            body = self._compile_arena_formula(
                formula.body, inner, depth + 1
            )
            if isinstance(formula, fm.Forall):
                return lambda bind, budget: all(
                    body((*bind, value), budget) for value in instances
                )
            return lambda bind, budget: any(
                body((*bind, value), budget) for value in instances
            )
        raise _ArenaUnsupported

    # ------------------------------------------------------------------
    # condition evaluation
    # ------------------------------------------------------------------
    def _holds(self, formula: fm.Formula, budget: list[int]) -> bool:
        if isinstance(formula, fm.TrueF):
            return True
        if isinstance(formula, fm.FalseF):
            return False
        if isinstance(formula, fm.Equals):
            return self._eval(formula.lhs, budget) == self._eval(
                formula.rhs, budget
            )
        if isinstance(formula, fm.Not):
            return not self._holds(formula.body, budget)
        if isinstance(formula, fm.And):
            return self._holds(formula.lhs, budget) and self._holds(
                formula.rhs, budget
            )
        if isinstance(formula, fm.Or):
            return self._holds(formula.lhs, budget) or self._holds(
                formula.rhs, budget
            )
        if isinstance(formula, fm.Implies):
            return (not self._holds(formula.lhs, budget)) or self._holds(
                formula.rhs, budget
            )
        if isinstance(formula, fm.Iff):
            return self._holds(formula.lhs, budget) == self._holds(
                formula.rhs, budget
            )
        if isinstance(formula, (fm.Forall, fm.Exists)):
            var = formula.var
            try:
                instances = self._domain_terms[var.sort]
            except KeyError:
                raise EvaluationError(
                    f"condition quantifies over non-parameter sort "
                    f"{var.sort}"
                ) from None
            results = (
                self._holds(
                    apply_to_formula({var: value}, formula.body),
                    budget,
                )
                for value in instances
            )
            if isinstance(formula, fm.Forall):
                return all(results)
            return any(results)
        raise EvaluationError(
            f"unsupported construct in condition: {formula!r}"
        )
