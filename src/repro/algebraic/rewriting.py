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
from repro.logic.substitution import (
    apply_to_formula,
    apply_to_term,
    match,
)
from repro.logic.terms import App, Term, Var

__all__ = ["RewriteEngine", "Value"]

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
        #: Each observations tuple's query symbols and parameter
        #: terms, keyed by id (the value keeps the tuple alive so ids
        #: are stable).
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
        "_obs_terms",
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for slot in self._COMPILED_SLOTS:
            state[slot] = {}
        state["_equation_index"] = None
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
        """Evaluate observation cells ``(query, params)`` on one trace:
        :meth:`evaluate` on ``q(params..., trace)`` per observation, in
        order, with each cell's query symbol and parameter terms built
        once per observations tuple."""
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
        """Drop all memoized results.

        The compiled dispatch tables survive (they depend only on the
        specification); dropping the memo also releases the engine's
        strong references to cached ground terms, allowing retired
        terms to leave the intern table.
        """
        self._cache.clear()

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
