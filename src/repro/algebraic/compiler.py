"""Ground-closure compilation over observation cells.

Shared by the runtime store, the admission guards and the packed
state-space explorer.  The serving and exploration hot paths never
interpret terms or formulas at request time.
Everything the serving path evaluates — Q-equation conditions and
right-hand sides, structured-description preconditions, and the
information-level constraints routed through the interpretation I —
is compiled **once**, against a fully ground variable environment,
into plain Python closures over a single cell reader::

    get((query_name, param_values)) -> value

Each compilation also returns the static *read set*: the store cells
the closure can touch.  The guards use read sets to index constraint
instances by cell, which is what makes admission checking O(delta)
instead of O(constraints).

Only the canonical fragment the shipped applications use is compiled;
anything else raises :class:`UnsupportedTermError` and the caller
falls back to the rewrite engine (see
:meth:`repro.runtime.state.MaterializedState` and the packed
explorer :class:`repro.algebraic.exploration.PackedExplorer`).

This module lives in the algebraic layer so the explorer can compile
plans without importing the (heavy) serving runtime.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.errors import ReproError
from repro.algebraic.signature import AlgebraicSignature
from repro.logic import formulas as fm
from repro.logic.sorts import BOOLEAN, STATE, Sort
from repro.logic.terms import App, Term, Var

__all__ = [
    "Cell",
    "Getter",
    "UnsupportedTermError",
    "compile_ground_term",
    "compile_ground_formula",
]

#: A store cell: one simple observation ``(query name, param values)``.
Cell = tuple[str, tuple[str, ...]]

#: The single read interface compiled closures evaluate against.
Getter = Callable[[Cell], Hashable]

#: A domain oracle: parameter/carrier values of a sort, for unrolling
#: quantifiers at compile time.
DomainOf = Callable[[Sort], Iterable[str]]


class UnsupportedTermError(ReproError):
    """A term or formula falls outside the compilable canonical
    fragment; the caller should use the rewrite-engine fallback."""


def _const(value) -> Callable[[Getter], Hashable]:
    return lambda get: value


def _combine(name, lhs, lreads, rhs, rreads):
    """A binary Boolean combinator with short-circuit constant
    folding: a read-free side is evaluated once at compile time and
    the node collapses to a constant or to the other side."""
    if not lreads:
        value = bool(lhs(None))
        if name == "and":
            return (rhs, rreads) if value else (_const(False), set())
        if name == "or":
            return (_const(True), set()) if value else (rhs, rreads)
        if name == "implies":
            return (rhs, rreads) if value else (_const(True), set())
        if name == "iff":
            if value:
                return rhs, rreads
            return (lambda get: not rhs(get)), rreads
    if not rreads:
        value = bool(rhs(None))
        if name == "and":
            return (lhs, lreads) if value else (_const(False), set())
        if name == "or":
            return (_const(True), set()) if value else (lhs, lreads)
        if name == "implies":
            if value:
                return _const(True), set()
            return (lambda get: not lhs(get)), lreads
        if name == "iff":
            if value:
                return lhs, lreads
            return (lambda get: not lhs(get)), lreads
    reads = lreads | rreads
    if name == "and":
        return (lambda get: bool(lhs(get)) and bool(rhs(get))), reads
    if name == "or":
        return (lambda get: bool(lhs(get)) or bool(rhs(get))), reads
    if name == "implies":
        return (lambda get: (not lhs(get)) or bool(rhs(get))), reads
    if name == "iff":
        return (lambda get: bool(lhs(get)) == bool(rhs(get))), reads
    raise UnsupportedTermError(f"unknown connective {name!r}")


def _junction(closures: list, reads: set, conjunctive: bool):
    """``all``/``any`` over compiled branches, specialized for the
    small arities quantifier unrolling produces."""
    if not closures:
        return _const(conjunctive), set()
    if len(closures) == 1:
        return closures[0], reads
    if len(closures) == 2:
        first, second = closures
        if conjunctive:
            return (
                lambda get: first(get) and second(get)
            ), reads
        return (lambda get: first(get) or second(get)), reads
    branches = tuple(closures)
    if conjunctive:
        return (
            lambda get: all(part(get) for part in branches)
        ), reads
    return (lambda get: any(part(get) for part in branches)), reads


def compile_ground_term(
    term: Term,
    env: dict[Var, str],
    signature: AlgebraicSignature,
) -> tuple[Callable[[Getter], Hashable], frozenset[Cell]]:
    """Compile a ground-under-``env`` L2 term into a closure.

    Args:
        term: a term of parameter or Boolean sort.  Query applications
            must take a state *variable* as their last argument (the
            pre-update state); their parameter arguments must be
            read-free, so the touched cell is known statically.
        env: values for every non-state free variable of ``term``.
        signature: the algebraic signature interpreting the symbols.

    Returns:
        ``(closure, reads)`` — the evaluation closure over a cell
        reader and the set of cells it reads.  Read-free terms are
        constant-folded at compile time.

    Raises:
        UnsupportedTermError: outside the canonical fragment.
    """
    closure, reads = _compile_term(term, env, signature)
    if not reads:
        value = closure(None)  # pure and read-free: fold now
        return _const(value), frozenset()
    return closure, frozenset(reads)


def _compile_term(
    term: Term, env: dict[Var, str], signature: AlgebraicSignature
) -> tuple[Callable[[Getter], Hashable], set[Cell]]:
    if isinstance(term, Var):
        if term.sort == STATE:
            raise UnsupportedTermError(
                "a bare state variable is not a value term"
            )
        try:
            value = env[term]
        except KeyError:
            raise UnsupportedTermError(
                f"unbound variable {term} in runtime compilation"
            ) from None
        return _const(value), set()
    if not isinstance(term, App):
        raise UnsupportedTermError(f"not a compilable term: {term!r}")

    symbol = term.symbol
    name = symbol.name
    if symbol.result_sort == BOOLEAN and name in ("True", "False"):
        return _const(name == "True"), set()

    if signature.is_query(symbol):
        state_arg = term.args[-1]
        if not isinstance(state_arg, Var) or state_arg.sort != STATE:
            raise UnsupportedTermError(
                f"query {name} is not applied to the pre-state "
                "variable; the runtime only compiles single-state "
                "right-hand sides"
            )
        values = []
        for arg in term.args[:-1]:
            closure, reads = _compile_term(arg, env, signature)
            if reads:
                raise UnsupportedTermError(
                    f"query {name} has a state-dependent parameter "
                    "argument; its cell is not statically known"
                )
            values.append(closure(None))
        cell: Cell = (name, tuple(values))
        return (lambda get: get(cell)), {cell}

    if signature.is_connective(symbol):
        if name == "not":
            one, reads = _compile_term(term.args[0], env, signature)
            if not reads:
                return _const(not one(None)), set()
            return (lambda get: not one(get)), reads
        lhs, lreads = _compile_term(term.args[0], env, signature)
        rhs, rreads = _compile_term(term.args[1], env, signature)
        return _combine(name, lhs, lreads, rhs, rreads)

    if signature.is_equality_test(symbol):
        lhs, lreads = _compile_term(term.args[0], env, signature)
        rhs, rreads = _compile_term(term.args[1], env, signature)
        return (lambda get: lhs(get) == rhs(get)), lreads | rreads

    interp = signature.interpretation(name)
    if interp is not None:
        parts = [
            _compile_term(arg, env, signature) for arg in term.args
        ]
        closures = tuple(part[0] for part in parts)
        reads = set().union(*(part[1] for part in parts)) if parts else set()
        return (
            lambda get: interp(*[c(get) for c in closures])
        ), reads

    if symbol.is_constant and symbol.result_sort != STATE:
        return _const(name), set()

    raise UnsupportedTermError(
        f"cannot compile {term}: {name} is neither a connective, "
        "equality test, interpreted function, parameter name, nor "
        "query on the pre-state"
    )


#: Hook compiling an atom ``p(args)`` under an environment; used by
#: the guards to route db-predicate atoms through the interpretation I.
AtomHook = Callable[
    [fm.Atom, dict[Var, str]],
    tuple[Callable[[Getter], bool], frozenset[Cell]],
]


def _no_atoms(atom: fm.Atom, env: dict[Var, str]):
    raise UnsupportedTermError(
        f"predicate atom {atom} is not compilable here (no atom hook)"
    )


def _resolve_equals_side(
    term: Term, env: dict[Var, str]
) -> str | bool:
    """A ground first-order term as a carrier value: a bound variable
    or a constant symbol (the only shapes L1 axioms use)."""
    if isinstance(term, Var):
        try:
            return env[term]
        except KeyError:
            raise UnsupportedTermError(
                f"unbound variable {term} in equality"
            ) from None
    if isinstance(term, App) and not term.args:
        name = term.symbol.name
        if term.sort == BOOLEAN:
            return name == "True"
        return name
    raise UnsupportedTermError(
        f"equality over non-constant term {term}"
    )


def compile_ground_formula(
    formula: fm.Formula,
    env: dict[Var, str],
    domain_of: DomainOf,
    atom_hook: AtomHook | None = None,
    equals_hook: Callable[
        [fm.Equals, dict[Var, str]],
        tuple[Callable[[Getter], bool], frozenset[Cell]],
    ] | None = None,
) -> tuple[Callable[[Getter], bool], frozenset[Cell]]:
    """Compile a (single-state) formula into a Boolean closure.

    Quantifiers are unrolled over ``domain_of(var.sort)`` at compile
    time; atoms are delegated to ``atom_hook`` (the guards pass the
    interpretation-based one) and equalities to ``equals_hook`` when
    given (the store uses it for L2 ``fm.Equals`` over value terms —
    information-level equalities are over constants and fold away).

    Returns ``(closure, reads)``.
    """
    atom_hook = atom_hook or _no_atoms
    closure, reads = _compile_formula(
        formula, env, domain_of, atom_hook, equals_hook
    )
    if not reads:
        value = bool(closure(None))
        return _const(value), frozenset()
    return closure, frozenset(reads)


def _compile_formula(
    formula: fm.Formula,
    env: dict[Var, str],
    domain_of: DomainOf,
    atom_hook: AtomHook,
    equals_hook,
) -> tuple[Callable[[Getter], bool], set[Cell]]:
    if isinstance(formula, fm.TrueF):
        return _const(True), set()
    if isinstance(formula, fm.FalseF):
        return _const(False), set()
    if isinstance(formula, fm.Atom):
        closure, reads = atom_hook(formula, dict(env))
        return closure, set(reads)
    if isinstance(formula, fm.Equals):
        if equals_hook is not None:
            closure, reads = equals_hook(formula, dict(env))
            return closure, set(reads)
        value = _resolve_equals_side(
            formula.lhs, env
        ) == _resolve_equals_side(formula.rhs, env)
        return _const(value), set()
    if isinstance(formula, fm.Not):
        body, reads = _compile_formula(
            formula.body, env, domain_of, atom_hook, equals_hook
        )
        if not reads:
            return _const(not body(None)), set()
        return (lambda get: not body(get)), reads
    if isinstance(formula, (fm.And, fm.Or, fm.Implies, fm.Iff)):
        lhs, lreads = _compile_formula(
            formula.lhs, env, domain_of, atom_hook, equals_hook
        )
        rhs, rreads = _compile_formula(
            formula.rhs, env, domain_of, atom_hook, equals_hook
        )
        name = {
            fm.And: "and",
            fm.Or: "or",
            fm.Implies: "implies",
            fm.Iff: "iff",
        }[type(formula)]
        return _combine(name, lhs, lreads, rhs, rreads)
    if isinstance(formula, (fm.Forall, fm.Exists)):
        var = formula.var
        conjunctive = isinstance(formula, fm.Forall)
        parts = []
        reads: set[Cell] = set()
        for value in domain_of(var.sort):
            inner = dict(env)
            inner[var] = value
            closure, sub_reads = _compile_formula(
                formula.body, inner, domain_of, atom_hook, equals_hook
            )
            if not sub_reads:
                constant = bool(closure(None))
                if constant != conjunctive:
                    # one False conjunct / True disjunct decides it
                    return _const(constant), set()
                continue  # neutral element: drop the branch
            parts.append(closure)
            reads |= sub_reads
        return _junction(parts, reads, conjunctive)
    raise UnsupportedTermError(
        f"cannot compile formula construct {formula!r}"
    )
