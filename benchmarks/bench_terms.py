"""E13 — term kernel: hash-consing, precomputed hashes, substitution
fast paths and compiled equation dispatch.

Expected shape: rebuilding an already-live term is a single intern
probe (independent of term size), hashing and equality are O(1)
instead of O(size), a substitution that binds nothing returns its
input without allocating, and warm-engine evaluation is dominated by
identity-keyed memo hits rather than recursive matching.
"""

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.rewriting import RewriteEngine
from repro.applications.courses import (
    courses_algebraic,
    default_courses,
    default_students,
)
from repro.logic.signature import FunctionSymbol
from repro.logic.sorts import STATE, Sort
from repro.logic.substitution import apply_to_term
from repro.logic.terms import App, Var, const

ITEM = Sort("bench_item")
ITEM_A = FunctionSymbol("bench_a", (), ITEM)
INITIATE = FunctionSymbol("bench_initiate", (), STATE)
PUSH = FunctionSymbol("bench_push", (ITEM, STATE), STATE)


def _chain(depth):
    trace = const(INITIATE)
    item = const(ITEM_A)
    for _ in range(depth):
        trace = App(PUSH, (item, trace))
    return trace


@pytest.mark.parametrize("depth", [10, 100])
def bench_intern_hit(benchmark, depth):
    """Rebuilding a live term: one table probe per node, no checks."""
    keep = _chain(depth)  # noqa: F841 — keeps the chain interned

    def run():
        return _chain(depth)

    assert benchmark(run) is keep


@pytest.mark.parametrize("depth", [10, 100])
def bench_hash_and_equality(benchmark, depth):
    """Hashing and comparing deep terms: precomputed hash + identity."""
    left = _chain(depth)
    right = _chain(depth)

    def run():
        return hash(left) == hash(right) and left == right

    assert benchmark(run)


@pytest.mark.parametrize("depth", [10, 100])
def bench_substitution_noop(benchmark, depth):
    """Applying a substitution that binds nothing in the term: the
    free-variable fast path returns the input itself."""
    trace = _chain(depth)
    mapping = {Var("bench_x", ITEM): const(ITEM_A)}

    def run():
        return apply_to_term(mapping, trace)

    assert benchmark(run) is trace


def bench_memoized_evaluation_warm(benchmark):
    """Re-evaluating every observation on a warm engine: pure memo
    hits on identity-keyed probes."""
    spec = courses_algebraic()
    algebra = TraceAlgebra(spec)
    trace = algebra.initial_trace()
    for name, *params in [
        ("offer", "c1"),
        ("enroll", "s1", "c1"),
        ("offer", "c2"),
        ("enroll", "s2", "c2"),
    ]:
        trace = algebra.apply(name, *params, trace=trace)
    signature = spec.signature
    terms = []
    for name, params in algebra.observations:
        symbol = signature.query(name)
        args = [
            signature.value(sort, value)
            for sort, value in zip(symbol.arg_sorts[:-1], params)
        ]
        terms.append(App(symbol, (*args, trace)))
    engine = algebra.engine
    for term in terms:
        engine.evaluate(term)

    def run():
        return [engine.evaluate(term) for term in terms]

    benchmark(run)


def bench_compiled_dispatch_cold_cache(benchmark):
    """Evaluating with the memo cleared every round but the compiled
    dispatch tables kept: isolates matcher + dispatch cost."""
    spec = courses_algebraic()
    algebra = TraceAlgebra(spec)
    trace = algebra.initial_trace()
    for name, *params in [
        ("offer", "c1"),
        ("enroll", "s1", "c1"),
        ("offer", "c2"),
        ("transfer", "s1", "c1", "c2"),
    ]:
        trace = algebra.apply(name, *params, trace=trace)
    signature = spec.signature
    terms = []
    for name, params in algebra.observations:
        symbol = signature.query(name)
        args = [
            signature.value(sort, value)
            for sort, value in zip(symbol.arg_sorts[:-1], params)
        ]
        terms.append(App(symbol, (*args, trace)))
    engine = RewriteEngine(spec)

    def run():
        engine.clear_cache()
        return [engine.evaluate(term) for term in terms]

    benchmark(run)


@pytest.mark.parametrize("mode", ["object", "arena"])
def bench_exploration_packed(benchmark, mode):
    """Full state-space exploration, object BFS vs the packed
    value-row explorer (same graph, byte-identical; the ratio is the
    arena's exploration speedup and is gated in CI by
    ``check_kernel_regression.py --explore-speedup``)."""
    spec = courses_algebraic(default_students(2), default_courses(3))
    algebra = TraceAlgebra(spec, packed=(mode == "arena"))
    algebra.explore()  # warm: compile dispatch tables / update plans

    graph = benchmark(algebra.explore)
    assert len(graph.states) == 125
    assert not graph.truncated
