"""Invariants of the hash-consed term kernel.

Structural equality must imply object identity for live terms, hashes
must be stable and precomputed, pickling must re-intern on load (so
terms survive the trip into and out of forked
:class:`~repro.parallel.executor.ParallelExecutor` workers), and the
intern table must release terms once nothing else keeps them alive.
"""

import gc
import pickle

import pytest

from repro.errors import SortError
from repro.logic.signature import FunctionSymbol
from repro.logic.sorts import BOOLEAN, STATE, Sort
from repro.logic.substitution import apply_to_term
from repro.logic.terms import (
    App,
    Var,
    const,
    intern_stats,
    intern_table_size,
)

ITEM = Sort("item")
ITEM_A = FunctionSymbol("a", (), ITEM)
ITEM_B = FunctionSymbol("b", (), ITEM)
PAIR = FunctionSymbol("pair", (ITEM, ITEM), ITEM)
INITIATE = FunctionSymbol("initiate", (), STATE)
PUSH = FunctionSymbol("push", (ITEM, STATE), STATE)
ON_TOP = FunctionSymbol("on_top", (ITEM, STATE), BOOLEAN)


def _deep_trace(depth: int) -> App:
    trace = const(INITIATE)
    for index in range(depth):
        item = const(ITEM_A if index % 2 == 0 else ITEM_B)
        trace = App(PUSH, (item, trace))
    return trace


class TestStructuralEqualityIsIdentity:
    def test_vars_intern(self):
        assert Var("x", ITEM) is Var("x", ITEM)

    def test_vars_distinguish_name_and_sort(self):
        assert Var("x", ITEM) is not Var("y", ITEM)
        assert Var("x", ITEM) is not Var("x", BOOLEAN)

    def test_apps_intern(self):
        left = App(PAIR, (const(ITEM_A), const(ITEM_B)))
        right = App(PAIR, (const(ITEM_A), const(ITEM_B)))
        assert left is right

    def test_deep_terms_intern(self):
        assert _deep_trace(30) is _deep_trace(30)

    def test_interned_terms_share_subterms(self):
        outer = App(PAIR, (const(ITEM_A), const(ITEM_A)))
        assert outer.args[0] is outer.args[1]
        assert outer.args[0] is const(ITEM_A)

    def test_equality_still_structural(self):
        term = App(PAIR, (const(ITEM_A), const(ITEM_B)))
        assert term == App(PAIR, (const(ITEM_A), const(ITEM_B)))
        assert term != App(PAIR, (const(ITEM_B), const(ITEM_A)))
        assert term != const(ITEM_A)

    def test_terms_are_immutable(self):
        term = const(ITEM_A)
        with pytest.raises(AttributeError):
            term.symbol = ITEM_B
        with pytest.raises(AttributeError):
            del term.args
        var = Var("x", ITEM)
        with pytest.raises(AttributeError):
            var.name = "y"

    def test_sort_checks_still_raise(self):
        with pytest.raises(SortError):
            App(PAIR, (const(ITEM_A),))
        with pytest.raises(SortError):
            App(PUSH, (const(INITIATE), const(INITIATE)))


class TestHashStability:
    def test_hash_is_precomputed(self):
        term = _deep_trace(10)
        assert hash(term) == term._hash

    def test_hash_agrees_across_rebuilds(self):
        first = hash(_deep_trace(8))
        assert hash(_deep_trace(8)) == first

    def test_hash_survives_pickle(self):
        term = _deep_trace(8)
        clone = pickle.loads(pickle.dumps(term))
        assert hash(clone) == hash(term)

    def test_var_hash_matches_key(self):
        var = Var("x", ITEM)
        assert hash(var) == hash(("x", ITEM))


class TestPickleReinterns:
    def test_round_trip_returns_the_live_object(self):
        term = _deep_trace(12)
        clone = pickle.loads(pickle.dumps(term))
        assert clone is term

    def test_round_trip_reinterns_subterms(self):
        term = App(PAIR, (const(ITEM_A), const(ITEM_B)))
        clone = pickle.loads(pickle.dumps(term))
        assert clone.args[0] is const(ITEM_A)

    def test_var_round_trip(self):
        var = Var("x", ITEM)
        assert pickle.loads(pickle.dumps(var)) is var

    def test_snapshot_round_trip(self):
        from repro.algebraic.algebra import Snapshot

        snapshot = Snapshot(((("on_top", ("a",)), True),))
        assert pickle.loads(pickle.dumps(snapshot)) is snapshot


def _build_term_chunk(context, depth):
    """Worker chunk: build a trace in the worker and ship it back."""
    return _deep_trace(depth), {"items": 1}


def _explore_chunk(algebra, _):
    """Worker chunk: explore the context algebra, ship its snapshots."""
    return list(algebra.explore().states), {"items": 1}


class TestForkedWorkers:
    def test_terms_survive_worker_round_trip(self):
        from repro.parallel.executor import ParallelExecutor

        with ParallelExecutor(2, context=None) as executor:
            results = executor.map(_build_term_chunk, [6, 6, 9])
        # Results were pickled back from the workers; unpickling must
        # have re-interned them into this process's table.
        assert results[0] is results[1]
        assert results[0] is _deep_trace(6)
        assert results[2] is _deep_trace(9)

    def test_snapshots_from_a_worker_intern_on_arrival(self):
        from repro.algebraic.algebra import TraceAlgebra
        from repro.applications import courses
        from repro.parallel.executor import ParallelExecutor

        algebra = TraceAlgebra(courses.courses_algebraic())
        serial = algebra.explore()
        with ParallelExecutor(2, context=algebra) as executor:
            [shipped] = executor.map(_explore_chunk, [None])
        # The worker explored on its own copy of the algebra; its
        # snapshots intern on arrival, so they are the very objects
        # the parent's own exploration holds, not merely equal ones.
        assert len(shipped) == len(serial.states)
        for snapshot, other in zip(shipped, serial.states):
            assert snapshot is other


class TestInternTableLifecycle:
    def test_intern_stats_counts_kinds(self):
        var = Var("lifecycle_var", ITEM)
        app = _deep_trace(3)
        stats = intern_stats()
        assert stats["vars"] >= 1
        assert stats["apps"] >= 4
        assert intern_table_size() == stats["vars"] + stats["apps"]
        del var, app

    def test_dead_terms_leave_the_table(self):
        gc.collect()
        before = intern_table_size()
        terms = [_deep_trace(40)]
        assert intern_table_size() > before
        terms.clear()
        gc.collect()
        assert intern_table_size() <= before + 2

    def test_clear_cache_releases_engine_references(self):
        # Test-unique symbol names, so no other suite can pin the
        # terms this engine interns.
        from repro.algebraic.equations import ConditionalEquation
        from repro.algebraic.rewriting import RewriteEngine
        from repro.algebraic.signature import AlgebraicSignature
        from repro.algebraic.spec import AlgebraicSpec

        signature = AlgebraicSignature()
        widget = signature.add_parameter_sort("ik_widget")
        signature.add_parameter_values(widget, ["ik_a", "ik_b"])
        signature.add_query("ik_q", [widget])
        signature.add_initial()
        signature.add_update("ik_touch", [widget])
        c = Var("ik_c", widget)
        c2 = Var("ik_c2", widget)
        u = Var("ik_U", STATE)
        touched = signature.apply_update("ik_touch", c2, u)
        spec = AlgebraicSpec(
            signature,
            (
                ConditionalEquation(
                    signature.apply_query(
                        "ik_q", c, signature.initial_term()
                    ),
                    signature.false(),
                ),
                ConditionalEquation(
                    signature.apply_query("ik_q", c, touched),
                    signature.apply_query("ik_q", c, u),
                ),
            ),
        )
        engine = RewriteEngine(spec)
        gc.collect()
        base = intern_table_size()
        trace = signature.initial_term()
        for index in range(30):
            value = signature.value(widget, "ik_a" if index % 2 else "ik_b")
            trace = signature.apply_update("ik_touch", value, trace)
        engine.evaluate(
            signature.apply_query(
                "ik_q", signature.value(widget, "ik_a"), trace
            )
        )
        assert engine.cache_size > 0
        grown = intern_table_size()
        assert grown > base
        del trace
        engine.clear_cache()
        assert engine.cache_size == 0
        gc.collect()
        # With the memo dropped and the trace dead, the evaluation's
        # terms leave the intern table (the spec's equation terms and
        # the two parameter values are all that can remain).
        assert intern_table_size() < grown
        assert intern_table_size() <= base + 4

    def test_reinterning_after_collection(self):
        gc.collect()
        first_id = id(_deep_trace(25))
        gc.collect()
        # The first trace died; rebuilding re-interns a fresh object
        # that again satisfies the identity invariant.
        rebuilt = _deep_trace(25)
        assert rebuilt is _deep_trace(25)
        assert isinstance(first_id, int)


class TestSubstitutionFastPath:
    def test_ground_terms_pass_through_unallocated(self):
        term = _deep_trace(20)
        assert apply_to_term({Var("x", ITEM): const(ITEM_A)}, term) is term

    def test_disjoint_substitution_is_identity(self):
        x = Var("x", ITEM)
        y = Var("y", ITEM)
        term = App(PAIR, (x, x))
        assert apply_to_term({y: const(ITEM_A)}, term) is term

    def test_relevant_substitution_still_applies(self):
        x = Var("x", ITEM)
        term = App(PAIR, (x, const(ITEM_B)))
        result = apply_to_term({x: const(ITEM_A)}, term)
        assert result is App(PAIR, (const(ITEM_A), const(ITEM_B)))
