"""Tests for repro.logic.structures."""

import pytest

from repro.errors import EvaluationError, SignatureError
from repro.logic.signature import Signature
from repro.logic.sorts import Sort
from repro.logic.structures import Structure

STUDENT = Sort("student")
COURSE = Sort("course")


@pytest.fixture()
def signature():
    sig = Signature(sorts=[STUDENT, COURSE])
    sig.add_predicate("takes", [STUDENT, COURSE], db=True)
    sig.add_predicate("offered", [COURSE], db=True)
    sig.add_constant("s1", STUDENT)
    sig.add_function("best", [COURSE], STUDENT)
    return sig


CARRIERS = {STUDENT: ["s1", "s2"], COURSE: ["c1", "c2"]}


class TestConstruction:
    def test_missing_relations_default_empty(self, signature):
        structure = Structure(signature, CARRIERS)
        assert structure.relation("takes") == frozenset()

    def test_carrier_by_name(self, signature):
        structure = Structure(signature, {"student": ["s1"], "course": []})
        assert structure.carrier(STUDENT) == ("s1",)

    def test_carrier_deduplicates_preserving_order(self, signature):
        structure = Structure(
            signature, {STUDENT: ["s1", "s2", "s1"], COURSE: []}
        )
        assert structure.carrier(STUDENT) == ("s1", "s2")

    def test_undeclared_relation_rejected(self, signature):
        with pytest.raises(SignatureError):
            Structure(signature, CARRIERS, relations={"nope": set()})

    def test_wrong_arity_tuple_rejected(self, signature):
        with pytest.raises(EvaluationError):
            Structure(
                signature, CARRIERS, relations={"offered": {("c1", "c2")}}
            )

    def test_undeclared_function_rejected(self, signature):
        with pytest.raises(SignatureError):
            Structure(signature, CARRIERS, functions={"nope": 1})


class TestFunctions:
    def test_constant_defaults_to_own_name(self, signature):
        structure = Structure(signature, CARRIERS)
        assert structure.apply_function("s1", ()) == "s1"

    def test_explicit_constant_value(self, signature):
        structure = Structure(signature, CARRIERS, functions={"s1": "s2"})
        assert structure.apply_function("s1", ()) == "s2"

    def test_callable_interpretation(self, signature):
        structure = Structure(
            signature, CARRIERS, functions={"best": lambda c: "s1"}
        )
        assert structure.apply_function("best", ("c1",)) == "s1"

    def test_table_interpretation(self, signature):
        structure = Structure(
            signature, CARRIERS, functions={"best": {("c1",): "s2"}}
        )
        assert structure.apply_function("best", ("c1",)) == "s2"

    def test_table_missing_entry(self, signature):
        structure = Structure(signature, CARRIERS, functions={"best": {}})
        with pytest.raises(EvaluationError):
            structure.apply_function("best", ("c1",))

    def test_uninterpreted_nonconstant_raises(self, signature):
        structure = Structure(signature, CARRIERS)
        with pytest.raises(EvaluationError):
            structure.apply_function("best", ("c1",))


class TestUpdatesAndEquality:
    def test_with_relation_immutably_updates(self, signature):
        base = Structure(signature, CARRIERS)
        updated = base.with_relation("offered", {("c1",)})
        assert base.relation("offered") == frozenset()
        assert updated.relation("offered") == frozenset({("c1",)})

    def test_insert_delete(self, signature):
        base = Structure(signature, CARRIERS)
        inserted = base.insert("offered", ("c1",))
        assert inserted.holds("offered", ("c1",))
        deleted = inserted.delete("offered", ("c1",))
        assert deleted == base

    def test_with_relations_batch(self, signature):
        base = Structure(signature, CARRIERS)
        updated = base.with_relations(
            {"offered": {("c1",)}, "takes": {("s1", "c1")}}
        )
        assert updated.holds("takes", ("s1", "c1"))

    def test_equality_by_extensions(self, signature):
        a = Structure(signature, CARRIERS, relations={"offered": {("c1",)}})
        b = Structure(signature, CARRIERS).insert("offered", ("c1",))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_different_carriers(self, signature):
        a = Structure(signature, CARRIERS)
        b = Structure(signature, {STUDENT: ["s1"], COURSE: ["c1"]})
        assert a != b


class TestRepr:
    def test_rows_print_sorted(self, signature):
        rows = [("s2", "c2"), ("s1", "c2"), ("s2", "c1"), ("s1", "c1")]
        structure = Structure(signature, CARRIERS, relations={"takes": rows})
        assert repr(structure) == (
            "Structure(offered={}, takes={('s1', 'c1'), ('s1', 'c2'), "
            "('s2', 'c1'), ('s2', 'c2')})"
        )

    def test_incomparable_values_still_print(self, signature):
        structure = Structure(
            signature, CARRIERS, relations={"offered": [(1,), ("c1",)]}
        )
        assert repr(structure) == "Structure(offered={('c1',), (1,)}, takes={})"
