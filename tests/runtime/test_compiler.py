"""Ground-closure compilation: read sets, folding, rejection."""

from __future__ import annotations

import pytest

from repro.algebraic.description import STATE_VAR
from repro.applications.bank import bank_signature
from repro.logic import formulas as fm
from repro.logic.terms import App, Var
from repro.algebraic.compiler import (
    UnsupportedTermError,
    compile_ground_term,
    compile_ground_formula,
)


@pytest.fixture(scope="module")
def signature():
    return bank_signature()


def _balance(signature, account_term):
    return signature.apply_query("balance", account_term, STATE_VAR)


def test_query_term_reads_its_cell(signature):
    money = signature.logic.sort("money")
    account = signature.logic.sort("account")
    term = _balance(signature, signature.value(account, "a1"))
    closure, reads = compile_ground_term(term, {}, signature)
    assert reads == frozenset({("balance", ("a1",))})
    assert closure({("balance", ("a1",)): "m2"}.__getitem__) == "m2"
    assert money  # the sort resolves (sanity for the fixture)


def test_variable_resolved_through_env(signature):
    account = signature.logic.sort("account")
    a = Var("a", account)
    term = _balance(signature, a)
    closure, reads = compile_ground_term(term, {a: "a2"}, signature)
    assert reads == frozenset({("balance", ("a2",))})
    assert closure({("balance", ("a2",)): "m0"}.__getitem__) == "m0"


def test_unbound_variable_rejected(signature):
    account = signature.logic.sort("account")
    term = _balance(signature, Var("a", account))
    with pytest.raises(UnsupportedTermError):
        compile_ground_term(term, {}, signature)


def test_interpreted_function_folds_when_read_free(signature):
    money = signature.logic.sort("money")
    term = App(
        signature.logic.function("inc"),
        (signature.value(money, "m1"),),
    )
    closure, reads = compile_ground_term(term, {}, signature)
    assert reads == frozenset()
    assert closure(None) == "m2"  # folded: never touches the getter


def test_interpreted_function_over_query(signature):
    account = signature.logic.sort("account")
    term = App(
        signature.logic.function("inc"),
        (_balance(signature, signature.value(account, "a1")),),
    )
    closure, reads = compile_ground_term(term, {}, signature)
    assert reads == frozenset({("balance", ("a1",))})
    assert closure({("balance", ("a1",)): "m0"}.__getitem__) == "m1"


def test_query_on_non_variable_state_rejected(signature):
    account = signature.logic.sort("account")
    term = signature.apply_query(
        "balance",
        signature.value(account, "a1"),
        signature.initial_term(),
    )
    with pytest.raises(UnsupportedTermError):
        compile_ground_term(term, {}, signature)


def _equals_hook(signature):
    """An L2 equality hook mirroring the store's."""

    def hook(equality: fm.Equals, env):
        lhs, lreads = compile_ground_term(equality.lhs, env, signature)
        rhs, rreads = compile_ground_term(equality.rhs, env, signature)
        return (lambda get: lhs(get) == rhs(get)), lreads | rreads

    return hook


def test_formula_constant_connectives_fold(signature):
    closure, reads = compile_ground_formula(
        fm.And(fm.TrueF(), fm.FalseF()), {}, lambda sort: []
    )
    assert reads == frozenset()
    assert closure(None) is False


def test_quantifier_unrolls_over_domain(signature):
    account = signature.logic.sort("account")
    a = Var("a", account)
    body = fm.Equals(
        signature.apply_query("open", a, STATE_VAR), signature.true()
    )
    closure, reads = compile_ground_formula(
        fm.Forall(a, body),
        {},
        lambda sort: ["a1", "a2"],
        equals_hook=_equals_hook(signature),
    )
    assert reads == frozenset(
        {("open", ("a1",)), ("open", ("a2",))}
    )
    cells = {("open", ("a1",)): True, ("open", ("a2",)): True}
    assert closure(cells.__getitem__) is True
    cells[("open", ("a2",))] = False
    assert closure(cells.__getitem__) is False


def test_exists_prunes_decided_branches(signature):
    account = signature.logic.sort("account")
    a = Var("a", account)
    # body is read-free and True for every branch: the disjunction
    # folds to the constant True without touching the getter.
    body = fm.TrueF()
    closure, reads = compile_ground_formula(
        fm.Exists(a, body), {}, lambda sort: ["a1", "a2"]
    )
    assert reads == frozenset()
    assert closure(None) is True


def test_information_level_equality_folds(signature):
    money = signature.logic.sort("money")
    m = Var("m", money)
    closure, reads = compile_ground_formula(
        fm.Equals(m, m), {m: "m0"}, lambda sort: []
    )
    assert reads == frozenset()
    assert closure(None) is True


def test_atom_without_hook_rejected(signature):
    from repro.logic.signature import PredicateSymbol
    from repro.logic.sorts import Sort

    pred = PredicateSymbol("p", (Sort("account"),))
    atom = fm.Atom(pred, (Var("a", Sort("account")),))
    with pytest.raises(UnsupportedTermError):
        compile_ground_formula(atom, {}, lambda sort: [])
