"""Tests for the RPR W-grammar: the Section 5.4 syntactic-correctness
check, positive and negative."""

import pytest

from repro.errors import WGrammarError
from repro.applications.courses import courses_schema_source
from repro.applications.library import library_schema_source
from repro.applications.projects import projects_schema_source
from repro.wgrammar.grammar import (
    Hyperrule,
    LexicalMeta,
    Mark,
    MetaRef,
    WGrammar,
)
from repro.wgrammar.rpr_grammar import (
    check_schema_source,
    rpr_wgrammar,
    schema_marks,
)


class TestPositive:
    def test_paper_schema_recognized(self):
        assert check_schema_source(courses_schema_source())

    def test_library_schema_recognized(self):
        assert check_schema_source(library_schema_source())

    def test_projects_schema_recognized(self):
        assert check_schema_source(projects_schema_source())

    def test_minimal_schema(self):
        assert check_schema_source(
            "schema R(Things); proc touch(x) = insert R(x) end-schema"
        )

    def test_empty_ops(self):
        assert check_schema_source("schema R(Things); end-schema")

    def test_statement_variety(self):
        source = """
schema
  R(Things);
  proc p(x) =
    (while R(x) do delete R(x) ;
     (insert R(x) | skip) ;
     (R(x)?)* ;
     R := {(y) / y = x | R(y)})
end-schema
"""
        assert check_schema_source(source)


class TestContextCondition:
    def test_undeclared_insert_rejected(self):
        source = (
            "schema R(Things); proc p(x) = insert S(x) end-schema"
        )
        # The parser would reject this too; the grammar must as well.
        assert not _grammar_accepts(source)

    def test_undeclared_atom_rejected(self):
        source = (
            "schema R(Things);"
            " proc p(x) = if S(x) then insert R(x) end-schema"
        )
        assert not _grammar_accepts(source)

    def test_undeclared_assignment_rejected(self):
        source = "schema R(Things); proc p(x) = S := {} end-schema"
        assert not _grammar_accepts(source)

    def test_declared_after_use_still_counts(self):
        # DECLS accumulates left to right, and the paper's condition is
        # about the whole SCL part; our grammar threads declarations in
        # order, so a use before its declaration is rejected.
        source = """
schema
  R(Things);
  proc p(x) = insert S(x)
"""
        # (also syntactically incomplete: declarations cannot follow
        # procs in this grammar)
        assert not _grammar_accepts(source + "end-schema")


class TestNegativeSyntax:
    def test_missing_semicolon(self):
        assert not _grammar_accepts(
            "schema R(Things) proc p(x) = insert R(x) end-schema"
        )

    def test_unbalanced_parens(self):
        assert not _grammar_accepts(
            "schema R(Things); proc p(x) = (insert R(x) end-schema"
        )

    def test_keyword_as_relation_name(self):
        assert not _grammar_accepts(
            "schema if(Things); proc p(x) = insert if(x) end-schema"
        )

    def test_scalar_declarations_unsupported(self):
        with pytest.raises(WGrammarError, match="scalar"):
            check_schema_source(
                "schema R(Things); var x: Things; end-schema"
            )


class TestAgreementWithParser:
    """The W-grammar and the recursive-descent parser must agree."""

    CASES = [
        ("schema R(Things); end-schema", True),
        (
            "schema R(Things); proc p(x) = insert R(x) end-schema",
            True,
        ),
        (
            "schema R(Things); proc p(x) = insert S(x) end-schema",
            False,
        ),
        (
            "schema R(Things); proc p(x) = insert R(x, x) end-schema",
            None,  # arity errors are beyond the grammar (sort level)
        ),
    ]

    def test_agreement(self):
        from repro.errors import ParseError
        from repro.rpr.parser import parse_schema

        for source, expected in self.CASES:
            if expected is None:
                continue
            grammar_ok = _grammar_accepts(source)
            try:
                parse_schema(source)
                parser_ok = True
            except ParseError:
                parser_ok = False
            assert grammar_ok == parser_ok == expected, source


def _grammar_accepts(source: str) -> bool:
    try:
        return check_schema_source(source)
    except WGrammarError:
        return False


class TestMarks:
    def test_schema_marks_strips_eof(self):
        marks = schema_marks("schema end-schema")
        assert marks == ["schema", "end-schema"]

    def test_grammar_constructs_once(self):
        grammar = rpr_wgrammar()
        assert grammar.start == ("program",)
        assert len(grammar.hyperrules) > 50


def _every_rule(grammar, notion):
    """The unindexed search: every hyperrule for every notion."""
    return tuple(enumerate(grammar.hyperrules))


class TestRuleIndex:
    """A notion tries only the hyperrules whose left-hand side can
    match it; verdicts are those of trying every rule."""

    def test_rpr_rules_bucket_by_first_mark(self):
        grammar = rpr_wgrammar()
        rules = grammar.hyperrules
        assert len(rules) == 70
        assert all(isinstance(rule.lhs[0], Mark) for rule in rules)
        marks = {rule.lhs[0].text for rule in rules}
        assert len(marks) == 31
        for mark in marks:
            assert [index for index, _ in grammar.rules_for((mark,))] == [
                index
                for index, rule in enumerate(rules)
                if rule.lhs[0].text == mark
            ]
        assert grammar.rules_for(("no-such-mark",)) == ()
        assert grammar.rules_for(()) == ()

    def test_metanotion_headed_rules_join_every_bucket(self):
        grammar = WGrammar(
            {"X": LexicalMeta("[a-z]")},
            [
                Hyperrule((Mark("a"),), ()),
                Hyperrule((MetaRef("X"),), ()),
                Hyperrule((Mark("b"),), ()),
                Hyperrule((Mark("a"), Mark("c")), ()),
                Hyperrule((), ()),
            ],
            ("a",),
        )

        def indices(notion):
            return [index for index, _ in grammar.rules_for(notion)]

        assert indices(("a",)) == [0, 1, 3, 4]
        assert indices(("b", "c")) == [1, 2, 4]
        assert indices(("z",)) == [1, 4]
        assert indices(()) == [1, 4]

    @pytest.mark.parametrize(
        "source",
        [
            courses_schema_source(),
            library_schema_source(),
            projects_schema_source(),
            "schema R(Things); proc p(x) = insert S(x) end-schema",
            "schema R(Things) proc p(x) = insert R(x) end-schema",
            "schema if(Things); proc p(x) = insert if(x) end-schema",
        ],
    )
    def test_same_verdict_as_every_rule(self, source, monkeypatch):
        indexed: dict = {}
        verdict = check_schema_source(source, counters=indexed)
        monkeypatch.setattr(WGrammar, "rules_for", _every_rule)
        every: dict = {}
        assert check_schema_source(source, counters=every) == verdict
        assert indexed["steps"] < every["steps"]
