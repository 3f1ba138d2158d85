"""Tests for W-grammar string generation, including the generative
differential test against the parser and the arity/uniqueness context
conditions."""

from repro.errors import ParseError
from repro.rpr.parser import parse_schema
from repro.wgrammar.grammar import (
    Call,
    Hyperrule,
    LexicalMeta,
    Mark,
    MetaRef,
    Terminal,
    WGrammar,
)
from repro.wgrammar.rpr_grammar import (
    MAX_ARITY,
    check_schema_source,
    rpr_wgrammar,
)

LEXICON = {"NAME": ["R", "S", "x"], "SORTNAME": ["Things"]}


class TestEngineGeneration:
    def test_generates_simple_language(self):
        # s -> 'a' s | 'b': the strings a^k b.
        grammar = WGrammar(
            {},
            [
                Hyperrule(
                    (Mark("s"),),
                    (Terminal(Mark("a")), Call((Mark("s"),))),
                    "step",
                ),
                Hyperrule((Mark("s"),), (Terminal(Mark("b")),), "end"),
            ],
            ("s",),
        )
        strings = grammar.generate(max_depth=4)
        assert ("b",) in strings
        assert ("a", "b") in strings
        assert ("a", "a", "b") in strings
        assert all(s[-1] == "b" for s in strings)

    def test_binding_terminal_uses_lexicon(self):
        grammar = WGrammar(
            {"X": LexicalMeta("[ab]")},
            [
                Hyperrule(
                    (Mark("s"),),
                    (
                        Terminal(MetaRef("X")),
                        Terminal(MetaRef("X")),
                    ),
                    "twice",
                )
            ],
            ("s",),
        )
        strings = grammar.generate({"X": ["a", "b"]}, max_depth=2)
        # Consistent substitution: only aa and bb.
        assert strings == frozenset({("a", "a"), ("b", "b")})

    def test_no_lexicon_generates_nothing(self):
        grammar = WGrammar(
            {"X": LexicalMeta("[ab]")},
            [
                Hyperrule(
                    (Mark("s"),), (Terminal(MetaRef("X")),), "one"
                )
            ],
            ("s",),
        )
        assert grammar.generate(max_depth=2) == frozenset()

    def test_generated_strings_are_recognized(self):
        grammar = rpr_wgrammar()
        strings = grammar.generate(
            LEXICON, max_depth=12, max_per_notion=20
        )
        assert strings
        for s in sorted(strings)[:10]:
            assert grammar.recognize(list(s)), " ".join(s)


class TestContextConditions:
    def test_duplicate_declaration_rejected(self):
        assert not check_schema_source(
            "schema R(Things); R(Things); end-schema"
        )

    def test_distinct_declarations_accepted(self):
        assert check_schema_source(
            "schema R(Things); S(Things); end-schema"
        )

    def test_arity_checked_at_use(self):
        assert not check_schema_source(
            "schema R(A, B); proc p(x) = insert R(x) end-schema"
        )
        assert check_schema_source(
            "schema R(A, B); proc p(x) = insert R(x, x) end-schema"
        )

    def test_arity_checked_in_relterm(self):
        assert not check_schema_source(
            "schema R(A, B); proc p(x: A) = R := {(a) / a = x} end-schema"
        )
        assert check_schema_source(
            "schema R(A, B);"
            " proc p(x: A) = R := {(a, b) / a = x} end-schema"
        )

    def test_arity_beyond_bound_rejected(self):
        columns = ", ".join(f"S{i}" for i in range(MAX_ARITY + 1))
        assert not check_schema_source(
            f"schema R({columns}); end-schema"
        )


class TestGenerativeDifferential:
    def test_generated_schemas_parse_or_fail_only_on_sorts(self):
        """Every grammar-generated schema must be accepted by the
        parser, except for *sort-level* rejections (parameter-sort
        inference), which are knowingly outside the grammar's scope.
        """
        grammar = rpr_wgrammar()
        strings = grammar.generate(
            LEXICON, max_depth=14, max_per_notion=48
        )
        assert strings
        syntactic_rejects = []
        for s in sorted(strings):
            source = " ".join(s)
            try:
                parse_schema(source)
            except ParseError as exc:
                if "infer" in str(exc):
                    continue  # sort inference: beyond the grammar
                syntactic_rejects.append((source, str(exc)))
        assert not syntactic_rejects, syntactic_rejects[:2]
