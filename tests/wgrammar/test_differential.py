"""Differential testing: the W-grammar and the recursive-descent
parser must agree on randomly generated schemas and on their broken
mutations."""

from hypothesis import given, settings, strategies as st

from repro.errors import ParseError, WGrammarError
from repro.rpr.parser import parse_schema
from repro.wgrammar.rpr_grammar import check_schema_source

RELATION_NAMES = ["R", "S", "T"]
SORT_NAMES = ["Things", "Widgets"]


@st.composite
def schema_source(draw):
    """A random syntactically valid schema over unary/binary
    relations with a small statement repertoire."""
    relation_count = draw(st.integers(1, 3))
    relations = RELATION_NAMES[:relation_count]
    arities = {
        name: draw(st.integers(1, 2)) for name in relations
    }
    decl_lines = [
        f"  {name}({', '.join(SORT_NAMES[:arities[name]])});"
        for name in relations
    ]

    def atom(name, params):
        args = ", ".join(params[: arities[name]])
        return f"{name}({args})"

    proc_count = draw(st.integers(0, 3))
    proc_lines = []
    for index in range(proc_count):
        params = ["x", "y"]
        target = draw(st.sampled_from(relations))
        other = draw(st.sampled_from(relations))
        body_kind = draw(
            st.sampled_from(
                ["insert", "delete", "if", "while", "seq", "assign"]
            )
        )
        if body_kind == "insert":
            body = f"insert {atom(target, params)}"
        elif body_kind == "delete":
            body = f"delete {atom(target, params)}"
        elif body_kind == "if":
            body = (
                f"if {atom(other, params)} "
                f"then insert {atom(target, params)}"
            )
        elif body_kind == "while":
            body = (
                f"while {atom(other, params)} "
                f"do delete {atom(other, params)}"
            )
        elif body_kind == "seq":
            body = (
                f"(insert {atom(target, params)} ; "
                f"delete {atom(target, params)})"
            )
        else:
            body = f"{target} := {{}}"
        # Parameters get explicit annotations so both tools always
        # have sorts available.
        header_params = ", ".join(
            f"{param}: {sort}"
            for param, sort in zip(params, SORT_NAMES)
        )
        proc_lines.append(f"  proc p{index}({header_params}) = {body}")

    return "schema\n" + "\n".join(decl_lines + proc_lines) + "\nend-schema"


def _grammar_accepts(source):
    try:
        return check_schema_source(source)
    except WGrammarError:
        return False


def _parser_accepts(source):
    try:
        parse_schema(source)
        return True
    except ParseError:
        return False


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(schema_source())
    def test_generated_schemas_accepted_by_both(self, source):
        assert _parser_accepts(source), source
        assert _grammar_accepts(source), source

    @settings(max_examples=30, deadline=None)
    @given(schema_source(), st.sampled_from(["Q", "ZZ", "Unknown"]))
    def test_renamed_relation_use_rejected_by_both(
        self, source, ghost
    ):
        # Replace the first relation *use* in a proc body (not its
        # declaration) with an undeclared name.
        marker = "insert R("
        if marker not in source:
            return
        broken = source.replace(marker, f"insert {ghost}(", 1)
        assert not _parser_accepts(broken)
        assert not _grammar_accepts(broken)

    @settings(max_examples=30, deadline=None)
    @given(schema_source())
    def test_truncation_rejected_by_both(self, source):
        broken = source.replace("end-schema", "")
        assert not _parser_accepts(broken)
        assert not _grammar_accepts(broken)
