"""The W-grammar for RPR data base schemas.

This is the executable counterpart of the paper's (unpublished) formal
syntax definition: a two-level grammar whose hyperrules thread two
accumulator metanotions through the schema, so that the
*context-sensitive* conditions are enforced grammatically:

* ``DECLS`` — the list of declared relation names *with their arities
  in unary notation* — flows through the OPL part.  The predicate
  hyperrule ``where NAME has COUNT in DECLSA decl NAME COUNT DECLSB :
  .`` derives the empty string exactly when the name occurs in the
  declaration list with that arity, enforcing **declared-before-use**
  (the condition the paper names: "all relational program variables in
  the OPL part of a schema have been declared in the SCL part") and
  **arity agreement** at every use; **declaration uniqueness** is the
  predicate ``where NAME notin ...`` with a disequality side
  condition.

* ``VARS`` — the list of individual variables in scope — accumulates
  procedure parameters, quantifier bindings, and relational-term tuple
  variables, and flows into every term position.  The predicate
  ``where NAME isin VARSA var NAME VARSB : .`` admits exactly the
  in-scope names, so a generated term can never be an undeclared
  identifier.  (An equality's *left* term must additionally satisfy
  ``where NAME notin DECLS``: the parser routes relation-named
  identifiers down the atom path, so the grammar may not offer them as
  equation sides.)

Arity is "guessed" by bounded nondeterminism: the ``COUNT``
metanotion (unary: ``i``, ``ii``, ...) carries an enumeration up to
:data:`MAX_ARITY`, so calls may leave it unbound and the engine
searches — the W-grammar idiom for synthesized information.

The grammar recognizes the token stream produced by
:mod:`repro.rpr.lexer` (each token's text is one mark).  Scalar and
constant declarations are not covered (the paper's example has
neither); :func:`check_schema_source` reports them as unsupported.
"""

from __future__ import annotations

from repro.errors import WGrammarError
from repro.obs.tracer import span as _span
from repro.rpr.lexer import tokenize
from repro.wgrammar.grammar import (
    Call,
    Hyperrule,
    LexicalMeta,
    Mark,
    MetaRef,
    RuleMeta,
    Terminal,
    WGrammar,
)

__all__ = ["MAX_ARITY", "rpr_wgrammar", "schema_marks", "check_schema_source"]

#: Largest relation arity the grammar's bounded arity search covers.
MAX_ARITY = 4

_KEYWORD_ALTERNATION = (
    "schema|proc|var|const|if|then|else|while|do|insert|delete|skip|"
    "forall|exists|true|false"
)

#: Lexical language of names: identifiers that are not keywords.
_NAME_PATTERN = rf"(?!(?:{_KEYWORD_ALTERNATION})$)[A-Za-z_][A-Za-z0-9_']*"


def _meta(name: str) -> MetaRef:
    return MetaRef(name)


def _mark(text: str) -> Mark:
    return Mark(text)


def _t(text: str) -> Terminal:
    """Terminal for a literal mark."""
    return Terminal(Mark(text))


def _tname(meta: str = "NAME") -> Terminal:
    """Binding terminal for a name-shaped mark."""
    return Terminal(MetaRef(meta))


def _call(*parts) -> Call:
    out = []
    for part in parts:
        if isinstance(part, (Mark, MetaRef)):
            out.append(part)
        else:
            out.append(Mark(part))
    return Call(tuple(out))


def rpr_wgrammar() -> WGrammar:
    """Construct the W-grammar for RPR schemas."""
    count_meta = RuleMeta(
        (
            (Mark("i"),),
            (Mark("i"), MetaRef("COUNT")),
        ),
        enumeration=tuple(
            ("i",) * k for k in range(1, MAX_ARITY + 1)
        ),
    )
    decls_meta = RuleMeta(
        (
            (),
            (
                Mark("decl"),
                MetaRef("NAME"),
                MetaRef("COUNT"),
                MetaRef("DECLS"),
            ),
        )
    )
    vars_meta = RuleMeta(
        (
            (),
            (
                Mark("var"),
                MetaRef("NAME"),
                MetaRef("VARS"),
            ),
        )
    )
    metanotions = {
        "NAME": LexicalMeta(_NAME_PATTERN),
        "NAME2": LexicalMeta(_NAME_PATTERN),
        "SORTNAME": LexicalMeta(_NAME_PATTERN),
        "COUNT": count_meta,
        "DECLS": decls_meta,
        "DECLSA": decls_meta,
        "DECLSB": decls_meta,
        "VARS": vars_meta,
        "VARSA": vars_meta,
        "VARSB": vars_meta,
    }
    D = _meta("DECLS")
    N = _meta("NAME")
    C = _meta("COUNT")
    V = _meta("VARS")

    rules: list[Hyperrule] = []

    def rule(label: str, lhs, *rhs, distinct=()) -> None:
        rules.append(Hyperrule(tuple(lhs), tuple(rhs), label, distinct))

    # program : 'schema', body-of-(empty decls) .
    rule(
        "program",
        [_mark("program")],
        _t("schema"),
        _call("body", "of"),
    )
    # body of DECLS : NAME(fresh) '(' columns of COUNT ')' ';'
    #                 body of DECLS decl NAME COUNT .
    rule(
        "body-decl",
        [_mark("body"), _mark("of"), D],
        _tname(),
        _call("where", N, "notin", D),
        _t("("),
        _call("columns", "of", C),  # COUNT guessed by enumeration
        _t(")"),
        _t(";"),
        _call("body", "of", D, "decl", N, C),
    )
    # body of DECLS : ops in DECLS (no procs yet) 'end-schema' .
    rule(
        "body-ops",
        [_mark("body"), _mark("of"), D],
        _call("ops", "in", D, "procs"),
        _t("end-schema"),
    )
    # columns of i : SORTNAME .
    rule(
        "columns-one",
        [_mark("columns"), _mark("of"), _mark("i")],
        _tname("SORTNAME"),
    )
    # columns of i COUNT : SORTNAME ',' columns of COUNT .
    rule(
        "columns-more",
        [_mark("columns"), _mark("of"), _mark("i"), C],
        _tname("SORTNAME"),
        _t(","),
        _call("columns", "of", C),
    )
    # ops in DECLS procs VARS : 'proc' NAME(fresh among the procs)
    #     '(' params-in-empty-scope, ops with NAME accumulated .
    rule(
        "ops",
        [_mark("ops"), _mark("in"), D, _mark("procs"), V],
        _t("proc"),
        _tname(),
        _call("where", N, "outof", V),
        _t("("),
        _call("params", "in", D, "vars"),
        _call("ops", "in", D, "procs", _mark("var"), N, V),
    )
    rule("ops-end", [_mark("ops"), _mark("in"), D, _mark("procs"), V])
    # params accumulate the parameter names into VARS — the scope the
    # proc body's terms are checked against; the ')' '=' stmt
    # continuation lives here so the finished scope reaches the body.
    rule(
        "params-close",
        [_mark("params"), _mark("in"), D, _mark("vars"), V],
        _t(")"),
        _t("="),
        _call("stmt", "in", D, "vars", V),
    )
    rule(
        "params-first",
        [_mark("params"), _mark("in"), D, _mark("vars"), V],
        _tname(),
        _call("annot"),
        _call("params-tail", "in", D, "vars", _mark("var"), N, V),
    )
    rule(
        "params-tail-close",
        [_mark("params-tail"), _mark("in"), D, _mark("vars"), V],
        _t(")"),
        _t("="),
        _call("stmt", "in", D, "vars", V),
    )
    rule(
        "params-tail-more",
        [_mark("params-tail"), _mark("in"), D, _mark("vars"), V],
        _t(","),
        _tname(),
        _call("annot"),
        _call("params-tail", "in", D, "vars", _mark("var"), N, V),
    )
    rule("annot-empty", [_mark("annot")])
    rule("annot", [_mark("annot")], _t(":"), _tname("SORTNAME"))

    # statements ------------------------------------------------------
    rule(
        "stmt",
        [_mark("stmt"), _mark("in"), D, _mark("vars"), V],
        _call("seqlevel", "in", D, "vars", V),
        _call("stmt-tail", "in", D, "vars", V),
    )
    rule(
        "stmt-tail-end",
        [_mark("stmt-tail"), _mark("in"), D, _mark("vars"), V],
    )
    rule(
        "stmt-tail",
        [_mark("stmt-tail"), _mark("in"), D, _mark("vars"), V],
        _t("|"),
        _call("seqlevel", "in", D, "vars", V),
        _call("stmt-tail", "in", D, "vars", V),
    )
    rule(
        "seqlevel",
        [_mark("seqlevel"), _mark("in"), D, _mark("vars"), V],
        _call("unit", "in", D, "vars", V),
        _call("seq-tail", "in", D, "vars", V),
    )
    rule(
        "seq-tail-end",
        [_mark("seq-tail"), _mark("in"), D, _mark("vars"), V],
    )
    rule(
        "seq-tail",
        [_mark("seq-tail"), _mark("in"), D, _mark("vars"), V],
        _t(";"),
        _call("unit", "in", D, "vars", V),
        _call("seq-tail", "in", D, "vars", V),
    )
    rule(
        "unit-group",
        [_mark("unit"), _mark("in"), D, _mark("vars"), V],
        _t("("),
        _call("stmt", "in", D, "vars", V),
        _t(")"),
        _call("star-opt"),
    )
    rule("star-opt-end", [_mark("star-opt")])
    rule("star-opt", [_mark("star-opt")], _t("*"))
    rule(
        "unit-skip",
        [_mark("unit"), _mark("in"), D, _mark("vars"), V],
        _t("skip"),
    )
    rule(
        "unit-if",
        [_mark("unit"), _mark("in"), D, _mark("vars"), V],
        _t("if"),
        _call("formula", "in", D, "vars", V),
        _t("then"),
        _call("unit", "in", D, "vars", V),
        _call("else-opt", "in", D, "vars", V),
    )
    rule(
        "else-opt-end",
        [_mark("else-opt"), _mark("in"), D, _mark("vars"), V],
    )
    rule(
        "else-opt",
        [_mark("else-opt"), _mark("in"), D, _mark("vars"), V],
        _t("else"),
        _call("unit", "in", D, "vars", V),
    )
    rule(
        "unit-while",
        [_mark("unit"), _mark("in"), D, _mark("vars"), V],
        _t("while"),
        _call("formula", "in", D, "vars", V),
        _t("do"),
        _call("unit", "in", D, "vars", V),
    )
    # unit : 'insert'/'delete' NAME(declared, arity COUNT)
    #        '(' args of COUNT ')'
    for keyword in ("insert", "delete"):
        rule(
            f"unit-{keyword}",
            [_mark("unit"), _mark("in"), D, _mark("vars"), V],
            _t(keyword),
            _tname(),
            _call("where", N, "has", C, "in", D),
            _t("("),
            _call("args", "of", C, "vars", V),
            _t(")"),
        )
    # unit : NAME(declared, arity COUNT) ':=' relterm of COUNT
    rule(
        "unit-relassign",
        [_mark("unit"), _mark("in"), D, _mark("vars"), V],
        _tname(),
        _call("where", N, "has", C, "in", D),
        _t(":="),
        _call("relterm", "of", C, "in", D, "vars", V),
    )
    rule(
        "unit-test",
        [_mark("unit"), _mark("in"), D, _mark("vars"), V],
        _call("formula", "in", D, "vars", V),
        _t("?"),
    )
    # relational terms, arity-indexed ----------------------------------
    rule(
        "relterm-empty",
        [
            _mark("relterm"), _mark("of"), C,
            _mark("in"), D, _mark("vars"), V,
        ],
        _t("{"),
        _t("}"),
    )
    # The tuple variables extend the scope of the '/'-side formula, so
    # the ')' '/' formula '}' continuation lives inside 'varlist'.
    rule(
        "relterm-tuple",
        [
            _mark("relterm"), _mark("of"), C,
            _mark("in"), D, _mark("vars"), V,
        ],
        _t("{"),
        _t("("),
        _call("varlist", "of", C, "in", D, "vars", V),
    )
    rule(
        "relterm-single",
        [
            _mark("relterm"), _mark("of"), _mark("i"),
            _mark("in"), D, _mark("vars"), V,
        ],
        _t("{"),
        _tname(),
        _t("/"),
        _call("formula", "in", D, "vars", _mark("var"), N, V),
        _t("}"),
    )
    rule(
        "varlist-one",
        [
            _mark("varlist"), _mark("of"), _mark("i"),
            _mark("in"), D, _mark("vars"), V,
        ],
        _tname(),
        _t(")"),
        _t("/"),
        _call("formula", "in", D, "vars", _mark("var"), N, V),
        _t("}"),
    )
    rule(
        "varlist-more",
        [
            _mark("varlist"), _mark("of"), _mark("i"), C,
            _mark("in"), D, _mark("vars"), V,
        ],
        _tname(),
        _t(","),
        _call("varlist", "of", C, "in", D, "vars", _mark("var"), N, V),
    )

    # formulas (precedence mirrored from the parser) --------------------
    rule(
        "formula",
        [_mark("formula"), _mark("in"), D, _mark("vars"), V],
        _call("fimp", "in", D, "vars", V),
        _call("fiff-tail", "in", D, "vars", V),
    )
    rule(
        "fiff-tail-end",
        [_mark("fiff-tail"), _mark("in"), D, _mark("vars"), V],
    )
    rule(
        "fiff-tail",
        [_mark("fiff-tail"), _mark("in"), D, _mark("vars"), V],
        _t("<->"),
        _call("fimp", "in", D, "vars", V),
        _call("fiff-tail", "in", D, "vars", V),
    )
    rule(
        "fimp",
        [_mark("fimp"), _mark("in"), D, _mark("vars"), V],
        _call("for", "in", D, "vars", V),
        _call("fimp-tail", "in", D, "vars", V),
    )
    rule(
        "fimp-tail-end",
        [_mark("fimp-tail"), _mark("in"), D, _mark("vars"), V],
    )
    rule(
        "fimp-tail",
        [_mark("fimp-tail"), _mark("in"), D, _mark("vars"), V],
        _t("->"),
        _call("fimp", "in", D, "vars", V),
    )
    rule(
        "for",
        [_mark("for"), _mark("in"), D, _mark("vars"), V],
        _call("fand", "in", D, "vars", V),
        _call("for-tail", "in", D, "vars", V),
    )
    rule(
        "for-tail-end",
        [_mark("for-tail"), _mark("in"), D, _mark("vars"), V],
    )
    rule(
        "for-tail",
        [_mark("for-tail"), _mark("in"), D, _mark("vars"), V],
        _t("|"),
        _call("fand", "in", D, "vars", V),
        _call("for-tail", "in", D, "vars", V),
    )
    rule(
        "fand",
        [_mark("fand"), _mark("in"), D, _mark("vars"), V],
        _call("funary", "in", D, "vars", V),
        _call("fand-tail", "in", D, "vars", V),
    )
    rule(
        "fand-tail-end",
        [_mark("fand-tail"), _mark("in"), D, _mark("vars"), V],
    )
    rule(
        "fand-tail",
        [_mark("fand-tail"), _mark("in"), D, _mark("vars"), V],
        _t("&"),
        _call("funary", "in", D, "vars", V),
        _call("fand-tail", "in", D, "vars", V),
    )
    rule(
        "funary-not",
        [_mark("funary"), _mark("in"), D, _mark("vars"), V],
        _t("~"),
        _call("funary", "in", D, "vars", V),
    )
    # The quantifier's bindings extend the scope of the body formula,
    # so the '.' formula continuation lives inside 'bindlist'.
    for quantifier in ("forall", "exists"):
        rule(
            f"funary-{quantifier}",
            [_mark("funary"), _mark("in"), D, _mark("vars"), V],
            _t(quantifier),
            _call("bindlist", "in", D, "vars", V),
        )
    rule(
        "funary-primary",
        [_mark("funary"), _mark("in"), D, _mark("vars"), V],
        _call("fprimary", "in", D, "vars", V),
    )
    rule(
        "bindlist",
        [_mark("bindlist"), _mark("in"), D, _mark("vars"), V],
        _tname(),
        _t(":"),
        _tname("SORTNAME"),
        _call("bindlist-tail", "in", D, "vars", _mark("var"), N, V),
    )
    rule(
        "bindlist-tail-dot",
        [_mark("bindlist-tail"), _mark("in"), D, _mark("vars"), V],
        _t("."),
        _call("formula", "in", D, "vars", V),
    )
    rule(
        "bindlist-tail",
        [_mark("bindlist-tail"), _mark("in"), D, _mark("vars"), V],
        _t(","),
        _tname(),
        _t(":"),
        _tname("SORTNAME"),
        _call("bindlist-tail", "in", D, "vars", _mark("var"), N, V),
    )
    rule(
        "fprimary-paren",
        [_mark("fprimary"), _mark("in"), D, _mark("vars"), V],
        _t("("),
        _call("formula", "in", D, "vars", V),
        _t(")"),
    )
    rule(
        "fprimary-true",
        [_mark("fprimary"), _mark("in"), D, _mark("vars"), V],
        _t("true"),
    )
    rule(
        "fprimary-false",
        [_mark("fprimary"), _mark("in"), D, _mark("vars"), V],
        _t("false"),
    )
    # relation atom: NAME declared with arity COUNT.
    rule(
        "fprimary-atom",
        [_mark("fprimary"), _mark("in"), D, _mark("vars"), V],
        _tname(),
        _call("where", N, "has", C, "in", D),
        _t("("),
        _call("args", "of", C, "vars", V),
        _t(")"),
    )
    # Equality/inequality between in-scope terms.  The parser routes a
    # relation-named identifier down the atom path, so the left side
    # must additionally not collide with a declared relation.
    for operator in ("=", "!="):
        rule(
            f"fprimary-{'eq' if operator == '=' else 'neq'}",
            [_mark("fprimary"), _mark("in"), D, _mark("vars"), V],
            _tname(),
            _call("where", N, "notin", D),
            _call("where", N, "isin", V),
            _t(operator),
            _call("term", "from", V),
        )
    # term from VARS : NAME(in scope) .
    rule(
        "term",
        [_mark("term"), _mark("from"), V],
        _tname(),
        _call("where", N, "isin", V),
    )
    rule(
        "args-one",
        [_mark("args"), _mark("of"), _mark("i"), _mark("vars"), V],
        _call("term", "from", V),
    )
    rule(
        "args-more",
        [_mark("args"), _mark("of"), _mark("i"), C, _mark("vars"), V],
        _call("term", "from", V),
        _t(","),
        _call("args", "of", C, "vars", V),
    )

    # the context-condition predicates ---------------------------------
    # where NAME has COUNT in DECLSA decl NAME COUNT DECLSB :  .
    rules.append(
        Hyperrule(
            (
                _mark("where"),
                N,
                _mark("has"),
                C,
                _mark("in"),
                _meta("DECLSA"),
                _mark("decl"),
                N,
                C,
                _meta("DECLSB"),
            ),
            (),
            "where-has-in-decls",
        )
    )
    # where NAME notin (empty) :  .
    rules.append(
        Hyperrule(
            (_mark("where"), N, _mark("notin")),
            (),
            "where-notin-empty",
        )
    )
    # where NAME notin decl NAME2 COUNT DECLS : where NAME notin DECLS,
    # provided NAME != NAME2.
    rules.append(
        Hyperrule(
            (
                _mark("where"),
                N,
                _mark("notin"),
                _mark("decl"),
                _meta("NAME2"),
                C,
                D,
            ),
            (_call("where", N, "notin", D),),
            "where-notin-step",
            distinct=(("NAME", "NAME2"),),
        )
    )
    # where NAME isin VARSA var NAME VARSB :  .
    rules.append(
        Hyperrule(
            (
                _mark("where"),
                N,
                _mark("isin"),
                _meta("VARSA"),
                _mark("var"),
                N,
                _meta("VARSB"),
            ),
            (),
            "where-isin-vars",
        )
    )
    # where NAME outof (empty name list) :  .
    rules.append(
        Hyperrule(
            (_mark("where"), N, _mark("outof")),
            (),
            "where-outof-empty",
        )
    )
    # where NAME outof var NAME2 VARS : where NAME outof VARS,
    # provided NAME != NAME2.
    rules.append(
        Hyperrule(
            (
                _mark("where"),
                N,
                _mark("outof"),
                _mark("var"),
                _meta("NAME2"),
                V,
            ),
            (_call("where", N, "outof", V),),
            "where-outof-step",
            distinct=(("NAME", "NAME2"),),
        )
    )

    return WGrammar(metanotions, rules, ("program",))


def schema_marks(source: str) -> list[str]:
    """Tokenize RPR source into the mark sequence the grammar reads."""
    return [
        token.text
        for token in tokenize(source)
        if token.kind != "eof"
    ]


def check_schema_source(
    source: str,
    max_steps: int = 2_000_000,
    counters: dict | None = None,
) -> bool:
    """Decide whether RPR source is generated by the W-grammar
    (Section 5.4's syntactic-correctness check).

    Args:
        counters: optional dict receiving the recognizer's work
            counters (``steps``, ``memo_entries``, ``memo_hits``) for
            the caller to record (the grammar check's statistics).

    Raises:
        WGrammarError: if the source declares scalar/constant program
            variables (not covered by this grammar) or the search
            budget is exhausted.
    """
    marks = schema_marks(source)
    if "var" in marks or "const" in marks:
        raise WGrammarError(
            "the RPR W-grammar does not cover scalar/constant "
            "declarations"
        )
    with _span(
        "wgrammar.recognize", tokens=len(marks), budget=max_steps
    ):
        return rpr_wgrammar().recognize(
            marks, max_steps=max_steps, counters=counters
        )
