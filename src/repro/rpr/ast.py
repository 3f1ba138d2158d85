"""Abstract syntax of RPR — regular programs over relations.

Paper, Section 5.1.1.  A *data base schema* is::

    schema SCL ; OPL end-schema

where SCL declares relation names over column domains and OPL declares
operations ``proc I(Y1,...,Yn) = S``.  Statements are built from

1. scalar assignment ``x := t``,
2. relational assignment ``R := {(x1,...,xm) / P}``,
3. tests ``P?``,
4. union ``(p u q)``, composition ``(p ; q)`` and iteration ``p*``,

plus derived deterministic constructs (if-then, if-then-else, while,
insert, delete), which :func:`desugar` expands into the core.

Formulas inside statements are ordinary :mod:`repro.logic` formulas
over the schema's signature (relation names as predicates, column
domains as sorts); terms are variables (procedure parameters or
quantified variables), scalar program variables, or value literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SpecificationError
from repro.logic import formulas as fm
from repro.logic.sorts import Sort
from repro.logic.terms import Term, Var

__all__ = [
    "ValueLiteral",
    "ScalarRef",
    "RelationalTerm",
    "Statement",
    "Assign",
    "RelAssign",
    "Test",
    "Union",
    "Seq",
    "Star",
    "Skip",
    "IfThen",
    "IfThenElse",
    "While",
    "Insert",
    "Delete",
    "RelationDecl",
    "ScalarDecl",
    "ConstDecl",
    "ProcDecl",
    "Schema",
    "desugar",
    "is_deterministic",
]


@dataclass(frozen=True)
class ValueLiteral(Term):
    """A literal domain value used as a term (programmatic use; the
    concrete syntax of the paper's programs only mentions variables)."""

    value: str
    literal_sort: Sort

    @property
    def sort(self) -> Sort:
        """The sort of the term."""
        return self.literal_sort

    def free_vars(self) -> frozenset[Var]:
        """The set of variables occurring in the term."""
        return frozenset()

    def subterms(self) -> Iterator[Term]:
        """Yield the term itself and every subterm, pre-order."""
        yield self

    def depth(self) -> int:
        """Height of the term tree."""
        return 1

    def size(self) -> int:
        """Total number of nodes in the term tree."""
        return 1

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ScalarRef(Term):
    """A scalar program variable used as a term.

    Paper, Section 5.1.1: scalar program variables are "distinguished
    constants" of L whose value is part of the state.
    """

    name: str
    scalar_sort: Sort

    @property
    def sort(self) -> Sort:
        """The sort of the term."""
        return self.scalar_sort

    def free_vars(self) -> frozenset[Var]:
        """The set of variables occurring in the term."""
        return frozenset()

    def subterms(self) -> Iterator[Term]:
        """Yield the term itself and every subterm, pre-order."""
        yield self

    def depth(self) -> int:
        """Height of the term tree."""
        return 1

    def size(self) -> int:
        """Total number of nodes in the term tree."""
        return 1

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RelationalTerm:
    """A relational term ``{(x1,...,xm) / P}`` of sort <s1,...,sm>.

    Attributes:
        variables: the tuple variables x1,...,xm.
        formula: the defining wff P (its free variables must be among
            the tuple variables plus any outer procedure parameters).
    """

    variables: tuple[Var, ...]
    formula: fm.Formula

    @property
    def sort(self) -> tuple[Sort, ...]:
        """The relational sort <s1,...,sm>."""
        return tuple(v.sort for v in self.variables)

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"{{({names}) / {self.formula}}}"


class Statement:
    """Abstract base class of RPR statements."""

    def substatements(self) -> Iterator["Statement"]:
        """Yield the statement and all nested statements, pre-order."""
        yield self


@dataclass(frozen=True)
class Assign(Statement):
    """Scalar assignment ``x := t``."""

    scalar: str
    term: Term

    def __str__(self) -> str:
        return f"{self.scalar} := {self.term}"


@dataclass(frozen=True)
class RelAssign(Statement):
    """Relational assignment ``R := {(x...) / P}``."""

    relation: str
    term: RelationalTerm

    def __str__(self) -> str:
        return f"{self.relation} := {self.term}"


@dataclass(frozen=True)
class Test(Statement):
    """Test ``P?``: proceeds iff the closed wff P holds."""

    # Not a pytest test class, despite the (paper-mandated) name.
    __test__ = False

    formula: fm.Formula

    def __str__(self) -> str:
        return f"{self.formula}?"


@dataclass(frozen=True)
class Union(Statement):
    """Nondeterministic choice ``(p u q)``."""

    left: Statement
    right: Statement

    def substatements(self) -> Iterator[Statement]:
        """Yield the statement and all nested statements, pre-order."""
        yield self
        yield from self.left.substatements()
        yield from self.right.substatements()

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Seq(Statement):
    """Sequential composition ``(p ; q)``."""

    left: Statement
    right: Statement

    def substatements(self) -> Iterator[Statement]:
        """Yield the statement and all nested statements, pre-order."""
        yield self
        yield from self.left.substatements()
        yield from self.right.substatements()

    def __str__(self) -> str:
        return f"({self.left} ; {self.right})"


@dataclass(frozen=True)
class Star(Statement):
    """Iteration ``p*``: zero or more repetitions of p."""

    body: Statement

    def substatements(self) -> Iterator[Statement]:
        """Yield the statement and all nested statements, pre-order."""
        yield self
        yield from self.body.substatements()

    def __str__(self) -> str:
        return f"({self.body})*"


@dataclass(frozen=True)
class Skip(Statement):
    """The no-op (``true?``)."""

    def __str__(self) -> str:
        return "skip"


# ---------------------------------------------------------------------
# derived constructs (paper: "We may also introduce some familiar
# constructs by definition such as if-then, if-then-else, while,
# insert and delete.")
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class IfThen(Statement):
    """``if P then p``  ==  ``(P?; p) u (~P)?``."""

    condition: fm.Formula
    then: Statement

    def substatements(self) -> Iterator[Statement]:
        """Yield the statement and all nested statements, pre-order."""
        yield self
        yield from self.then.substatements()

    def __str__(self) -> str:
        return f"if {self.condition} then {self.then}"


@dataclass(frozen=True)
class IfThenElse(Statement):
    """``if P then p else q``  ==  ``(P?; p) u ((~P)?; q)``."""

    condition: fm.Formula
    then: Statement
    orelse: Statement

    def substatements(self) -> Iterator[Statement]:
        """Yield the statement and all nested statements, pre-order."""
        yield self
        yield from self.then.substatements()
        yield from self.orelse.substatements()

    def __str__(self) -> str:
        return (
            f"if {self.condition} then {self.then} else {self.orelse}"
        )


@dataclass(frozen=True)
class While(Statement):
    """``while P do p``  ==  ``(P?; p)* ; (~P)?``."""

    condition: fm.Formula
    body: Statement

    def substatements(self) -> Iterator[Statement]:
        """Yield the statement and all nested statements, pre-order."""
        yield self
        yield from self.body.substatements()

    def __str__(self) -> str:
        return f"while {self.condition} do {self.body}"


@dataclass(frozen=True)
class Insert(Statement):
    """``insert R(t1,...,tn)``  ==
    ``R := {(x...) / R(x...) | (x... = t...)}``."""

    relation: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"insert {self.relation}({inner})"


@dataclass(frozen=True)
class Delete(Statement):
    """``delete R(t1,...,tn)``  ==
    ``R := {(x...) / R(x...) & ~(x... = t...)}``."""

    relation: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"delete {self.relation}({inner})"


# ---------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class RelationDecl:
    """A relation declaration ``R[A1,...,An]`` of the SCL part.

    Attributes:
        name: the relation name (a relational program variable).
        column_sorts: one sort per column (the paper's unary predicate
            symbols A1,...,An denote the column domains).
    """

    name: str
    column_sorts: tuple[Sort, ...]

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.column_sorts)

    def __str__(self) -> str:
        cols = ", ".join(s.name for s in self.column_sorts)
        return f"{self.name}({cols})"


@dataclass(frozen=True)
class ScalarDecl:
    """A scalar program variable declaration ``var x : A``."""

    name: str
    sort: Sort

    def __str__(self) -> str:
        return f"var {self.name}: {self.sort}"


@dataclass(frozen=True)
class ConstDecl:
    """A domain-constant declaration ``const c : A``.

    The constant denotes the value equal to its own name (the
    library-wide parameter-name convention), letting program text
    mention specific domain elements — e.g. the zero balance ``m0``.
    """

    name: str
    sort: Sort

    def __str__(self) -> str:
        return f"const {self.name}: {self.sort}"


@dataclass(frozen=True)
class ProcDecl:
    """An operation declaration ``proc I(Y1,...,Ym) = S``."""

    name: str
    params: tuple[Var, ...]
    body: Statement

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.params)
        return f"proc {self.name}({names}) = {self.body}"


@dataclass(frozen=True)
class Schema:
    """A data base schema: relation declarations plus operations."""

    relations: tuple[RelationDecl, ...]
    procs: tuple[ProcDecl, ...]
    scalars: tuple[ScalarDecl, ...] = field(default_factory=tuple)
    consts: tuple[ConstDecl, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise SpecificationError("duplicate relation declaration")
        proc_names = [p.name for p in self.procs]
        if len(set(proc_names)) != len(proc_names):
            raise SpecificationError("duplicate proc declaration")
        # Not a field: the memo of :meth:`expansion`, keyed by
        # statement identity (each entry keeps its statement alive, so
        # an id is never recycled).  Copies and unpickled schemas start
        # with an empty one.
        object.__setattr__(self, "_expansions", {})

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_expansions"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "_expansions", {})

    def expansion(self, statement: Statement) -> Statement:
        """``desugar(statement, self)``, computed once per statement.

        The RPR interpreter expands a derived statement each time it
        reaches one; this memo makes that once per schema.  An
        expansion that raises (an ``insert`` of the wrong arity, say)
        is not stored, so it raises again whenever it is reached.
        """
        entry = self._expansions.get(id(statement))
        if entry is None:
            entry = (statement, desugar(statement, self))
            self._expansions[id(statement)] = entry
        return entry[1]

    def relation(self, name: str) -> RelationDecl:
        """Look up a relation declaration by name."""
        for decl in self.relations:
            if decl.name == name:
                return decl
        raise SpecificationError(f"undeclared relation {name!r}")

    def proc(self, name: str) -> ProcDecl:
        """Look up a proc declaration by name."""
        for decl in self.procs:
            if decl.name == name:
                return decl
        raise SpecificationError(f"undeclared proc {name!r}")

    def scalar(self, name: str) -> ScalarDecl:
        """Look up a scalar declaration by name."""
        for decl in self.scalars:
            if decl.name == name:
                return decl
        raise SpecificationError(f"undeclared scalar {name!r}")

    @property
    def sorts(self) -> tuple[Sort, ...]:
        """Every column/scalar/constant sort mentioned by the schema."""
        seen: dict[str, Sort] = {}
        for decl in self.relations:
            for sort in decl.column_sorts:
                seen.setdefault(sort.name, sort)
        for scalar in self.scalars:
            seen.setdefault(scalar.sort.name, scalar.sort)
        for const in self.consts:
            seen.setdefault(const.sort.name, const.sort)
        return tuple(seen.values())

    def __str__(self) -> str:
        lines = ["schema"]
        for decl in self.relations:
            lines.append(f"  {decl};")
        for scalar in self.scalars:
            lines.append(f"  {scalar};")
        for const in self.consts:
            lines.append(f"  {const};")
        for proc in self.procs:
            lines.append(f"  {proc}")
        lines.append("end-schema")
        return "\n".join(lines)


# ---------------------------------------------------------------------
# desugaring into the core (the paper's defining equations)
# ---------------------------------------------------------------------
def desugar(statement: Statement, schema: Schema) -> Statement:
    """Expand derived constructs into core RPR.

    ``insert``/``delete`` need the schema to know the target relation's
    column sorts.  The result contains only Assign, RelAssign, Test,
    Union, Seq and Star.
    """
    if isinstance(statement, (Assign, RelAssign, Test)):
        return statement
    if isinstance(statement, Skip):
        return Test(fm.TRUE)
    if isinstance(statement, Union):
        return Union(
            desugar(statement.left, schema), desugar(statement.right, schema)
        )
    if isinstance(statement, Seq):
        return Seq(
            desugar(statement.left, schema), desugar(statement.right, schema)
        )
    if isinstance(statement, Star):
        return Star(desugar(statement.body, schema))
    if isinstance(statement, IfThen):
        return Union(
            Seq(Test(statement.condition), desugar(statement.then, schema)),
            Test(fm.Not(statement.condition)),
        )
    if isinstance(statement, IfThenElse):
        return Union(
            Seq(Test(statement.condition), desugar(statement.then, schema)),
            Seq(
                Test(fm.Not(statement.condition)),
                desugar(statement.orelse, schema),
            ),
        )
    if isinstance(statement, While):
        return Seq(
            Star(
                Seq(
                    Test(statement.condition),
                    desugar(statement.body, schema),
                )
            ),
            Test(fm.Not(statement.condition)),
        )
    if isinstance(statement, Insert):
        return RelAssign(
            statement.relation,
            _pointwise(schema, statement.relation, statement.args, insert=True),
        )
    if isinstance(statement, Delete):
        return RelAssign(
            statement.relation,
            _pointwise(
                schema, statement.relation, statement.args, insert=False
            ),
        )
    raise TypeError(f"not a statement: {statement!r}")


def _pointwise(
    schema: Schema,
    relation: str,
    args: tuple[Term, ...],
    insert: bool,
) -> RelationalTerm:
    """Build ``{x / R(x) | x = t}`` (insert) or ``{x / R(x) & x != t}``
    (delete)."""
    decl = schema.relation(relation)
    if len(args) != decl.arity:
        raise SpecificationError(
            f"{relation} has arity {decl.arity}, got {len(args)} args"
        )
    taken = {
        v.name for arg in args for v in arg.free_vars()
    }
    fresh: list[Var] = []
    counter = 1
    for sort in decl.column_sorts:
        name = f"rx{counter}"
        while name in taken:
            counter += 1
            name = f"rx{counter}"
        fresh.append(Var(name, sort))
        counter += 1
    from repro.logic.signature import PredicateSymbol

    predicate = PredicateSymbol(relation, decl.column_sorts)
    membership = fm.Atom(predicate, tuple(fresh))
    point = fm.conjunction(
        [
            fm.Equals(var, arg)
            for var, arg in zip(fresh, args)
        ]
    )
    if insert:
        body: fm.Formula = fm.Or(membership, point)
    else:
        body = fm.And(membership, fm.Not(point))
    return RelationalTerm(tuple(fresh), body)


def is_deterministic(statement: Statement) -> bool:
    """Syntactic determinism: the statement is built only from
    assignments and the derived deterministic constructs (paper:
    "Statements constructed using these statements and assignments are
    called deterministic")."""
    if isinstance(statement, (Assign, RelAssign, Skip, Insert, Delete)):
        return True
    if isinstance(statement, Test):
        # A bare test can block, but never branches.
        return True
    if isinstance(statement, Seq):
        return is_deterministic(statement.left) and is_deterministic(
            statement.right
        )
    if isinstance(statement, IfThen):
        return is_deterministic(statement.then)
    if isinstance(statement, IfThenElse):
        return is_deterministic(statement.then) and is_deterministic(
            statement.orelse
        )
    if isinstance(statement, While):
        return is_deterministic(statement.body)
    if isinstance(statement, (Union, Star)):
        return False
    raise TypeError(f"not a statement: {statement!r}")
