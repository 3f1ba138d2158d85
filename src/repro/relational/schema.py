"""Observation queries and carriers mapped to relational tables.

The paper's algebraic level is representation-independent: a state is
*only* the value of every simple observation (Section 4.1's
observability condition).  The relational realization takes that
literally — the schema has one table per query function::

    q: <s1, ..., sn, state, r>   ⇒   TABLE q (
        <s1 column>, ..., <sn column>,   -- the ground parameters
        value,                           -- the observation's value
        PRIMARY KEY (<s1>, ..., <sn>))

with one row per ground cell, so the table is **total**: every
parameter combination is present and ``value`` is never NULL.  Key
constraints carry the representation invariants: the primary key is
the paper's functionality of observation (one value per cell), foreign
keys pin every parameter column to its sort's domain table, and a
``CHECK`` constraint restricts ``value`` to the query's result domain
(Booleans are stored as the integers 0/1).

Three kinds of auxiliary tables complete the schema:

* **domain tables** ``_dom_<sort>`` — one row per declared parameter
  name (the finite carriers, stored);
* **function tables** ``_fn_<name>`` — interpreted parameter functions
  materialized over their finite argument domains, generalizing the
  shipped bank design where level-3 arithmetic is a stored ``NEXT``
  successor relation;
* **staging tables** ``_stage_<query>`` — per-transaction scratch
  space for the two-phase update programs of
  :mod:`repro.relational.lowering` (stage against the pre-state, then
  apply), which is how the programs reproduce the trace semantics'
  simultaneous-assignment reading of the Q-equations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RelationalError
from repro.algebraic.compiler import Cell
from repro.algebraic.spec import AlgebraicSpec
from repro.logic.sorts import BOOLEAN, Sort
from repro.relational.sqlgen import quote_identifier, quote_literal

__all__ = ["Column", "RelationalSchema", "TableDef"]

#: Prefixes of the auxiliary (non-observation) tables.
DOMAIN_PREFIX = "_dom_"
FUNCTION_PREFIX = "_fn_"
STAGE_PREFIX = "_stage_"


@dataclass(frozen=True)
class Column:
    """One column of a lowered table.

    Attributes:
        name: the column name.
        affinity: the declared SQL type (``TEXT`` or ``INTEGER``).
        check: an optional per-column ``CHECK`` expression.
        references: an optional ``(table, column)`` foreign-key
            target.
    """

    name: str
    affinity: str = "TEXT"
    check: str | None = None
    references: tuple[str, str] | None = None

    def definition(self) -> str:
        """The column's fragment of a ``CREATE TABLE`` statement."""
        parts = [quote_identifier(self.name), self.affinity, "NOT NULL"]
        if self.check is not None:
            parts.append(f"CHECK ({self.check})")
        if self.references is not None:
            table, column = self.references
            parts.append(
                f"REFERENCES {quote_identifier(table)} "
                f"({quote_identifier(column)})"
            )
        return " ".join(parts)


@dataclass(frozen=True)
class TableDef:
    """One lowered table: name, columns, keys and provenance.

    Attributes:
        name: the table name.
        columns: the ordered column definitions.
        primary_key: names of the primary-key columns (may be empty
            for a parameterless query's single-row table).
        kind: ``"query"``, ``"domain"``, ``"function"`` or
            ``"stage"``.
        comment: one-line provenance, emitted as a SQL comment above
            the ``CREATE TABLE``.
        nullable_value: staging tables allow NULL values (an unsealed
            dispatch stages NULL, which the completeness check turns
            into an :class:`~repro.errors.IncompletenessError`).
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = ()
    kind: str = "query"
    comment: str = ""
    nullable_value: bool = False

    def create_sql(self) -> str:
        """The ``CREATE TABLE`` statement."""
        lines = []
        for column in self.columns:
            definition = column.definition()
            if self.nullable_value and column.name == "value":
                definition = definition.replace(" NOT NULL", "")
            lines.append("  " + definition)
        if self.primary_key:
            keys = ", ".join(
                quote_identifier(k) for k in self.primary_key
            )
            lines.append(f"  PRIMARY KEY ({keys})")
        body = ",\n".join(lines)
        head = ""
        if self.comment:
            head = f"-- {self.comment}\n"
        return (
            f"{head}CREATE TABLE {quote_identifier(self.name)} (\n"
            f"{body}\n)"
        )


def _value_column(
    result_sort: Sort, domain: tuple[str, ...] | None
) -> Column:
    if result_sort == BOOLEAN:
        return Column("value", "INTEGER", check="value IN (0, 1)")
    literals = ", ".join(quote_literal(v) for v in domain or ())
    return Column(
        "value",
        "TEXT",
        check=f"value IN ({literals})" if literals else None,
        references=(DOMAIN_PREFIX + result_sort.name, "value"),
    )


class RelationalSchema:
    """The relational lowering of one algebraic specification's
    observation schema.

    Args:
        spec: the algebraic specification whose queries, parameter
            sorts and interpreted functions define the tables.

    Raises:
        RelationalError: on a name collision between two lowered
            tables (cannot happen for signatures whose query names are
            distinct, which the signature already enforces).
    """

    def __init__(self, spec: AlgebraicSpec):
        self.spec = spec
        self.signature = spec.signature
        self._tables: dict[str, TableDef] = {}
        self._query_tables: dict[str, TableDef] = {}
        self._build_domain_tables()
        self._build_function_tables()
        self._build_query_tables()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add(self, table: TableDef) -> None:
        if table.name in self._tables:
            raise RelationalError(
                f"table name collision lowering the schema: "
                f"{table.name!r}"
            )
        self._tables[table.name] = table

    def _build_domain_tables(self) -> None:
        for sort in self.signature.parameter_sorts:
            self._add(
                TableDef(
                    DOMAIN_PREFIX + sort.name,
                    (Column("value", "TEXT"),),
                    ("value",),
                    kind="domain",
                    comment=(
                        f"carrier of parameter sort {sort.name} "
                        f"({len(self.signature.domain(sort))} values)"
                    ),
                )
            )

    def _build_function_tables(self) -> None:
        for name in self.signature.interpreted_functions:
            symbol = self.signature.logic.function(name)
            columns = []
            for i, sort in enumerate(symbol.arg_sorts):
                columns.append(self._argument_column(f"a{i}", sort))
            domain = (
                None
                if symbol.result_sort == BOOLEAN
                else self.signature.domain(symbol.result_sort)
            )
            columns.append(_value_column(symbol.result_sort, domain))
            self._add(
                TableDef(
                    FUNCTION_PREFIX + name,
                    tuple(columns),
                    tuple(f"a{i}" for i in range(len(symbol.arg_sorts))),
                    kind="function",
                    comment=(
                        f"interpreted parameter function {name}: "
                        + " x ".join(s.name for s in symbol.arg_sorts)
                        + f" -> {symbol.result_sort.name}, stored"
                    ),
                )
            )

    def _argument_column(self, name: str, sort: Sort) -> Column:
        if sort == BOOLEAN:
            return Column(name, "INTEGER", check=f"{name} IN (0, 1)")
        return Column(
            name, "TEXT", references=(DOMAIN_PREFIX + sort.name, "value")
        )

    def _build_query_tables(self) -> None:
        for symbol in self.signature.queries:
            param_sorts = symbol.arg_sorts[:-1]
            taken = {"value"}
            columns: list[Column] = []
            names: list[str] = []
            for sort in param_sorts:
                base = sort.name
                name = base
                counter = 2
                while name in taken:
                    name = f"{base}{counter}"
                    counter += 1
                taken.add(name)
                names.append(name)
                columns.append(self._argument_column(name, sort))
            domain = (
                None
                if symbol.result_sort == BOOLEAN
                else self.signature.domain(symbol.result_sort)
            )
            columns.append(_value_column(symbol.result_sort, domain))
            table = TableDef(
                symbol.name,
                tuple(columns),
                tuple(names),
                kind="query",
                comment=(
                    f"observation query {symbol.name}: "
                    + (
                        " x ".join(s.name for s in param_sorts)
                        + " -> "
                        if param_sorts
                        else "-> "
                    )
                    + symbol.result_sort.name
                    + " (one row per ground cell, total)"
                ),
            )
            self._add(table)
            self._query_tables[symbol.name] = table
            stage = TableDef(
                STAGE_PREFIX + symbol.name,
                tuple(
                    Column(c.name, c.affinity) for c in columns
                ),
                tuple(names),
                kind="stage",
                comment=(
                    f"per-transaction staging for {symbol.name} "
                    "(stage against the pre-state, then apply)"
                ),
                nullable_value=True,
            )
            self._add(stage)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def tables(self) -> tuple[TableDef, ...]:
        """Every lowered table, in creation order."""
        return tuple(self._tables.values())

    def table_for_query(self, query: str) -> TableDef:
        """The observation table of one query.

        Raises:
            RelationalError: for an undeclared query.
        """
        try:
            return self._query_tables[query]
        except KeyError:
            raise RelationalError(
                f"no table lowered for query {query!r}"
            ) from None

    def stage_table_for(self, query: str) -> str:
        """The staging table's name for one query."""
        self.table_for_query(query)
        return STAGE_PREFIX + query

    def key_columns(self, query: str) -> tuple[str, ...]:
        """The parameter (primary key) columns of a query's table."""
        return self.table_for_query(query).primary_key

    # ------------------------------------------------------------------
    # value encoding
    # ------------------------------------------------------------------
    def is_boolean(self, query: str) -> bool:
        """True iff the query's result sort is Boolean."""
        return self.signature.query(query).result_sort == BOOLEAN

    def encode(self, query: str, value) -> object:
        """A Python observation value as its stored representation."""
        if self.is_boolean(query):
            return int(bool(value))
        return str(value)

    def decode(self, query: str, raw) -> object:
        """A stored value back as the Python observation value."""
        if self.is_boolean(query):
            return bool(raw)
        return str(raw)

    # ------------------------------------------------------------------
    # SQL fragments
    # ------------------------------------------------------------------
    def cell_predicate(
        self, cell: Cell, alias: str | None = None
    ) -> str:
        """The ``WHERE`` conjunction pinning a table to one ground
        cell (empty string for a parameterless query)."""
        query, values = cell
        prefix = f"{quote_identifier(alias)}." if alias else ""
        parts = [
            f"{prefix}{quote_identifier(column)} = "
            + quote_literal(value)
            for column, value in zip(self.key_columns(query), values)
        ]
        return " AND ".join(parts)

    def cell_subquery(self, cell: Cell) -> str:
        """The scalar subquery reading one cell's current value."""
        query, _values = cell
        table = quote_identifier(query)
        predicate = self.cell_predicate(cell)
        where = f" WHERE {predicate}" if predicate else ""
        return f"(SELECT value FROM {table}{where})"

    def function_subquery(self, name: str, args: list[str]) -> str:
        """The scalar subquery applying a stored function table."""
        table = quote_identifier(FUNCTION_PREFIX + name)
        predicate = " AND ".join(
            f"{quote_identifier(f'a{i}')} = {sql}"
            for i, sql in enumerate(args)
        )
        where = f" WHERE {predicate}" if predicate else ""
        return f"(SELECT value FROM {table}{where})"

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def ddl(self) -> tuple[str, ...]:
        """The ``CREATE TABLE`` statements, dependency-ordered."""
        order = {"domain": 0, "function": 1, "query": 2, "stage": 3}
        tables = sorted(
            self._tables.values(),
            key=lambda t: (order[t.kind], t.name),
        )
        return tuple(table.create_sql() for table in tables)

    def seed_sql(self, entries) -> tuple[str, ...]:
        """``INSERT`` statements loading the carriers, the stored
        function tables, and one initial-state row per ground cell.

        Args:
            entries: the initial snapshot's
                ``((query, params), value)`` pairs (from
                :meth:`repro.algebraic.algebra.TraceAlgebra.snapshot`).
        """
        statements: list[str] = []
        for sort in self.signature.parameter_sorts:
            table = quote_identifier(DOMAIN_PREFIX + sort.name)
            for value in self.signature.domain(sort):
                statements.append(
                    f"INSERT INTO {table} (value) VALUES "
                    f"({quote_literal(value)})"
                )
        statements.extend(self._function_rows())
        for (query, params), value in entries:
            table = self.table_for_query(query)
            columns = ", ".join(
                quote_identifier(c) for c in table.primary_key
            ) or None
            encoded = self.encode(query, value)
            literal = (
                str(encoded)
                if isinstance(encoded, int)
                else quote_literal(encoded)
            )
            values = [quote_literal(p) for p in params] + [literal]
            column_list = (
                f"({columns}, value)" if columns else "(value)"
            )
            statements.append(
                f"INSERT INTO {quote_identifier(query)} "
                f"{column_list} VALUES ({', '.join(values)})"
            )
        return tuple(statements)

    def _function_rows(self) -> list[str]:
        import itertools

        statements: list[str] = []
        for name in self.signature.interpreted_functions:
            symbol = self.signature.logic.function(name)
            interp = self.signature.interpretation(name)
            table = quote_identifier(FUNCTION_PREFIX + name)
            domains = []
            for sort in symbol.arg_sorts:
                if sort == BOOLEAN:
                    domains.append((False, True))
                else:
                    domains.append(self.signature.domain(sort))
            for combo in itertools.product(*domains):
                result = interp(*combo)
                row = [
                    _literal_of(argument) for argument in combo
                ] + [_literal_of(result)]
                statements.append(
                    f"INSERT INTO {table} VALUES ({', '.join(row)})"
                )
        return statements


def _literal_of(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return quote_literal(str(value))
