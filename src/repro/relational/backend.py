"""Backends executing lowered relational realizations.

:class:`Backend` is the minimal engine-facing surface — DDL scripts,
parameterless statements, scalar queries, explicit transaction
control.  SQLite (:mod:`repro.relational.sqlite`) is the first
implementation; anything speaking SQL with multi-statement
transactions can slot in behind the same interface.

:class:`RelationalDatabase` is the engine-independent orchestrator:
it lowers one application's specification to a schema, seeds the
initial state from the trace algebra's initial snapshot, compiles and
caches one transaction program per ground update instance, and runs
the §4.4 guard / stage / check / apply protocol against whichever
backend it was given.  Its :meth:`snapshot` returns the same interned
:class:`~repro.algebraic.algebra.Snapshot` objects the trace algebra
produces, so snapshot equality *is* agreement on every observation —
the property the differential oracle leans on.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Iterable

from repro.errors import IncompletenessError, RelationalError
from repro.algebraic.algebra import Snapshot
from repro.algebraic.compiler import Cell
from repro.algebraic.description import StructuredDescription
from repro.algebraic.spec import AlgebraicSpec
from repro.obs.switch import SWITCH
from repro.obs.tracer import count as _count, span as _span
from repro.relational.lowering import (
    GuardLowering,
    TransactionLowerer,
    TransactionProgram,
)

__all__ = ["Backend", "RelationalDatabase", "build_database"]


class Backend(ABC):
    """Abstract SQL execution engine.

    Implementations own a single connection; the orchestrator drives
    transactions explicitly through :meth:`begin` / :meth:`commit` /
    :meth:`rollback`, so autocommit must be off (or emulated).
    """

    #: Engine name, for reporting ("sqlite", ...).
    name: str = "abstract"

    @abstractmethod
    def execute(self, sql: str) -> None:
        """Run one statement for effect."""

    @abstractmethod
    def query_value(self, sql: str) -> object:
        """Run one scalar query and return the single value."""

    @abstractmethod
    def query_rows(self, sql: str) -> list[tuple]:
        """Run a query and return all result rows."""

    @abstractmethod
    def begin(self) -> None:
        """Open a transaction."""

    @abstractmethod
    def commit(self) -> None:
        """Commit the open transaction."""

    @abstractmethod
    def rollback(self) -> None:
        """Abort the open transaction."""

    @abstractmethod
    def close(self) -> None:
        """Release the connection."""

    def execute_script(self, statements: Iterable[str]) -> None:
        """Run a statement sequence for effect (DDL, seeding)."""
        for statement in statements:
            self.execute(statement)


class RelationalDatabase:
    """One application's level-3 realization on a SQL backend.

    Args:
        spec: the algebraic specification to lower.
        backend: the SQL engine (e.g.
            :class:`~repro.relational.sqlite.SQLiteBackend`).
        descriptions: structured descriptions; their preconditions
            become pre-transaction guards (omit for raw trace
            semantics).
        guard: an optional compiled
            :class:`~repro.runtime.guards.AdmissionGuard` whose
            decision tables are stored and auditable via
            :meth:`check_constraints`.
        lowerer: an optional :class:`TransactionLowerer` override —
            the oracle's deliberately-wrong fixture injects one here.
        initial: the initial-state constant's name.

    Raises:
        RelationalError: the specification does not lower (outside
            the canonical fragment).
    """

    def __init__(
        self,
        spec: AlgebraicSpec,
        backend: Backend,
        descriptions: list[StructuredDescription] | None = None,
        guard=None,
        lowerer: TransactionLowerer | None = None,
        initial: str = "initiate",
    ):
        self.spec = spec
        self.backend = backend
        self.lowerer = lowerer or TransactionLowerer(
            spec, descriptions
        )
        self.schema = self.lowerer.schema
        self.guards = (
            GuardLowering(guard, self.schema)
            if guard is not None
            else None
        )
        self._initial = initial
        self._programs: dict[
            tuple[str, tuple[str, ...]], TransactionProgram
        ] = {}
        self.stats: dict[str, int] = {
            "programs_compiled": 0,
            "transactions": 0,
            "noops_precondition": 0,
            "queries": 0,
        }
        self._initialize()

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    def _initial_entries(self):
        from repro.algebraic.algebra import TraceAlgebra

        algebra = TraceAlgebra(self.spec, initial=self._initial)
        return algebra.snapshot(algebra.initial_trace()).entries

    def _initialize(self) -> None:
        with _span(
            "relational.initialize", application=self.spec.name
        ):
            statements = list(self.schema.ddl())
            statements += self.schema.seed_sql(
                self._initial_entries()
            )
            if self.guards is not None:
                statements += self.guards.ddl()
                statements += self.guards.seed_sql()
            self.backend.begin()
            try:
                self.backend.execute_script(statements)
            except Exception:
                self.backend.rollback()
                raise
            self.backend.commit()

    # ------------------------------------------------------------------
    # programs
    # ------------------------------------------------------------------
    def program(
        self, update: str, params: tuple[str, ...]
    ) -> TransactionProgram:
        """The (cached) transaction program of one update instance."""
        key = (update, tuple(params))
        cached = self._programs.get(key)
        if cached is not None:
            return cached
        with _span(
            "relational.compile", update=update, params=params
        ):
            program = self.lowerer.lower(update, tuple(params))
        self._programs[key] = program
        self.stats["programs_compiled"] += 1
        _count("relational.programs.compiled")
        return program

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def apply(self, update: str, *params: str) -> bool:
        """Run one update's transaction program.

        Returns:
            True when the transaction committed; False when the §4.4
            precondition guard evaluated false and the update was a
            no-op (the trace semantics of a failing precondition).

        Raises:
            IncompletenessError: a staged cell had no firing dispatch
                entry (sufficient-completeness failure; the
                transaction rolls back).
            RelationalError: the instance does not lower, or the
                backend failed mid-transaction (after rollback).
        """
        program = self.program(update, tuple(params))
        if program.precondition_sql is not None:
            admitted = self.backend.query_value(
                program.precondition_sql
            )
            if not admitted:
                self.stats["noops_precondition"] += 1
                _count("relational.noops.precondition")
                return False
        telemetry = SWITCH.telemetry
        t0 = time.perf_counter_ns() if telemetry is not None else 0
        self.backend.begin()
        try:
            for _query, statement in program.stages:
                self.backend.execute(statement)
            for query, check in program.checks:
                missing = self.backend.query_value(check)
                if missing:
                    raise IncompletenessError(
                        f"no equation applies to {missing} cell(s) "
                        f"of {query} under "
                        f"{update}({', '.join(params)})"
                    )
            for statement in program.applies:
                self.backend.execute(statement)
            for statement in program.cleanups:
                self.backend.execute(statement)
        except IncompletenessError:
            self.backend.rollback()
            raise
        except Exception as exc:
            self.backend.rollback()
            raise RelationalError(
                f"backend {self.backend.name} failed applying "
                f"{update}({', '.join(params)}): {exc}"
            ) from exc
        self.backend.commit()
        self.stats["transactions"] += 1
        _count("relational.transactions")
        if telemetry is not None:
            telemetry.observe(
                f"relational.txn.{update}",
                time.perf_counter_ns() - t0,
                counter="relational.transactions",
                update=update,
                backend=self.backend.name,
            )
        return True

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def query(self, query: str, *params: str):
        """One observation's current value, decoded."""
        cell: Cell = (query, tuple(params))
        raw = self.backend.query_value(
            "SELECT " + self.schema.cell_subquery(cell)
        )
        self.stats["queries"] += 1
        return self.schema.decode(query, raw)

    def snapshot(self) -> Snapshot:
        """The whole state as an interned
        :class:`~repro.algebraic.algebra.Snapshot` (directly
        comparable to trace-algebra snapshots)."""
        entries = []
        for symbol in self.schema.signature.queries:
            table = self.schema.table_for_query(symbol.name)
            keys = table.primary_key
            select = ", ".join(
                [f'"{k}"' for k in keys] + ["value"]
            )
            for row in self.backend.query_rows(
                f'SELECT {select} FROM "{symbol.name}"'
            ):
                params = tuple(str(v) for v in row[:-1])
                value = self.schema.decode(symbol.name, row[-1])
                entries.append(((symbol.name, params), value))
        return Snapshot(tuple(sorted(entries)))

    # ------------------------------------------------------------------
    # constraint auditing
    # ------------------------------------------------------------------
    def check_constraints(self) -> list[str]:
        """Audit the live state against the stored decision tables
        (transition tables on the identity step) and any untabulated
        guard groups (checked through their closures over a
        SQL-backed cell reader).  Returns human-readable failure
        descriptions; an empty list means the state is consistent.
        """
        if self.guards is None:
            return []
        failures: list[str] = []
        for kind, index, sql in self.guards.audit_queries():
            if not self.backend.query_value(sql):
                failures.append(
                    f"{kind} decision table {index}: live valuation "
                    "not in the stored allowed set"
                )
        get = self._cell_reader
        for table in self.guards.fallback_static:
            for instance in table.members:
                if not instance.closure(get):
                    failures.append(str(instance.violation()))
        for table in self.guards.fallback_transition:
            gets = (get, get)
            for instance in table.members:
                if not instance.closure(gets):
                    failures.append(str(instance.violation()))
        return failures

    def _cell_reader(self, cell: Cell):
        raw = self.backend.query_value(
            "SELECT " + self.schema.cell_subquery(cell)
        )
        return self.schema.decode(cell[0], raw)

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def compile_sql_script(
        self, include_programs: bool = True
    ) -> str:
        """The whole realization as portable SQL text: DDL, initial
        state, stored guard tables, and (optionally) every update
        instance's transaction program."""
        sections = [
            f"-- relational realization of {self.spec.name}",
            "-- generated by repro.relational "
            "(spec -> schema + transaction programs)",
            "",
        ]
        sections.extend(s + ";" for s in self.schema.ddl())
        sections.append("")
        sections.extend(
            s + ";"
            for s in self.schema.seed_sql(self._initial_entries())
        )
        if self.guards is not None:
            sections.append("")
            sections.extend(s + ";" for s in self.guards.ddl())
            sections.extend(
                s + ";" for s in self.guards.seed_sql()
            )
            sections.append("")
            for kind, index, sql in self.guards.audit_queries():
                sections.append(
                    f"-- audit ({kind} table {index}):"
                )
                sections.append(sql + ";")
        if include_programs:
            from repro.algebraic.algebra import TraceAlgebra

            algebra = TraceAlgebra(self.spec, initial=self._initial)
            for update, params in algebra.update_instances():
                sections.append("")
                sections.append(
                    self.program(update, params).script()
                )
        return "\n".join(sections) + "\n"

    def close(self) -> None:
        """Release the backend connection."""
        self.backend.close()


def build_database(
    application: str,
    backend: Backend | None = None,
    with_guard: bool = True,
) -> RelationalDatabase:
    """Lower one shipped application onto a backend (SQLite in-memory
    by default) — the registry-driven convenience the CLI and the
    oracle use.

    Args:
        application: a name from
            :func:`repro.runtime.apps.available_applications`.
        backend: the engine; default is in-memory SQLite.
        with_guard: also compile, store and audit the admission
            guard's decision tables.
    """
    from repro.runtime.apps import build_app
    from repro.runtime.guards import AdmissionGuard
    from repro.relational.sqlite import SQLiteBackend

    app = build_app(application)
    framework = app.framework
    guard = None
    if with_guard:
        guard = AdmissionGuard(
            framework.information,
            framework.algebraic,
            framework.carriers,
            framework.interpretation,
        )
    return RelationalDatabase(
        framework.algebraic,
        backend or SQLiteBackend(),
        descriptions=app.descriptions,
        guard=guard,
    )
