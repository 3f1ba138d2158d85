"""Valid and reachable state sets: V and G of Section 4.4.

* ``V`` — the set of *valid* states: level-1 structures over the given
  carriers that satisfy all static constraints
  (:func:`enumerate_valid_structures` builds it exhaustively; its size
  is exponential in the carrier sizes, so it is intended for the small
  domains used in bounded verification).

* ``G`` — the set of *reachable* states: "the least set of states
  containing initiate and closed under all the other update functions"
  (:func:`reachable_structures` computes it from the observational
  state graph of a :class:`TraceAlgebra`).

Section 4.4 proves, for the running example, both ``G ⊆ V`` (every
reachable state is valid) and ``V ⊆ G`` (every valid state is
reachable); :func:`compare_valid_reachable` decides both inclusions
and reports witnesses for any failure.

The comparison compiles both sides once per check
(:mod:`repro.refinement.compiled`): each static constraint becomes a
closure over a candidate's extensions (V), and each ground instance of
I(p) a closure over snapshot cells (G, the structure M(snapshot)
without rewriting the witness trace).  The generic satisfaction
relation and :meth:`Interpretation.structure_of_trace` stay the
reference paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.algebraic.algebra import StateGraph, TraceAlgebra
from repro.algebraic.compiler import UnsupportedTermError
from repro.information.consistency import is_consistent_state
from repro.information.spec import InformationSpec
from repro.logic.sorts import Sort
from repro.logic.structures import Structure
from repro.logic.terms import Term
from repro.obs.stats import counter_delta, engine_counters
from repro.obs.tracer import count as _count, record as _record, span as _span
from repro.refinement.compiled import (
    StructureMap,
    compile_or_fallback,
    compile_static,
)
from repro.refinement.interpretation import Interpretation

__all__ = [
    "enumerate_valid_structures",
    "reachable_structures",
    "InclusionReport",
    "compare_valid_reachable",
    "synthesize_trace",
]


def _subset_spaces(
    information: InformationSpec, carriers: dict[Sort, list[str]]
) -> list[list[frozenset]]:
    """One subset space (all possible extensions) per db predicate."""
    subset_spaces = []
    for predicate in information.db_predicates:
        domains = [carriers[sort] for sort in predicate.arg_sorts]
        rows = list(itertools.product(*domains))
        subset_spaces.append(list(_all_subsets(rows)))
    return subset_spaces


def _structure_from_extensions(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
    extensions: tuple[frozenset, ...],
) -> Structure:
    relations = {
        predicate.name: extension
        for predicate, extension in zip(
            information.db_predicates, extensions
        )
    }
    return Structure(information.signature, carriers, relations=relations)


def enumerate_all_structures(
    information: InformationSpec, carriers: dict[Sort, list[str]]
) -> Iterator[Structure]:
    """Yield every structure over the carriers (all combinations of
    db-predicate extensions).  Exponential; bounded-domain use only."""
    subset_spaces = _subset_spaces(information, carriers)
    for extensions in itertools.product(*subset_spaces):
        yield _structure_from_extensions(information, carriers, extensions)


def _all_subsets(rows: list[tuple]) -> Iterator[frozenset]:
    for mask in range(1 << len(rows)):
        yield frozenset(
            row for index, row in enumerate(rows) if mask >> index & 1
        )


def enumerate_valid_structures(
    information: InformationSpec, carriers: dict[Sort, list[str]]
) -> Iterator[Structure]:
    """Yield the set V: structures satisfying every static constraint."""
    for structure in enumerate_all_structures(information, carriers):
        if is_consistent_state(information, structure):
            yield structure


def reachable_structures(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
    algebra: TraceAlgebra,
    interpretation: Interpretation,
    graph: StateGraph | None = None,
) -> dict[Structure, Term]:
    """The set G as level-1 structures, each with a witness trace.

    Args:
        graph: a previously computed state graph; explored fresh when
            omitted.
    """
    return _reachable(
        information, carriers, algebra, interpretation, graph
    )[0]


def _reachable(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
    algebra: TraceAlgebra,
    interpretation: Interpretation,
    graph: StateGraph | None,
) -> tuple[dict[Structure, Term], str | None]:
    """:func:`reachable_structures`, with the reason the compiled
    structure map was not used (``None`` when it was).  The rewrite
    work and the states realized (``items``) are counted on the active
    span."""
    if graph is None:
        graph = algebra.explore()
    before = engine_counters(algebra.engine)
    structure_map, fallback = compile_or_fallback(
        algebra,
        lambda: StructureMap(information, carriers, algebra, interpretation),
    )
    out: dict[Structure, Term] = {}
    for snapshot, trace in graph.states.items():
        if structure_map is not None:
            structure = _structure_from_extensions(
                information, carriers, structure_map.extensions(snapshot)
            )
        else:
            structure = interpretation.structure_of_trace(
                information, carriers, algebra, trace
            )
        out.setdefault(structure, trace)
    _record(
        counter_delta(
            before, engine_counters(algebra.engine), len(graph.states)
        )
    )
    return out, fallback


def synthesize_trace(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
    algebra: TraceAlgebra,
    interpretation: Interpretation,
    target: Structure,
    graph: StateGraph | None = None,
) -> Term | None:
    """Constructive Section 4.4c: a shortest update sequence (as a
    trace term) reaching ``target``, or ``None`` if it is unreachable.

    The paper proves V ⊆ G "by induction on the number of courses
    offered and the number of enrollments"; this function turns that
    existence proof into a witness generator.  The returned trace is a
    breadth-first witness, hence of minimal update count.
    """
    if graph is None:
        graph = algebra.explore()
    for snapshot, trace in graph.states.items():
        structure = interpretation.structure_of_trace(
            information, carriers, algebra, trace
        )
        if structure == target:
            return trace
    return None


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of the G-vs-V comparison (Sections 4.4b and 4.4c).

    Attributes:
        reachable_subset_valid: G ⊆ V (static consistency).
        valid_subset_reachable: V ⊆ G (update repertoire completeness).
        valid_count: |V| over the given carriers.
        reachable_count: |G| (distinct level-1 structures reached).
        invalid_reachable: witnesses of G ⊄ V as (structure, trace).
        unreachable_valid: witnesses of V ⊄ G.
        truncated: True iff the exploration hit its state bound, in
            which case a False ``valid_subset_reachable`` may be an
            artifact.
    """

    reachable_subset_valid: bool
    valid_subset_reachable: bool
    valid_count: int
    reachable_count: int
    invalid_reachable: tuple[tuple[Structure, Term], ...] = field(
        default_factory=tuple
    )
    unreachable_valid: tuple[Structure, ...] = field(default_factory=tuple)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        """True iff both inclusions hold (G = V)."""
        return self.reachable_subset_valid and self.valid_subset_reachable

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        lines = [
            f"valid states |V| = {self.valid_count}, reachable states "
            f"|G| = {self.reachable_count}"
            + (" (exploration truncated)" if self.truncated else "")
        ]
        lines.append(
            "G subseteq V: " + ("yes" if self.reachable_subset_valid else "NO")
        )
        lines.append(
            "V subseteq G: " + ("yes" if self.valid_subset_reachable else "NO")
        )
        for structure, trace in self.invalid_reachable[:5]:
            lines.append(f"  invalid but reachable via {trace}: {structure}")
        for structure in self.unreachable_valid[:5]:
            lines.append(f"  valid but unreachable: {structure}")
        return "\n".join(lines)


def _valid_structure_list(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
) -> tuple[list[Structure], str | None]:
    """The set V in enumeration order, with the reason the compiled
    constraints were not used (``None`` when they were).  The
    candidate structures enumerated are counted as ``items`` on the
    active span."""
    try:
        constraints = compile_static(information, carriers)
    except UnsupportedTermError:
        fallback = "outside_fragment"
        structures = list(
            enumerate_valid_structures(information, carriers)
        )
    else:
        fallback = None
        structures = [
            _structure_from_extensions(information, carriers, extensions)
            for extensions in itertools.product(
                *_subset_spaces(information, carriers)
            )
            if all(holds((extensions,)) for _, holds in constraints)
        ]
    # Each predicate's subset space holds 2^|rows| extensions.
    rows = sum(
        math.prod(len(carriers[sort]) for sort in predicate.arg_sorts)
        for predicate in information.db_predicates
    )
    _count("items", 1 << rows)
    return structures, fallback


def compare_valid_reachable(
    information: InformationSpec,
    carriers: dict[Sort, list[str]],
    algebra: TraceAlgebra,
    interpretation: Interpretation,
    graph: StateGraph | None = None,
) -> InclusionReport:
    """Decide both inclusions of Sections 4.4b and 4.4c exhaustively.

    Witnesses of V ⊄ G are listed in enumeration order.
    """
    if graph is None:
        graph = algebra.explore()
    with _span("inclusion") as obs_span:
        with _span("inclusion.reachable"):
            reachable, reachable_fallback = _reachable(
                information, carriers, algebra, interpretation, graph
            )
        with _span("inclusion.valid-enumeration"):
            valid, valid_fallback = _valid_structure_list(
                information, carriers
            )
        valid_set = set(valid)
        obs_span.count("inclusion.reachable_states", len(reachable))
        obs_span.count("inclusion.valid_states", len(valid_set))
        for reason in sorted(
            {reachable_fallback, valid_fallback} - {None}
        ):
            obs_span.count(f"inclusion.fallback.{reason}")

        invalid_reachable = tuple(
            (structure, trace)
            for structure, trace in reachable.items()
            if structure not in valid_set
        )
        unreachable_valid = tuple(
            structure
            for structure in valid
            if structure not in reachable
        )
        return InclusionReport(
            reachable_subset_valid=not invalid_reachable,
            valid_subset_reachable=not unreachable_valid,
            valid_count=len(valid_set),
            reachable_count=len(reachable),
            invalid_reachable=invalid_reachable,
            unreachable_valid=unreachable_valid,
            truncated=graph.truncated,
        )
