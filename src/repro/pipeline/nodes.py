"""The standard check graph of a :class:`DesignFramework`.

One :class:`~repro.pipeline.check.Check` per verification obligation
of the paper's methodology, with the dependency structure made
explicit: the observational state graph is a *resource node*
(``explore``) that checks (b)–(d) consume, while the remaining
obligations are independent of it and of each other.  The declaration
order reproduces the old monolithic ``verify()`` execution order
exactly, so the deterministic schedule — and with it every report,
stats record, and rewrite-cache trajectory — is unchanged.

Runner functions are module-level so fan-out nodes survive ``fork``
into :mod:`repro.parallel.executor` workers.
"""

from __future__ import annotations

import time

from repro.algebraic.completeness import check_sufficient_completeness
from repro.algebraic.exploration import edge_artifact_name
from repro.algebraic.observation import check_congruence
from repro.errors import SpecificationError, WGrammarError
from repro.obs.coverage import COV_STATE, state_graph_census
from repro.parallel.stats import StatsSink, VerificationStats, WorkerStats
from repro.pipeline.check import Check, CheckRun
from repro.pipeline.graph import CheckGraph
from repro.refinement.first_second import (
    check_static_consistency,
    check_transition_consistency,
    prove_static_consistency,
)
from repro.refinement.reachability import compare_valid_reachable
from repro.refinement.second_third import (
    check_agreement,
    check_refinement as check_second_third,
)
from repro.wgrammar.rpr_grammar import check_schema_source

__all__ = ["build_framework_graph"]


# ---------------------------------------------------------------------
# runners — run(ctx, params) -> CheckRun
# ---------------------------------------------------------------------
def _run_explore(ctx, params) -> CheckRun:
    """Materialize the reachable observational state graph (the
    resource checks (b)–(d) read).

    When a result cache is attached, the previous run's edge artifact
    is threaded into the packed explorer so an equation edit
    re-explores only the affected frontier (``verify --cache-dir``
    gets delta exploration for free); the refreshed artifact is stored
    back after the run.
    """
    sink = StatsSink()
    cache = ctx.resources.get("result_cache")
    artifact_name = None
    edge_cache = None
    if cache is not None:
        artifact_name = edge_artifact_name(ctx.algebra.signature)
        edge_cache = cache.load_artifact(artifact_name)
    graph = ctx.algebra.explore(
        max_states=params["max_states"],
        stats=sink,
        edge_cache=edge_cache,
    )
    ctx.resources["graph"] = graph
    if artifact_name is not None and graph.artifact is not None:
        cache.store_artifact(artifact_name, graph.artifact)
    if COV_STATE.enabled:
        COV_STATE.recorder.record_explore(state_graph_census(graph))
    return CheckRun(result=graph, stats_parts=tuple(sink.records))


def _run_completeness(ctx, params) -> CheckRun:
    """Section 4.4a: sufficient completeness."""
    sink = StatsSink()
    report = check_sufficient_completeness(
        ctx.framework.algebraic,
        depth=params["depth"],
        stats=sink,
    )
    return CheckRun(result=report, stats_parts=tuple(sink.records))


def _run_static(ctx, params) -> CheckRun:
    """Section 4.4b: every reachable state is valid."""
    sink = StatsSink()
    framework = ctx.framework
    report = check_static_consistency(
        framework.information,
        framework.carriers,
        ctx.algebra,
        ctx.interpretation,
        ctx.resources["graph"],
        stats=sink,
    )
    return CheckRun(result=report, stats_parts=tuple(sink.records))


def _run_inclusion(ctx, params) -> CheckRun:
    """Sections 4.4b+c: the G = V comparison."""
    sink = StatsSink()
    framework = ctx.framework
    report = compare_valid_reachable(
        framework.information,
        framework.carriers,
        ctx.algebra,
        ctx.interpretation,
        ctx.resources["graph"],
        stats=sink,
    )
    return CheckRun(result=report, stats_parts=tuple(sink.records))


def _run_transitions(ctx, params) -> CheckRun:
    """Section 4.4d: transition consistency."""
    sink = StatsSink()
    framework = ctx.framework
    report = check_transition_consistency(
        framework.information,
        framework.carriers,
        ctx.algebra,
        ctx.interpretation,
        ctx.resources["graph"],
        stats=sink,
    )
    return CheckRun(result=report, stats_parts=tuple(sink.records))


def _run_induction(ctx, params) -> CheckRun:
    """Section 4.4b as the paper proves it: by structural induction
    (skipped when the abstract space exceeds the bound)."""
    framework = ctx.framework
    try:
        report = prove_static_consistency(
            framework.information,
            framework.carriers,
            framework.algebraic,
            framework.interpretation,
            max_abstract_states=params["max_states"],
        )
    except SpecificationError:
        # Abstract space exceeds the bound: the check declines.
        return CheckRun(result=None, skipped=True)
    return CheckRun(result=report)


def _run_congruence(ctx, params) -> CheckRun:
    """Level 2: observational equality is a congruence."""
    report = check_congruence(ctx.algebra, depth=params["depth"])
    return CheckRun(result=report)


def _run_grammar(ctx, params) -> CheckRun:
    """Level 3: the schema source is generated by the RPR W-grammar.

    The recognizer's step/memo counters land in a ``grammar`` stats
    record shaped like every other check's, so ``--stats`` and
    ``--stats-json`` finally see this check too.
    """
    source = ctx.framework.schema_source
    if source is None:
        return CheckRun(result=None, skipped=True)
    counters: dict = {}
    started = time.perf_counter()
    try:
        accepted = check_schema_source(
            source, max_steps=params["max_steps"], counters=counters
        )
    except WGrammarError:
        # Unsupported constructs or budget exhausted: skip, as the
        # monolithic verify() always did.
        return CheckRun(result=None, skipped=True)
    wall = time.perf_counter() - started
    record = WorkerStats(
        worker=0,
        items=counters.get("steps", 0),
        cache_hits=counters.get("memo_hits", 0),
        cache_misses=counters.get("memo_entries", 0),
        wall_time=wall,
    )
    stats = VerificationStats.merge("grammar", 1, [record], wall)
    return CheckRun(result=accepted, stats_parts=(stats,))


def _run_second_third(ctx, params) -> CheckRun:
    """Section 5.4: every A2 equation valid in the induced structure."""
    sink = StatsSink()
    framework = ctx.framework
    report = check_second_third(
        framework.algebraic,
        framework.schema,
        framework.representation,
        max_states=params["max_states"],
        stats=sink,
    )
    return CheckRun(result=report, stats_parts=tuple(sink.records))


def _run_agreement(ctx, params) -> CheckRun:
    """Direct level-2/level-3 observation agreement."""
    framework = ctx.framework
    report = check_agreement(
        ctx.algebra,
        framework.schema,
        framework.representation,
        depth=params["depth"],
    )
    return CheckRun(result=report)


# ---------------------------------------------------------------------
# the graph
# ---------------------------------------------------------------------
def build_framework_graph(
    completeness_depth: int = 2,
    congruence_depth: int = 2,
    max_states: int = 100_000,
    grammar_budget: int = 2_000_000,
) -> CheckGraph:
    """The declarative check graph of a full three-level design.

    Parameters land in each node's ``params`` (and therefore its
    fingerprint); the graph itself is framework-independent — bind a
    framework via :class:`~repro.pipeline.scheduler.PipelineContext`.
    """
    return CheckGraph(
        [
            Check(
                name="explore",
                title="reachable observational state graph",
                run=_run_explore,
                inputs=("algebraic",),
                params={"max_states": max_states},
                provides="graph",
                group="first-second",
            ),
            Check(
                name="completeness",
                title="(a) sufficient completeness",
                run=_run_completeness,
                inputs=("algebraic",),
                params={"depth": completeness_depth},
                cache_kind="completeness",
                group="first-second",
            ),
            Check(
                name="static",
                title="(b) every reachable state is valid",
                run=_run_static,
                inputs=(
                    "information",
                    "algebraic",
                    "carriers",
                    "interpretation",
                ),
                deps=("explore",),
                params={"max_states": max_states},
                cache_kind="static",
                group="first-second",
            ),
            Check(
                name="inclusion",
                title="(b)+(c) reachable vs valid comparison",
                run=_run_inclusion,
                inputs=(
                    "information",
                    "algebraic",
                    "carriers",
                    "interpretation",
                ),
                deps=("explore",),
                params={"max_states": max_states},
                cache_kind="inclusion",
                group="first-second",
            ),
            Check(
                name="transitions",
                title="(d) transition consistency",
                run=_run_transitions,
                inputs=(
                    "information",
                    "algebraic",
                    "carriers",
                    "interpretation",
                ),
                deps=("explore",),
                params={"max_states": max_states},
                cache_kind="transitions",
                group="first-second",
            ),
            Check(
                name="induction",
                title="(b) proved by structural induction",
                run=_run_induction,
                inputs=(
                    "information",
                    "algebraic",
                    "carriers",
                    "interpretation",
                ),
                params={"max_states": max_states},
                cache_kind="induction",
                span_name="induction",
                span_attrs={"max_states": max_states},
                fan_out=True,
            ),
            Check(
                name="congruence",
                title="level-2 observational congruence",
                run=_run_congruence,
                inputs=("algebraic",),
                params={"depth": congruence_depth},
                cache_kind="congruence",
                span_name="congruence",
                span_attrs={"depth": congruence_depth},
                fan_out=True,
            ),
            Check(
                name="grammar",
                title="schema generated by the RPR W-grammar",
                run=_run_grammar,
                inputs=("schema",),
                params={"max_steps": grammar_budget},
                cache_kind="grammar",
                span_name="grammar",
                span_attrs={"budget": grammar_budget},
                fan_out=True,
            ),
            Check(
                name="second-third",
                title="second-to-third refinement (Section 5.4)",
                run=_run_second_third,
                inputs=("algebraic", "schema", "representation"),
                params={"max_states": max_states},
                cache_kind="second-third",
                span_name="second-third",
            ),
            Check(
                name="agreement",
                title="cross-level observation agreement",
                run=_run_agreement,
                inputs=("algebraic", "schema", "representation"),
                params={"depth": 2},
                cache_kind="agreement",
                span_name="agreement",
                span_attrs={"depth": 2},
                fan_out=True,
            ),
        ]
    )
