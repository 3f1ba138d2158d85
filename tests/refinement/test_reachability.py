"""Tests for the V/G comparison (Sections 4.4b-c)."""

import pytest

from repro.refinement.interpretation import Interpretation
from repro.refinement.reachability import (
    compare_valid_reachable,
    enumerate_valid_structures,
    reachable_structures,
    synthesize_trace,
)


@pytest.fixture(scope="module")
def interpretation(courses_info, courses_spec):
    return Interpretation.homonym(courses_info, courses_spec.signature)


# module-scoped copies of the session fixtures for the fixture above
@pytest.fixture(scope="module")
def courses_info():
    from repro.applications.courses import courses_information

    return courses_information()


@pytest.fixture(scope="module")
def courses_spec():
    from repro.applications.courses import courses_algebraic

    return courses_algebraic()


@pytest.fixture(scope="module")
def courses_algebra(courses_spec):
    from repro.algebraic.algebra import TraceAlgebra

    return TraceAlgebra(courses_spec)


@pytest.fixture(scope="module")
def courses_carriers():
    from repro.applications.courses import courses_information_carriers

    return courses_information_carriers()


class TestValidEnumeration:
    def test_valid_count_matches_hand_count(
        self, courses_info, courses_carriers
    ):
        valid = list(
            enumerate_valid_structures(courses_info, courses_carriers)
        )
        # 1 + 4 + 4 + 16 over the four offered-sets.
        assert len(valid) == 25

    def test_all_valid_satisfy_static_constraint(
        self, courses_info, courses_carriers
    ):
        from repro.information.consistency import is_consistent_state

        for structure in enumerate_valid_structures(
            courses_info, courses_carriers
        ):
            assert is_consistent_state(courses_info, structure)


class TestReachableStructures:
    def test_reachable_count(
        self, courses_info, courses_carriers, courses_algebra, interpretation
    ):
        reachable = reachable_structures(
            courses_info, courses_carriers, courses_algebra, interpretation
        )
        assert len(reachable) == 25

    def test_witness_traces_realize_their_structure(
        self, courses_info, courses_carriers, courses_algebra, interpretation
    ):
        reachable = reachable_structures(
            courses_info, courses_carriers, courses_algebra, interpretation
        )
        for structure, trace in list(reachable.items())[:5]:
            again = interpretation.structure_of_trace(
                courses_info, courses_carriers, courses_algebra, trace
            )
            assert again == structure


class TestComparison:
    def test_paper_example_has_g_equal_v(
        self, courses_info, courses_carriers, courses_algebra, interpretation
    ):
        report = compare_valid_reachable(
            courses_info, courses_carriers, courses_algebra, interpretation
        )
        assert report.ok
        assert report.reachable_subset_valid
        assert report.valid_subset_reachable
        assert report.valid_count == report.reachable_count == 25
        assert "yes" in str(report)

    def test_synthesize_trace_for_every_valid_state(
        self, courses_info, courses_carriers, courses_algebra, interpretation
    ):
        graph = courses_algebra.explore()
        for target in enumerate_valid_structures(
            courses_info, courses_carriers
        ):
            trace = synthesize_trace(
                courses_info,
                courses_carriers,
                courses_algebra,
                interpretation,
                target,
                graph,
            )
            assert trace is not None
            realized = interpretation.structure_of_trace(
                courses_info, courses_carriers, courses_algebra, trace
            )
            assert realized == target

    def test_synthesize_trace_unreachable_returns_none(
        self, courses_info, courses_carriers, courses_algebra, interpretation
    ):
        from repro.logic.structures import Structure

        invalid = Structure(
            courses_info.signature,
            courses_carriers,
            relations={"takes": {("s1", "c1")}},
        )
        assert (
            synthesize_trace(
                courses_info,
                courses_carriers,
                courses_algebra,
                interpretation,
                invalid,
            )
            is None
        )

    def test_truncated_exploration_flagged(
        self, courses_info, courses_carriers, courses_algebra, interpretation
    ):
        graph = courses_algebra.explore(max_states=3)
        report = compare_valid_reachable(
            courses_info,
            courses_carriers,
            courses_algebra,
            interpretation,
            graph,
        )
        assert report.truncated
        assert not report.valid_subset_reachable
        assert report.unreachable_valid


#: Prints the failing inclusion report of a courses graph truncated at
#: five states (both witness lists are non-empty there).
_TRUNCATED_REPORT = """
from repro.algebraic.algebra import TraceAlgebra
from repro.applications.courses import (
    courses_algebraic, courses_information, courses_information_carriers,
)
from repro.refinement.interpretation import Interpretation
from repro.refinement.reachability import compare_valid_reachable

info = courses_information()
algebra = TraceAlgebra(courses_algebraic())
print(compare_valid_reachable(
    info,
    courses_information_carriers(),
    algebra,
    Interpretation.homonym(info, algebra.signature),
    algebra.explore(max_states=5),
))
"""


class TestReportTextIsHashSeedFree:
    def test_failing_report_under_two_seeds(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        texts = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            texts.append(
                subprocess.run(
                    [sys.executable, "-c", _TRUNCATED_REPORT],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert "valid but unreachable" in texts[0]
        assert texts[0] == texts[1]

    def test_unreachable_valid_in_enumeration_order(
        self, courses_info, courses_carriers, courses_algebra, interpretation
    ):
        report = compare_valid_reachable(
            courses_info,
            courses_carriers,
            courses_algebra,
            interpretation,
            courses_algebra.explore(max_states=5),
        )
        order = list(enumerate_valid_structures(courses_info, courses_carriers))
        positions = [order.index(s) for s in report.unreachable_valid]
        assert positions == sorted(positions)
