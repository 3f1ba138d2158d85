"""ResultCache round-trips, and its tolerance for damaged entries.

The cache must never be a correctness hazard: anything unusual on
disk — corrupt JSON, a truncated write, a stale format version, a
fingerprint mismatch — is a miss (the check re-runs), never an error.
"""

from __future__ import annotations

import json

from repro.algebraic.completeness import (
    CompletenessReport,
    CoverageReport,
    TerminationReport,
)
from repro.algebraic.observation import ObservabilityReport
from repro.pipeline.cache import (
    CACHE_FORMAT,
    ResultCache,
    deserialize_result,
    serialize_result,
)
from repro.refinement.first_second import (
    StaticConsistencyReport,
    TransitionConsistencyReport,
)
from repro.refinement.reachability import InclusionReport
from repro.refinement.second_third import SecondToThirdReport

FP = "ab" * 32


class TestSerializers:
    CLEAN = {
        "completeness": CompletenessReport(
            termination=TerminationReport(ok=True, structural=True),
            coverage=CoverageReport(ok=True, traces_checked=7),
        ),
        "static": StaticConsistencyReport(ok=True, states_checked=5),
        "inclusion": InclusionReport(
            reachable_subset_valid=True,
            valid_subset_reachable=True,
            valid_count=4,
            reachable_count=4,
            truncated=False,
        ),
        "transitions": TransitionConsistencyReport(
            ok=True, transitions_checked=12
        ),
        "congruence": ObservabilityReport(
            ok=True, classes=3, traces_checked=9
        ),
        "grammar": True,
        "second-third": SecondToThirdReport(
            ok=True, states_checked=8, instances_checked=16
        ),
        "agreement": SecondToThirdReport(
            ok=True, states_checked=2, instances_checked=4
        ),
    }

    def test_clean_reports_round_trip(self):
        for kind, report in self.CLEAN.items():
            payload = serialize_result(kind, report)
            assert payload is not None, kind
            rebuilt = deserialize_result(
                kind, json.loads(json.dumps(payload))
            )
            assert rebuilt == report, kind
            assert str(rebuilt) == str(report), kind

    def test_skipped_induction_round_trips_as_none(self):
        payload = serialize_result("induction", None)
        assert payload == {"skipped": True}
        assert deserialize_result("induction", payload) is None

    def test_witness_bearing_reports_are_not_serializable(self):
        dirty = StaticConsistencyReport(
            ok=False, states_checked=5, violations=(("state", "why"),)
        )
        assert serialize_result("static", dirty) is None


class TestResultCache:
    def _store(self, cache, node="static", fingerprint=FP):
        cache.store(
            node,
            fingerprint,
            "static",
            {"ok": True, "states_checked": 3},
            counters={"items": 3, "static.violations": 0},
            wall_time=0.1,
        )

    def test_store_then_load_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._store(cache)
        entry = cache.load("static", FP)
        assert entry is not None
        assert cache.hits == 1 and cache.stores == 1
        report = deserialize_result(entry["kind"], entry["report"])
        assert report == StaticConsistencyReport(
            ok=True, states_checked=3
        )
        assert ResultCache.entry_counters(entry) == {
            "items": 3,
            "static.violations": 0,
        }
        assert entry["wall_time"] == 0.1

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._store(cache)
        assert cache.load("static", "cd" * 32) is None
        assert cache.misses == 1

    def test_corrupt_json_is_a_miss_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._store(cache)
        (path,) = tmp_path.glob("static-*.json")
        path.write_text("{definitely not json", encoding="utf-8")
        assert cache.load("static", FP) is None

    def test_truncated_entry_is_a_miss_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._store(cache)
        (path,) = tmp_path.glob("static-*.json")
        path.write_text(
            path.read_text(encoding="utf-8")[:40], encoding="utf-8"
        )
        assert cache.load("static", FP) is None

    def test_stale_format_version_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._store(cache)
        (path,) = tmp_path.glob("static-*.json")
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["format"] = CACHE_FORMAT + 1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load("static", FP) is None

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._store(cache)
        (path,) = tmp_path.glob("static-*.json")
        path.write_text('["a", "list"]', encoding="utf-8")
        assert cache.load("static", FP) is None

    def test_unwritable_root_is_swallowed(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cache = ResultCache(blocker / "cache")
        self._store(cache)
        assert cache.stores == 0
        assert cache.load("static", FP) is None
