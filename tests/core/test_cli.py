"""Tests for the verification CLI."""

import pytest

from repro.cli import APPLICATIONS, main


class TestList:
    def test_lists_all_applications(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in APPLICATIONS:
            assert name in out


class TestImports:
    def test_cli_loads_no_plan_compiler(self):
        # `repro serve` imports the CLI; the verifier's packed
        # explorer and plan compiler load only when a check runs, so
        # building the trace table leaves the server's modules alone.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import sys, repro.cli\n"
            "for name in ('repro.algebraic.exploration',"
            " 'repro.algebraic.plans', 'repro.algebraic.tracetable'):\n"
            "    print(name, name in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.splitlines() == [
            "repro.algebraic.exploration False",
            "repro.algebraic.plans False",
            "repro.algebraic.tracetable True",
        ]


class TestVerify:
    @pytest.mark.slow
    def test_verify_courses_quiet(self, capsys):
        assert main(["verify", "courses", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[OK]")

    def test_verify_unknown_application(self, capsys):
        assert main(["verify", "atlantis"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_verify_prints_full_report_by_default(self, capsys):
        assert main(["verify", "library"]) == 0
        out = capsys.readouterr().out
        assert "Section 4.4" in out


class TestObservabilityFlags:
    def test_trace_writes_chrome_loadable_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(
            ["verify", "courses", "--quiet", "--trace", str(path)]
        ) == 0
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events, "trace should contain spans"
        assert all(event["ph"] == "X" for event in events)
        names = {event["name"] for event in events}
        # The span tree covers exploration, each 4.4/5.4 check, and
        # the W-grammar recognizer.
        for required in (
            "verify",
            "first-second",
            "explore",
            "completeness",
            "static",
            "inclusion",
            "transitions",
            "congruence",
            "wgrammar.recognize",
            "second-third",
            "agreement",
        ):
            assert required in names, required
        assert str(path) in capsys.readouterr().out

    def test_trace_covers_per_worker_activity(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(
            [
                "verify", "courses", "--quiet",
                "--workers", "3", "--trace", str(path),
            ]
        ) == 0
        events = json.loads(path.read_text())["traceEvents"]
        chunk_tids = {
            event["tid"]
            for event in events
            if event["name"] == "chunk"
        }
        # The four independent checks fan out as one chunk each,
        # pinned to the rows of the two virtual workers that run
        # beside this process.
        assert chunk_tids == {1, 2}

    def test_trace_jsonl_and_summary(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(
            [
                "verify", "library", "--quiet",
                "--trace-jsonl", str(path), "--trace-summary",
            ]
        ) == 0
        lines = path.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert first["name"] == "verify"
        assert first["depth"] == 0
        out = capsys.readouterr().out
        assert "verify" in out and "first-second" in out

    def test_metrics_json_subsumes_the_adhoc_counters(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            [
                "verify", "courses", "--quiet",
                "--metrics-json", str(path),
            ]
        ) == 0
        payload = json.loads(path.read_text())
        counters, gauges = payload["counters"], payload["gauges"]
        for name in (
            "items",
            "cache_hits",
            "cache_misses",
            "dispatch_hits",
            "interned_terms",
            "rewrite.evaluate.calls",
            "wgrammar.steps",
            "check.completeness.items",
            "check.congruence.congruence.by_construction",
        ):
            assert name in counters, name
        for name in (
            "verify.wall_time",
            "check.agreement.wall_time",
            "kernel.intern_table.size",
        ):
            assert name in gauges, name

    def test_metrics_json_to_stdout(self, capsys):
        import json

        assert main(
            ["verify", "library", "--quiet", "--metrics-json", "-"]
        ) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        payload = json.loads(out[start:])
        assert "counters" in payload

    def test_verify_without_flags_leaves_tracing_off(self):
        from repro.obs.switch import SWITCH

        assert main(["verify", "library", "--quiet"]) == 0
        assert SWITCH.tracer is None


class TestKernelStatsFields:
    def test_stats_line_reports_arena(self, capsys):
        assert main(["verify", "library", "--quiet", "--stats"]) == 0
        out = capsys.readouterr().out
        kernel_lines = [
            line for line in out.splitlines() if "[kernel]" in line
        ]
        assert kernel_lines
        for field in ("arena_terms=", "arena_bytes="):
            assert all(field in line for line in kernel_lines), field

    def test_metrics_json_reports_arena(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            [
                "verify", "library", "--quiet",
                "--metrics-json", str(path),
            ]
        ) == 0
        gauges = json.loads(path.read_text())["gauges"]
        for name in ("kernel.arena.terms", "kernel.arena.bytes"):
            assert name in gauges, name


#: The checks of the framework graph, in schedule order.
CHECKS = [
    "explore",
    "traces",
    "completeness",
    "static",
    "inclusion",
    "transitions",
    "induction",
    "congruence",
    "grammar",
    "second-third",
    "agreement",
]

#: The checks a run with more than one worker fans out.
FANNED = ["induction", "grammar"]


def _stats_json(tmp_path, app, *flags):
    import json

    path = tmp_path / "stats.json"
    assert main(
        ["verify", app, "--quiet", "--stats-json", str(path), *flags]
    ) == 0
    return json.loads(path.read_text())


class TestStatsRecords:
    """``--stats``/``--stats-json`` read one record per check off the
    span tree."""

    @pytest.mark.parametrize("app", list(APPLICATIONS))
    def test_one_part_per_check_in_schedule_order(self, app, tmp_path):
        bundle = _stats_json(tmp_path, app)
        parts = bundle["parts"]
        assert [part["label"] for part in parts] == CHECKS
        assert all(part["wall_time"] > 0 for part in parts)
        assert bundle["wall_time"] == pytest.approx(
            sum(part["wall_time"] for part in parts)
        )

    def test_table_readers_and_induction_record_items(self, tmp_path):
        parts = {
            part["label"]: part["states_checked"]
            for part in _stats_json(tmp_path, "courses")["parts"]
        }
        # 273 traces of at most two updates, 6 observation cells each.
        assert parts["traces"] == parts["congruence"] == 273
        assert parts["completeness"] == parts["agreement"] == 273 * 6
        assert parts["induction"] == 25

    def test_stats_lines_cover_every_check(self, capsys):
        assert main(["verify", "courses", "--quiet", "--stats"]) == 0
        labels = [
            line.split("]")[0].strip().lstrip("[")
            for line in capsys.readouterr().out.splitlines()
            if " workers=" in line
        ]
        assert labels == [*CHECKS, "verify"]

    def test_fanned_out_records_do_not_depend_on_workers(
        self, tmp_path
    ):
        def fanned(bundle):
            return {
                part["label"]: {
                    key: value
                    for key, value in part.items()
                    if key != "wall_time"
                }
                for part in bundle["parts"]
                if part["label"] in FANNED
            }

        serial = _stats_json(tmp_path, "library")
        forked = _stats_json(tmp_path, "library", "--workers", "2")
        assert list(fanned(serial)) == FANNED
        assert fanned(forked) == fanned(serial)


class TestWorkerCountReporting:
    """Every check runs its serial loop in one process, so each part
    reports ``workers=1``; the bundle keeps the requested count."""

    def test_stats_lines(self, capsys):
        assert main(
            ["verify", "library", "--quiet", "--stats", "--workers", "2"]
        ) == 0
        lines = [
            line.strip()
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("[")
            and "workers=" in line
        ]
        *parts, bundle = lines
        assert parts and all(" workers=1 " in line for line in parts)
        assert bundle.startswith("[verify] workers=2 ")

    def test_metrics_gauge(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            [
                "verify", "library", "--quiet", "--workers", "2",
                "--metrics-json", str(path),
            ]
        ) == 0
        gauges = json.loads(path.read_text())["gauges"]
        assert gauges["verify.workers"] == 2


class TestSchemaAndAxioms:
    def test_schema_prints_rpr_source(self, capsys):
        assert main(["schema", "courses"]) == 0
        out = capsys.readouterr().out
        assert "proc cancel(c)" in out
        assert "end-schema" in out

    def test_axioms_prints_theory(self, capsys):
        assert main(["axioms", "courses"]) == 0
        out = capsys.readouterr().out
        assert "static constraints" in out
        assert "takes" in out

    def test_schema_unknown(self, capsys):
        assert main(["schema", "atlantis"]) == 2

    def test_axioms_unknown(self, capsys):
        assert main(["axioms", "atlantis"]) == 2


class TestPipelineFlags:
    def test_only_runs_one_check_with_outcome_table(self, capsys):
        assert main(
            ["verify", "courses", "--only", "second-third"]
        ) == 0
        out = capsys.readouterr().out
        assert "second-third" in out
        assert "second-to-third refinement" in out
        # The selection table replaces the full report.
        assert "full design verified" not in out

    def test_only_pulls_in_dependencies(self, capsys):
        assert main(["verify", "courses", "--only", "static"]) == 0
        out = capsys.readouterr().out
        assert "explore" in out
        assert "static" in out
        assert "congruence" not in out

    @pytest.mark.parametrize("check", ["congruence", "agreement"])
    def test_only_table_reader_pulls_in_traces(self, check, capsys):
        assert main(["verify", "courses", "--only", check]) == 0
        names = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.strip() and not line.startswith("[")
        ]
        assert names == ["traces", check]

    def test_skip_accepts_comma_separated_names(self, capsys):
        assert main(
            ["verify", "courses", "--skip", "congruence,agreement"]
        ) == 0
        out = capsys.readouterr().out
        assert "congruence" not in out
        assert "agreement" not in out
        assert "completeness" in out

    def test_unknown_check_name_errors(self, capsys):
        assert main(["verify", "courses", "--only", "typo"]) == 2
        assert "unknown check" in capsys.readouterr().err

    def test_fail_fast_passes_on_a_clean_design(self, capsys):
        assert main(
            ["verify", "courses", "--fail-fast", "--quiet"]
        ) == 0

    def test_cache_dir_warm_run_is_byte_identical(
        self, tmp_path, capsys
    ):
        import re

        cache_dir = str(tmp_path / "cache")
        assert main(
            ["verify", "courses", "--cache-dir", cache_dir]
        ) == 0
        cold = capsys.readouterr().out
        assert main(
            ["verify", "courses", "--cache-dir", cache_dir]
        ) == 0
        warm = capsys.readouterr().out
        strip = lambda text: re.sub(r"\(\d+\.\d+s\)", "", text)
        assert strip(warm) == strip(cold)
        assert list((tmp_path / "cache").glob("*.json"))

    def test_cache_dir_composes_with_selection(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            [
                "verify", "courses",
                "--only", "congruence",
                "--cache-dir", cache_dir,
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "verify", "courses",
                "--only", "congruence",
                "--cache-dir", cache_dir,
            ]
        ) == 0
        assert "[cached]" in capsys.readouterr().out


def _broken_factory():
    """A courses variant whose cancel equations drop the guard —
    every consistency check fails with concrete witnesses."""
    from repro.applications import courses
    from repro.core.framework import DesignFramework
    from tests.refinement.test_first_second import broken_cancel_spec

    return DesignFramework.from_sources(
        information=courses.courses_information(),
        algebraic=broken_cancel_spec(),
        schema_source=courses.courses_schema_source(),
        carriers=courses.courses_information_carriers(),
        name="broken",
    )


class TestCoverageFlags:
    def test_coverage_json_reports_full_cell_coverage(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "coverage.json"
        assert main(
            ["verify", "courses", "--quiet", "--coverage", str(path)]
        ) == 0
        document = json.loads(path.read_text())
        assert document["application"] == "courses"
        assert document["rewrite"]["summary"]["coverage"] == 1.0
        assert document["rewrite"]["summary"]["uncovered_cells"] == []
        assert document["explore"]["states"] > 0
        assert document["wgrammar"]["hyperrules"]
        assert document["checks"]
        assert str(path) in capsys.readouterr().out

    def test_coverage_html_is_self_contained(self, tmp_path):
        path = tmp_path / "coverage.html"
        assert main(
            [
                "verify", "courses", "--quiet",
                "--coverage-html", str(path),
            ]
        ) == 0
        html = path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "100.0% cell coverage" in html
        # Self-contained: no external scripts or stylesheets.
        assert "src=" not in html and "href=" not in html

    def test_coverage_to_stdout(self, capsys):
        import json

        assert main(
            ["verify", "library", "--quiet", "--coverage", "-"]
        ) == 0
        out = capsys.readouterr().out
        document = json.loads(out[out.index("{"):])
        assert document["rewrite"]["summary"]["coverage"] == 1.0

    def test_coverage_byte_identical_across_worker_counts(
        self, tmp_path, capsys
    ):
        one, four = tmp_path / "w1.json", tmp_path / "w4.json"
        assert main(
            ["verify", "courses", "--quiet", "--coverage", str(one)]
        ) == 0
        assert main(
            [
                "verify", "courses", "--quiet",
                "--workers", "4", "--coverage", str(four),
            ]
        ) == 0
        capsys.readouterr()
        assert one.read_bytes() == four.read_bytes()

    def test_coverage_byte_identical_cold_vs_warm(
        self, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        for path in (cold, warm):
            assert main(
                [
                    "verify", "courses", "--quiet",
                    "--cache-dir", cache_dir,
                    "--coverage", str(path),
                ]
            ) == 0
        capsys.readouterr()
        assert cold.read_bytes() == warm.read_bytes()

    def test_coverage_composes_with_selection(self, tmp_path, capsys):
        import json

        path = tmp_path / "coverage.json"
        assert main(
            [
                "verify", "courses",
                "--only", "grammar",
                "--coverage", str(path),
            ]
        ) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        # Only the recognizer ran: grammar usage is present, the
        # rewrite cells and the census are untouched.
        assert document["wgrammar"]["hyperrules"]
        assert document["explore"] is None
        assert document["rewrite"]["summary"]["covered"] == 0

    def test_coverage_all_emits_a_document_list(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "coverage.json"
        assert main(
            ["verify", "all", "--quiet", "--coverage", str(path)]
        ) == 0
        capsys.readouterr()
        documents = json.loads(path.read_text())
        assert isinstance(documents, list)
        assert [d["application"] for d in documents] == list(
            APPLICATIONS
        )

    def test_verify_leaves_coverage_off(self):
        from repro.obs.switch import SWITCH

        assert main(
            ["verify", "library", "--quiet", "--coverage", "-"]
        ) == 0
        assert SWITCH.coverage is None


class TestFailureTraces:
    def test_verify_failure_prints_minimal_trace(
        self, monkeypatch, capsys
    ):
        monkeypatch.setitem(APPLICATIONS, "broken", _broken_factory)
        assert main(["verify", "broken", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "[static] minimal counterexample:" in out
        assert "initiate" in out
        assert "-> cancel(" in out
        assert "more counterexample" in out

    def test_failure_traces_with_coverage_pipeline(
        self, monkeypatch, tmp_path, capsys
    ):
        import json

        monkeypatch.setitem(APPLICATIONS, "broken", _broken_factory)
        path = tmp_path / "coverage.json"
        assert main(
            [
                "verify", "broken", "--quiet",
                "--coverage", str(path),
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "minimal counterexample:" in out
        document = json.loads(path.read_text())
        failed = [
            check
            for check in document["checks"]
            if check["ok"] is False
        ]
        assert failed
        assert any(check.get("witnesses") for check in failed)


class TestOutputPathHandling:
    def test_stats_json_dash_writes_stdout(self, capsys):
        import json

        assert main(
            ["verify", "library", "--quiet", "--stats-json", "-"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["application"] == "library"

    def test_trace_dash_writes_stdout(self, capsys):
        import json

        assert main(
            ["verify", "library", "--quiet", "--trace", "-"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["traceEvents"]

    def test_missing_parent_directories_are_created(self, tmp_path):
        nested = tmp_path / "a" / "b" / "stats.json"
        assert main(
            [
                "verify", "library", "--quiet",
                "--stats-json", str(nested),
            ]
        ) == 0
        assert nested.is_file()

    def test_unwritable_path_fails_cleanly(self, capsys):
        assert main(
            [
                "verify", "library", "--quiet",
                "--stats-json", "/proc/nonexistent/stats.json",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "error: cannot write stats JSON" in err
        assert "Traceback" not in err

    def test_unwritable_coverage_path_fails_cleanly(self, capsys):
        assert main(
            [
                "verify", "library", "--quiet",
                "--coverage", "/proc/nonexistent/coverage.json",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "error: cannot write coverage" in err
        assert "Traceback" not in err


class TestCacheSubcommand:
    def _populate(self, cache_dir):
        assert main(
            [
                "verify", "courses", "--quiet",
                "--cache-dir", cache_dir, "--coverage", "-",
            ]
        ) == 0

    def test_stats_reports_entries(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert "stale" in out

    def test_stats_json(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(
            ["cache", "stats", "--cache-dir", cache_dir, "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["entries"] > 0
        assert summary["stale"] == 0
        assert summary["with_coverage"] == summary["entries"]
        assert summary["by_node"]

    def test_prune_removes_stale_then_all(self, tmp_path, capsys):
        import json

        cache_dir = tmp_path / "cache"
        self._populate(str(cache_dir))
        # Plant one stale (older-format) and one unreadable entry.
        (cache_dir / "old-entry.json").write_text(
            json.dumps({"format": 1, "node": "explore"})
        )
        (cache_dir / "garbage.json").write_text("{not json")
        capsys.readouterr()
        assert main(
            ["cache", "prune", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "pruned 2" in capsys.readouterr().out
        remaining = len(list(cache_dir.glob("*.json")))
        assert remaining > 0
        assert main(
            ["cache", "prune", "--cache-dir", str(cache_dir), "--all"]
        ) == 0
        assert f"pruned {remaining}" in capsys.readouterr().out
        assert not list(cache_dir.glob("*.json"))

    def test_stats_on_missing_directory(self, tmp_path, capsys):
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path / "none")]
        ) == 0
        assert "0" in capsys.readouterr().out
