"""Self-tests of the end-to-end benchmark harness.

Tier-1 collects only ``tests/``, so run these explicitly::

    python -m pytest benchmarks/e2e

Each test drives the real program with ``--quick`` (small segments, no
projects check); the file takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import run_e2e
import serve_load
import speed
import verify_load

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def run(capsys, *argv):
    """Run the benchmark in-process; returns (exit code, result line)."""
    code = run_e2e.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def leftovers() -> list:
    """Scratch entries, and processes started with a path inside the
    scratch directory (every server gets its port file there)."""
    root = harness.WORK_ROOT
    found = list(root.iterdir()) if root.exists() else []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            text = cmdline.read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if str(root).encode() in text and b"repro" in text:
            found.append(text)
    return found


def stream_bytes(workload: str, seed: int) -> bytes:
    items = serve_load.make_stream(workload, random.Random(seed), 500)
    return b"".join(serve_load.wire_request(item) for item in items)


def test_scaled_times_are_at_the_reference_speed():
    assert speed.scaled(3.0, speed.REFERENCE_S) == 3.0
    assert speed.scaled(3.0, 2 * speed.REFERENCE_S) == 1.5
    # Half the time at the reference speed, half at a third of it: the
    # work done is that of 1.5 + 0.5 seconds at the reference speed.
    assert speed.scaled(
        3.0, speed.REFERENCE_S, 3 * speed.REFERENCE_S
    ) == pytest.approx(2.0)


def test_kernel_seconds_gives_the_cpus_back():
    own = os.sched_getaffinity(0)
    assert speed.kernel_seconds({min(own)}) > 0
    assert speed.kernel_seconds() > 0
    assert os.sched_getaffinity(0) == own


def test_sampler_runs_the_kernel_only_while_active():
    sampler = speed.Sampler()
    sampler.start()
    try:
        deadline = time.perf_counter() + 10 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            speed.kernel()
    finally:
        sampler.stop()
    count = len(sampler.samples)
    assert count >= 3
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    time.sleep(3 * speed.PERIOD_S)
    assert len(sampler.samples) == count
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_forked_children_sample_into_the_directory(tmp_path):
    # In a child interpreter: the fork hook it installs stays for the
    # life of the process.
    script = f"""
import multiprocessing, time
from pathlib import Path
import speed

def busy():
    deadline = time.perf_counter() + 10 * speed.PERIOD_S
    while time.perf_counter() < deadline:
        speed.kernel()

speed.sample_forked_children(Path({str(tmp_path)!r}))
process = multiprocessing.get_context("fork").Process(target=busy)
process.start()
process.join(60)
samples = speed.collect_samples(Path({str(tmp_path)!r}))
assert len(samples) >= 3 and all(s > 0 for s in samples), samples
assert not list(Path({str(tmp_path)!r}).iterdir())
"""
    subprocess.run(
        [sys.executable, "-c", script],
        cwd=harness.HERE,
        check=True,
        timeout=60,
    )


@pytest.mark.parametrize("workload", ["serve-read", "serve-write"])
def test_seed_fixes_the_request_stream(workload):
    assert stream_bytes(workload, 0) == stream_bytes(workload, 0)
    assert stream_bytes(workload, 0) != stream_bytes(workload, 1)


def test_benchmark_json_names_what_the_command_prints():
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        run_e2e.WORKLOADS
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        run_e2e.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        run_e2e.PER_LAYER
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run_e2e.WORKLOADS)
def test_quick_run_is_correct_and_prints_every_metric(
    capsys, workload, trace
):
    code, result = run(
        capsys, "--workload", workload, "--quick", "--trace", str(trace)
    )
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in listed}
    values = {
        name: metric["value"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(value > 0 for value in values.values())
        return
    assert values["trace_overhead"] > 0
    if workload in ("verify-serial", "serve-read"):
        assert values["parallel.chunks"] == 0
        assert values["runtime.journal.flushes"] == 0
    if workload == "verify-parallel":
        assert values["parallel.chunks"] > 0
        assert values["parallel.wait_s"] > 0
    if workload.startswith("verify"):
        assert values["pipeline.overhead_s"] > 0
    if workload == "serve-write":
        assert values["runtime.journal.flushes"] > 0
        assert values["runtime.journal.bytes_per_update"] > 0
    if workload.startswith("serve"):
        assert values["runtime.server.transport_us.mean"] >= 0
        assert values["runtime.server.handle_us.count"] > 0
    assert leftovers() == []


def test_serial_reference_is_kept_between_runs(capsys, monkeypatch, tmp_path):
    real = verify_load.run_rep
    workers = []

    def recorded(apps, workers_, *rest):
        workers.append(workers_)
        return real(apps, workers_, *rest)

    monkeypatch.setattr(verify_load, "run_rep", recorded)
    monkeypatch.setattr(verify_load, "CACHE_ROOT", tmp_path)
    code, _ = run(capsys, "--workload", "verify-parallel", "--quick")
    assert code == 0
    assert workers == [1, 2]
    workers.clear()
    code, _ = run(capsys, "--workload", "verify-parallel", "--quick")
    assert code == 0
    assert workers == [2]

    path = verify_load.reference_path(verify_load.QUICK_APPS)
    stored = json.loads(path.read_text())
    stored["bank"] = "0" * 64
    path.write_text(json.dumps(stored))
    code, result = run(capsys, "--workload", "verify-serial", "--quick")
    assert code == 1
    assert result["failed"] == 1
    assert json.loads(path.read_text()) == stored


def test_corrupted_expected_reply_is_caught(capsys, monkeypatch):
    real = serve_load.expected_replies

    def corrupted(oracle, items):
        expected = real(oracle, items)
        expected[7] = (*expected[7][:-1], "corrupted")
        return expected

    monkeypatch.setattr(serve_load, "expected_replies", corrupted)
    code, result = run(capsys, "--workload", "serve-read", "--quick")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert leftovers() == []


def test_dropped_connection_fails_and_leaves_nothing_behind(
    capsys, monkeypatch
):
    def dropped(self, payloads, window):
        raise ConnectionResetError("connection reset")

    monkeypatch.setattr(serve_load.Connection, "drive", dropped)
    code, result = run(capsys, "--workload", "serve-write", "--quick")
    assert code == 1
    assert result["failed"] >= 1
    assert leftovers() == []


def test_sigterm_stops_every_child(tmp_path):
    proc = subprocess.Popen(
        [
            sys.executable, str(harness.HERE / "run_e2e.py"),
            "--workload", "serve-write", "--quick", "--seconds", "60",
        ],
        cwd=harness.ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not list(harness.WORK_ROOT.glob("*/server*.port")):
            assert time.monotonic() < deadline, "no server started"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode != 0
    assert '"correct"' not in out
    assert leftovers() == []


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(
        harness.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".build"),
    )
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [
            sys.executable,
            "benchmarks/e2e/run_e2e.py",
            "--workload",
            "serve-read",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
