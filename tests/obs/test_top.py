"""End-to-end tests for ``repro top``, the ``telemetry`` ops it
polls, and the ``--telemetry-json`` CLI flags."""

import json
import queue
import threading

import pytest

from repro.cli import main
from repro.errors import ServingError
from repro.obs.switch import activate
from repro.obs.telemetry import Telemetry
from repro.obs.top import (
    fetch_worker_snapshot,
    parse_address,
    render_snapshot,
)
from repro.parallel.worker import WorkerServer
from repro.runtime.apps import build_app
from repro.runtime.client import wait_until_ready
from repro.runtime.server import serve
from repro.runtime.service import SpecRuntime


@pytest.fixture()
def live_server():
    """A bank runtime served on loopback with telemetry enabled and a
    little traffic already driven through (one admit, one reject)."""
    app = build_app("bank")
    runtime = SpecRuntime(app.framework, app.descriptions)
    ports: queue.Queue = queue.Queue()
    with activate(telemetry=Telemetry()):
        thread = threading.Thread(
            target=serve,
            args=(runtime,),
            kwargs={
                "allow_shutdown": True,
                "ready": lambda server: ports.put(server.port),
                "install_signal_handlers": False,
            },
            daemon=True,
        )
        thread.start()
        port = ports.get(timeout=15)
        with wait_until_ready("127.0.0.1", port) as client:
            assert client.update("open_account", "a1")["accepted"]
            assert client.update("deposit", "a2")["accepted"] is False
            assert client.query("open", "a1")["value"] is True
            yield port
            client.shutdown()
        thread.join(timeout=10)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)

    def test_missing_port_is_an_error(self):
        with pytest.raises(ServingError, match="HOST:PORT"):
            parse_address("localhost")

    def test_non_numeric_port_is_an_error(self):
        with pytest.raises(ServingError, match="non-numeric"):
            parse_address("localhost:http")


class TestRenderSnapshot:
    def test_empty_snapshot_still_renders_a_heading(self):
        text = render_snapshot({}, address="x:1")
        assert text.startswith("repro top — x:1")

    def test_sections_appear_when_populated(self):
        snapshot = {
            "application": "bank",
            "uptime_seconds": 12.5,
            "slow_ms": 100.0,
            "counters": {
                "runtime.updates.accepted": {
                    "total": 3, "rate_10s": 0.3, "rate_60s": 0.05,
                },
                "runtime.rejected.precondition": {
                    "total": 1, "rate_10s": 0.1, "rate_60s": 0.02,
                },
            },
            "histograms": {
                "runtime.update.deposit.admit": {
                    "count": 3, "p50_ms": 0.5, "p90_ms": 1.0,
                    "p99_ms": 2.0, "max_ms": 2.5,
                },
            },
            "events": [
                {
                    "level": "slow", "op": "journal.fsync",
                    "uptime": 11.0, "duration_ms": 150.0,
                    "fields": {"batch": 4},
                },
            ],
        }
        text = render_snapshot(snapshot, address="h:1")
        assert "(bank)" in text
        assert "runtime.updates.accepted" in text
        assert "runtime.update.deposit.admit" in text
        assert "guard rejections:" in text
        assert "precondition" in text
        assert "recent slow ops:" in text
        assert "journal.fsync" in text
        assert "batch=4" in text


class TestTopAgainstServe:
    def test_once_json_reports_load(self, live_server, capsys):
        code = main(
            ["top", f"127.0.0.1:{live_server}", "--once", "--json"]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["application"] == "bank accounts"
        assert snapshot["uptime_seconds"] >= 0.0
        counters = snapshot["counters"]
        assert counters["runtime.updates.accepted"]["total"] >= 1
        assert counters["runtime.updates.rejected"]["total"] >= 1
        admit = snapshot["histograms"][
            "runtime.update.open_account.admit"
        ]
        assert admit["count"] >= 1
        assert admit["p50_ms"] > 0.0
        assert admit["p99_ms"] >= admit["p50_ms"]

    def test_once_renders_a_screen(self, live_server, capsys):
        code = main(["top", f"127.0.0.1:{live_server}", "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro top — ")
        assert "runtime.updates.accepted" in out
        assert "guard rejections:" in out

    def test_unreachable_server_is_exit_2(self, capsys):
        code = main(["top", "127.0.0.1:1", "--once"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().out

    def test_bad_address_is_exit_2(self, capsys):
        code = main(["top", "nocolon", "--once"])
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_telemetry_off_server_refuses(self, capsys):
        app = build_app("bank")
        runtime = SpecRuntime(app.framework, app.descriptions)
        ports: queue.Queue = queue.Queue()
        thread = threading.Thread(
            target=serve,
            args=(runtime,),
            kwargs={
                "allow_shutdown": True,
                "ready": lambda server: ports.put(server.port),
                "install_signal_handlers": False,
            },
            daemon=True,
        )
        thread.start()
        port = ports.get(timeout=15)
        try:
            code = main(["top", f"127.0.0.1:{port}", "--once"])
            assert code == 2
            assert "telemetry" in capsys.readouterr().out
        finally:
            with wait_until_ready("127.0.0.1", port) as client:
                client.shutdown()
            thread.join(timeout=10)


class TestTopAgainstWorker:
    def test_worker_mode_once_json(self, capsys):
        worker = WorkerServer(
            module_prefixes=("repro.", "tests."),
        )
        worker.serve_in_thread()
        try:
            code = main(
                [
                    "top",
                    f"{worker.host}:{worker.port}",
                    "--worker",
                    "--once",
                    "--json",
                ]
            )
        finally:
            worker.shutdown()
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "uptime_seconds" in snapshot
        # The top poll itself is instrumented by the worker.
        assert snapshot["histograms"]["worker.op.hello"]["count"] >= 1

    def test_fetch_worker_snapshot_unreachable(self):
        with pytest.raises(ServingError, match="cannot reach"):
            fetch_worker_snapshot("127.0.0.1", 1)


class TestTelemetryJsonFlag:
    def test_verify_writes_a_snapshot(self, tmp_path, capsys):
        target = tmp_path / "telemetry.json"
        code = main(
            ["verify", "courses", "--telemetry-json", str(target)]
        )
        assert code == 0
        snapshot = json.loads(target.read_text())
        assert set(snapshot) >= {
            "uptime_seconds", "histograms", "counters", "events",
        }

    def test_reports_are_byte_identical_across_backends(
        self, tmp_path, capsys
    ):
        """The acceptance bar: telemetry on, inline workers=1 versus
        fork workers=4 — the report (wall-clock timings scrubbed, the
        only legitimately varying part) and the coverage document
        match byte for byte."""
        import re

        def scrub(report):
            report = re.sub(r"\(\d+\.\ds\)", "(T)", report)
            # The artifact-path echo lines name per-backend files.
            return "\n".join(
                line
                for line in report.splitlines()
                if " written to " not in line
            )

        outputs = {}
        for name, extra in [
            ("inline", ["--workers", "1", "--backend", "inline"]),
            ("fork", ["--workers", "4", "--backend", "fork"]),
        ]:
            coverage = tmp_path / f"coverage-{name}.json"
            telemetry = tmp_path / f"telemetry-{name}.json"
            code = main(
                [
                    "verify",
                    "courses",
                    "--coverage",
                    str(coverage),
                    "--telemetry-json",
                    str(telemetry),
                    *extra,
                ]
            )
            assert code == 0
            outputs[name] = (
                scrub(capsys.readouterr().out),
                coverage.read_bytes(),
            )
        assert outputs["inline"][0] == outputs["fork"][0]
        assert outputs["inline"][1] == outputs["fork"][1]
