"""CLI surface of the executor backends: ``verify --backend`` /
``--workers-addr`` validation and the ``repro worker`` process."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.cli import main
from repro.parallel.worker import WorkerServer


class TestVerifyBackendFlags:
    def test_socket_without_addresses_is_exit_2(self, capsys):
        code = main(["verify", "courses", "--backend", "socket"])
        assert code == 2
        assert "--workers-addr" in capsys.readouterr().err

    def test_addresses_with_inline_backend_is_exit_2(self, capsys):
        code = main(
            [
                "verify",
                "courses",
                "--backend",
                "inline",
                "--workers-addr",
                "127.0.0.1:7000",
            ]
        )
        assert code == 2
        assert "socket" in capsys.readouterr().err

    def test_unreachable_worker_is_exit_2(self, capsys):
        code = main(
            [
                "verify",
                "courses",
                "--workers",
                "2",
                "--workers-addr",
                "127.0.0.1:1",
            ]
        )
        assert code == 2
        assert "worker" in capsys.readouterr().err.lower()

    def test_addresses_imply_the_socket_backend(self, capsys):
        server = WorkerServer()
        server.serve_in_thread()
        try:
            code = main(
                [
                    "verify",
                    "courses",
                    "--workers",
                    "2",
                    "--workers-addr",
                    server.address,
                ]
            )
        finally:
            server.shutdown()
        captured = capsys.readouterr()
        assert code == 0
        assert "full design verified: True" in captured.out

    def test_inline_backend_verifies(self, capsys):
        code = main(
            ["verify", "courses", "--workers", "2", "--backend", "inline"]
        )
        assert code == 0
        assert "full design verified: True" in capsys.readouterr().out


class TestWorkerCommand:
    def test_worker_process_serves_and_writes_port_file(self, tmp_path):
        port_file = tmp_path / "port"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--port",
                "0",
                "--port-file",
                str(port_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists():
                assert process.poll() is None, process.stderr.read()
                assert time.monotonic() < deadline
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            assert port > 0

            # The ready line is the harness contract.
            line = process.stdout.readline()
            assert f"worker listening on 127.0.0.1:{port}" in line
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        assert process.returncode == 0
