"""The JSON-lines server: protocol handling and the asyncio loop."""

from __future__ import annotations

import asyncio
import json
import queue
import threading

import pytest

from repro.errors import ServingError
from repro.obs.switch import activate
from repro.obs.telemetry import Telemetry
from repro.runtime.client import RuntimeClient, wait_until_ready
from repro.runtime.server import RuntimeServer, serve
from repro.runtime.service import SpecRuntime


@pytest.fixture()
def server(bank_runtime):
    return RuntimeServer(bank_runtime, allow_shutdown=True)


def test_ping(server):
    response, stop = server.handle_request({"op": "ping"})
    assert response == {"ok": True, "pong": True} and not stop


def test_query_and_update(server):
    response, _ = server.handle_request(
        {"op": "update", "update": "open_account", "params": ["a1"]}
    )
    assert response["ok"] and response["accepted"]
    response, _ = server.handle_request(
        {"op": "query", "query": "open", "params": ["a1"]}
    )
    assert response == {"ok": True, "value": True}


def test_rejected_update_is_still_ok(server):
    response, _ = server.handle_request(
        {"op": "update", "update": "deposit", "params": ["a1"]}
    )
    assert response["ok"] is True  # the request was served ...
    assert response["accepted"] is False  # ... and the update refused
    assert response["violation"]["kind"] == "precondition"


def test_state_and_stats(server):
    server.handle_request(
        {"op": "update", "update": "open_account", "params": ["a1"]}
    )
    response, _ = server.handle_request({"op": "state"})
    assert response["seq"] == 1
    assert ["open", ["a1"], True] in response["cells"]
    response, _ = server.handle_request({"op": "stats"})
    assert response["stats"]["accepted"] == 1


def test_errors_are_reported_not_raised(server):
    for request in (
        {"op": "frobnicate"},
        {"op": "query", "query": "no_such_query", "params": []},
        {"op": "update", "update": "deposit", "params": ["zz"]},
        {"op": "update"},
        [1, 2, 3],
    ):
        response, stop = server.handle_request(request)
        assert response["ok"] is False and response["error"]
        assert not stop


def test_shutdown_honored_only_when_allowed(bank_runtime):
    guarded = RuntimeServer(bank_runtime, allow_shutdown=False)
    response, stop = guarded.handle_request({"op": "shutdown"})
    assert not response["ok"] and not stop

    open_server = RuntimeServer(bank_runtime, allow_shutdown=True)
    response, stop = open_server.handle_request({"op": "shutdown"})
    assert response["ok"] and stop


def test_asyncio_round_trip(bank_app):
    """Drive the real event loop: connect, update, query, shutdown."""

    async def scenario():
        runtime = SpecRuntime(bank_app.framework, bank_app.descriptions)
        server = RuntimeServer(runtime, allow_shutdown=True)
        await server.start()
        serving = asyncio.create_task(server.serve_until_stopped())
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )

        async def rpc(payload):
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())

        assert (await rpc({"op": "ping"}))["pong"]
        accepted = await rpc(
            {"op": "update", "update": "open_account", "params": ["a1"]}
        )
        assert accepted["accepted"] and accepted["seq"] == 1
        value = await rpc(
            {"op": "query", "query": "open", "params": ["a1"]}
        )
        assert value["value"] is True
        garbage = await rpc({"op": "update", "update": "withdraw",
                             "params": ["a1"]})
        assert garbage["accepted"] is False
        writer.write(b"this is not json\n")
        await writer.drain()
        bad = json.loads(await reader.readline())
        assert bad == {"ok": False, "error": "invalid JSON"}
        assert (await rpc({"op": "shutdown"}))["bye"]
        await asyncio.wait_for(serving, timeout=10)
        writer.close()

    asyncio.run(scenario())


def test_blocking_client_against_threaded_server(bank_app):
    """The stdlib client talks to serve() running in another thread
    (the same shape the CI serve smoke uses across processes)."""
    runtime = SpecRuntime(bank_app.framework, bank_app.descriptions)
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
    with wait_until_ready("127.0.0.1", port) as client:
        assert client.ping()["pong"]
        assert client.update("open_account", "a1")["accepted"]
        assert client.query("balance", "a1")["value"] == "m0"
        rejected = client.update("deposit", "a2")
        assert rejected["accepted"] is False
        assert rejected["violation"]["kind"] == "precondition"
        stats = client.stats()["stats"]
        assert stats["rejected"] == 1
        # The runtime's own decisions ride on the stats op.
        assert stats["plans"] == {"compiled": 2, "fallback": 0}
        assert stats["guard_tables"]["transition"] == {
            "tabulated": 2,
            "closures": 0,
            "tautologies": 0,
        }
        assert client.shutdown()["bye"]
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_client_reports_closed_connection(bank_app):
    runtime = SpecRuntime(bank_app.framework, bank_app.descriptions)
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
    first = RuntimeClient("127.0.0.1", port)
    first.shutdown()
    thread.join(timeout=10)
    with pytest.raises(ServingError):
        first.request({"op": "ping"})
    first.close()


class TestTelemetryOp:
    def test_refused_when_telemetry_is_disabled(self, server):
        response, stop = server.handle_request({"op": "telemetry"})
        assert response["ok"] is False
        assert "telemetry" in response["error"]
        assert not stop

    def test_snapshot_reflects_served_traffic(self, server):
        with activate(telemetry=Telemetry()):
            server.handle_request(
                {
                    "op": "update",
                    "update": "open_account",
                    "params": ["a1"],
                }
            )
            server.handle_request(
                {"op": "update", "update": "deposit", "params": ["a2"]}
            )
            server.handle_request(
                {"op": "query", "query": "open", "params": ["a1"]}
            )
            response, _ = server.handle_request({"op": "telemetry"})
        assert response["ok"] is True
        assert response["application"] == server.runtime.name
        snapshot = response["telemetry"]
        histograms = snapshot["histograms"]
        assert (
            histograms["runtime.update.open_account.admit"]["count"]
            == 1
        )
        assert (
            histograms["runtime.update.deposit.reject"]["count"] == 1
        )
        assert histograms["runtime.query"]["count"] == 1
        counters = snapshot["counters"]
        assert counters["runtime.updates.accepted"]["total"] == 1
        assert counters["runtime.updates.rejected"]["total"] == 1
        assert counters["runtime.rejected.precondition"]["total"] == 1

    def test_events_limit_is_honored(self, server):
        telemetry = Telemetry()
        with activate(telemetry=telemetry):
            for index in range(5):
                telemetry.event("info", f"op{index}")
            response, _ = server.handle_request(
                {"op": "telemetry", "events": 2}
            )
        assert [e["op"] for e in response["telemetry"]["events"]] == [
            "op3",
            "op4",
        ]


class TestStatsMetrics:
    def test_stats_carries_metrics_and_uptime(self, server):
        server.handle_request(
            {"op": "update", "update": "open_account", "params": ["a1"]}
        )
        server.handle_request(
            {"op": "update", "update": "deposit", "params": ["a2"]}
        )
        response, _ = server.handle_request({"op": "stats"})
        assert response["stats"]["uptime_seconds"] >= 0.0
        metrics = response["metrics"]
        assert metrics["counters"]["runtime.updates.accepted"] == 1
        assert metrics["counters"]["runtime.updates.rejected"] == 1
        assert metrics["gauges"]["runtime.seq"] == 1
        assert metrics["gauges"]["runtime.uptime_seconds"] >= 0.0
