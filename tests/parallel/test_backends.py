"""Tests for the pluggable executor backends.

The cross-backend contract under test is the virtual-worker model:
chunk ``i`` runs on virtual worker ``i mod workers`` and every
virtual worker starts from its own unpickled copy of the context —
so results *and* per-chunk counter stats are identical across
``inline``, ``fork`` and ``socket`` for a fixed worker count.
``wall_time`` and ``interned_terms`` are ambient (timing and
process-global intern growth) and excluded from the comparisons.

Chunk functions live at module level: workers resolve them by
``module:qualname`` reference.
"""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.parallel import ParallelExecutor
from repro.parallel.backends import (
    BACKEND_NAMES,
    ExecutorBackendError,
    ForkBackend,
    InlineBackend,
    SocketBackend,
    active_backend,
    bundle_context,
    make_backend,
    parse_address,
    resolve_backend,
    use_backend,
)
from repro.parallel.worker import WorkerServer


class _MemoContext:
    """A context whose counters depend on its own warmth — the shape
    of the rewrite engine's memo cache, reduced to its essence."""

    def __init__(self):
        self.memo = {}

    def compute(self, n):
        if n in self.memo:
            return self.memo[n], 1, 0
        value = n * n
        self.memo[n] = value
        return value, 0, 1


def _memo_chunk(context, ns):
    total = hits = misses = 0
    for n in ns:
        value, hit, miss = context.compute(n)
        total += value
        hits += hit
        misses += miss
    return total, {
        "items": len(ns),
        "cache_hits": hits,
        "cache_misses": misses,
    }


def _square_chunk(context, arg):
    return arg * arg, {"items": 1}


def _map(fn, context, args, workers, backend=None):
    """Run one batch; return its results and per-chunk stats."""
    with ParallelExecutor(
        workers, context=context, backend=backend
    ) as executor:
        results = executor.map(fn, args)
    return results, executor.worker_stats


def _failing_chunk(context, arg):
    raise ValueError(f"chunk {arg} exploded")


#: Released by the tests so an in-process socket worker stops waiting.
_RELEASE = threading.Event()


def _blocking_chunk(context, arg):
    # In a forked worker nothing ever sets the event: only the pool's
    # abandon path ends this chunk early.
    _RELEASE.wait(timeout=60)
    return arg, {"items": 1}


#: Chunk args with deliberate overlap, so memo warmth shows up in the
#: counters: which hits a worker sees depends only on which chunks it
#: was assigned and in what order.
_MEMO_ARGS = [
    [1, 2, 3],
    [2, 3, 4],
    [1, 4, 5],
    [5, 1, 2],
    [3, 3, 6],
    [6, 2, 1],
]


def _counters(stats):
    """The deterministic per-chunk counter records (ambient fields
    excluded)."""
    return [
        {
            "worker": w.worker,
            "items": w.items,
            "cache_hits": w.cache_hits,
            "cache_misses": w.cache_misses,
            "rewrite_steps": w.rewrite_steps,
            "dispatch_hits": w.dispatch_hits,
        }
        for w in stats
    ]


@pytest.fixture(scope="module")
def worker_servers():
    """Two in-thread workers, as a CI topology in miniature."""
    servers = [
        WorkerServer(module_prefixes=("repro.", "tests."))
        for _ in range(2)
    ]
    for server in servers:
        server.serve_in_thread()
    yield servers
    for server in servers:
        server.shutdown()


@pytest.fixture(scope="module")
def worker_processes(tmp_path_factory):
    """Two ``repro worker`` processes, as CI's distributed smoke runs
    them.  A traced verification needs these: tracing is switched per
    process, so a traced run against an in-thread worker would record
    the two sides' spans into each other's tracers."""
    root = tmp_path_factory.mktemp("workers")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    processes = []
    addresses = []
    try:
        for index in range(2):
            port_file = root / f"worker{index}.port"
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--port", "0", "--port-file", str(port_file),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            processes.append(process)
            deadline = time.monotonic() + 30
            while not (port_file.exists() and port_file.read_text().strip()):
                assert process.poll() is None, "worker exited"
                assert time.monotonic() < deadline, "worker did not start"
                time.sleep(0.05)
            addresses.append(f"127.0.0.1:{port_file.read_text().strip()}")
        yield addresses
    finally:
        for process in processes:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


class TestRegistry:
    def test_names(self):
        assert BACKEND_NAMES == ("inline", "fork", "socket")

    def test_make_inline_and_fork(self):
        assert isinstance(make_backend("inline"), InlineBackend)
        assert isinstance(make_backend("fork"), ForkBackend)

    def test_make_socket_needs_addresses(self):
        with pytest.raises(ExecutorBackendError):
            make_backend("socket")
        backend = make_backend("socket", addresses=["localhost:7474"])
        assert isinstance(backend, SocketBackend)
        assert backend.addresses == (("localhost", 7474),)

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutorBackendError):
            make_backend("threads")

    def test_parse_address(self):
        assert parse_address("10.0.0.2:9000") == ("10.0.0.2", 9000)
        with pytest.raises(ExecutorBackendError):
            parse_address("no-port")
        with pytest.raises(ExecutorBackendError):
            parse_address("host:abc")

    def test_default_backend_is_fork(self):
        assert isinstance(active_backend(), ForkBackend)
        assert resolve_backend(None) is active_backend()

    def test_use_backend_scopes_the_active_backend(self):
        inline = make_backend("inline")
        with use_backend(inline):
            assert active_backend() is inline
            assert resolve_backend(None) is inline
        assert isinstance(active_backend(), ForkBackend)

    def test_use_backend_none_is_a_noop_scope(self):
        before = active_backend()
        with use_backend(None):
            assert active_backend() is before

    def test_resolve_explicit_instance_wins(self):
        inline = make_backend("inline")
        with use_backend("fork"):
            assert resolve_backend(inline) is inline
            assert resolve_backend("inline") is inline

    def test_bundle_context_none_for_unpicklable(self):
        assert bundle_context(lambda: None) is None
        assert bundle_context({"n": 1}) is not None


class TestCrossBackendIdentity:
    """Same results and same canonicalized stats on every backend."""

    def _run(self, backend, workers):
        return _map(
            _memo_chunk,
            _MemoContext(),
            _MEMO_ARGS,
            workers=workers,
            backend=backend,
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_inline_fork_socket_agree(self, worker_servers, workers):
        addresses = [server.address for server in worker_servers]
        socket_backend = make_backend("socket", addresses=addresses)
        outcomes = {}
        for name, backend in [
            ("inline", "inline"),
            ("fork", "fork"),
            ("socket", socket_backend),
        ]:
            results, stats = self._run(backend, workers)
            outcomes[name] = (results, _counters(stats))
        assert outcomes["inline"] == outcomes["fork"]
        assert outcomes["inline"] == outcomes["socket"]

    def test_fork_is_run_to_run_deterministic(self):
        first = self._run("fork", 3)
        second = self._run("fork", 3)
        assert first[0] == second[0]
        assert _counters(first[1]) == _counters(second[1])

    def test_worker_counts_differ_only_in_warmth(self):
        # Different W means different chunk subsequences per virtual
        # worker — results stay identical, counters may not.
        results_2, _ = self._run("inline", 2)
        results_4, _ = self._run("inline", 4)
        assert results_2 == results_4

    def test_socket_chunk_error_propagates(self, worker_servers):
        addresses = [server.address for server in worker_servers]
        with pytest.raises(Exception, match="exploded"):
            _map(
                _failing_chunk,
                {"ok": True},
                [1, 2],
                workers=2,
                backend=make_backend("socket", addresses=addresses),
            )

    def test_socket_outcomes_unpickle_in_the_collecting_thread(
        self, worker_servers, monkeypatch
    ):
        # Unpickling re-interns terms into process-wide tables, which
        # must not race with the caller's own work while a batch is
        # in flight: the sender threads only move bytes.
        import pickle
        import threading

        import repro.parallel.backends as backends

        loading_threads = []

        class _Recording:
            HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
            dumps = staticmethod(pickle.dumps)

            @staticmethod
            def loads(data):
                loading_threads.append(threading.current_thread())
                return pickle.loads(data)

        monkeypatch.setattr(backends, "pickle", _Recording)
        addresses = [server.address for server in worker_servers]
        results, _ = _map(
            _square_chunk,
            None,
            [1, 2, 3],
            workers=2,
            backend=make_backend("socket", addresses=addresses),
        )
        assert results == [1, 4, 9]
        assert len(loading_threads) == 3
        assert set(loading_threads) == {threading.current_thread()}

    def test_socket_unpicklable_context_is_an_error(self, worker_servers):
        addresses = [server.address for server in worker_servers]
        backend = make_backend("socket", addresses=addresses)
        with pytest.raises(ExecutorBackendError):
            backend.open_pool(2, lambda: None)

    def test_socket_unreachable_worker_is_an_error(self):
        backend = make_backend("socket", addresses=["127.0.0.1:1"])
        with pytest.raises(ExecutorBackendError):
            backend.open_pool(2, {"n": 1})


def _verify_traced(**kwargs):
    """A traced library verification (as ``verify --stats`` runs it):
    the report and the stats bundle as a dict."""
    from repro import obs
    from repro.applications.library import library_framework

    framework = library_framework()
    with obs.activate(obs.Tracer()):
        result = framework.verify_pipeline(**kwargs)
    return framework.report_of(result), result.combined_stats().to_dict()


def _scrub_ambient(node):
    """Zero the ambient stats fields (timing, process-global intern
    growth) recursively; everything else must be identical."""
    if isinstance(node, dict):
        return {
            key: (0 if key in ("wall_time", "interned_terms")
                  else _scrub_ambient(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_scrub_ambient(item) for item in node]
    return node


class TestSpecLevelIdentity:
    """The acceptance bar: a full framework verification produces the
    same report and the same canonicalized stats on every backend, at
    workers 1 and 4."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_verify_identical_across_backends(
        self, worker_processes, workers
    ):
        addresses = worker_processes
        outcomes = {}
        for name in ("inline", "fork", "socket"):
            backend = make_backend(
                name,
                addresses=addresses if name == "socket" else None,
            )
            report, stats = _verify_traced(
                workers=workers, backend=backend
            )
            outcomes[name] = (str(report), _scrub_ambient(stats))
        assert outcomes["inline"] == outcomes["fork"]
        assert outcomes["inline"] == outcomes["socket"]

    @pytest.mark.parametrize("name", ["inline", "fork", "socket"])
    def test_stats_identical_across_worker_counts(
        self, worker_processes, name
    ):
        addresses = worker_processes
        backend = make_backend(
            name, addresses=addresses if name == "socket" else None
        )
        serial, serial_stats = _verify_traced()
        fanned, fanned_stats = _verify_traced(workers=4, backend=backend)
        assert str(fanned) == str(serial)
        assert (serial_stats["workers"], fanned_stats["workers"]) == (1, 4)
        assert _scrub_ambient(fanned_stats)["parts"] == (
            _scrub_ambient(serial_stats)["parts"]
        )

    def test_verify_workers_4_matches_serial_report(self):
        from repro.applications.library import library_framework

        serial = library_framework().verify(workers=1)
        fanned = library_framework().verify(workers=4, backend="inline")
        assert str(fanned) == str(serial)


class TestForkDegradation:
    """Fork unavailable -> the executor's in-process loop, silently
    and correctly (the historical contract: ``workers=N`` is always
    safe to request)."""

    def test_forced_spawn_failure_degrades_to_in_process(
        self, monkeypatch
    ):
        import repro.parallel.backends as backends

        def refuse(mp_context, conn, bundle):
            raise OSError("process creation forced to fail")

        monkeypatch.setattr(backends, "_spawn_fork_worker", refuse)
        assert ForkBackend().open_pool(4, {"n": 1}) is None
        results, stats = _map(
            _memo_chunk,
            _MemoContext(),
            _MEMO_ARGS,
            workers=4,
            backend="fork",
        )
        serial_results, serial_stats = _map(
            _memo_chunk,
            _MemoContext(),
            _MEMO_ARGS,
            workers=0,
        )
        # Same chunks, same order, same live context: results and
        # per-chunk counters match the serial run exactly.
        assert results == serial_results
        assert _counters(stats) == _counters(serial_stats)

    def test_forced_spawn_failure_verify_matches_serial(
        self, monkeypatch
    ):
        import repro.parallel.backends as backends

        from repro.applications.library import library_framework

        def refuse(mp_context, conn, bundle):
            raise OSError("process creation forced to fail")

        monkeypatch.setattr(backends, "_spawn_fork_worker", refuse)
        degraded, degraded_stats = _verify_traced(workers=4)
        serial = library_framework().verify(workers=1)
        # The report — verdicts, counts, everything rendered — is
        # byte-identical to the serial run.
        assert str(degraded) == str(serial)
        # And the degraded run is deterministic.
        again, again_stats = _verify_traced(workers=4)
        assert str(again) == str(degraded)
        assert _scrub_ambient(again_stats) == _scrub_ambient(degraded_stats)


class TestAbandonedBatch:
    """A pool closed with a batch still in flight (its caller raised
    before collecting) stops waiting for it; a collected batch closes
    politely."""

    def test_fork_close_terminates_in_flight_workers(self):
        pool = ForkBackend().open_pool(2, {"n": 1})
        processes = multiprocessing.active_children()
        assert len(processes) == 2
        pool.submit([(_blocking_chunk, i, i) for i in range(2)])
        started = time.perf_counter()
        pool.close()
        assert time.perf_counter() - started < 4
        assert not any(process.is_alive() for process in processes)
        assert multiprocessing.active_children() == []

    def test_fork_close_after_collect_is_polite(self):
        pool = ForkBackend().open_pool(2, {"n": 1})
        processes = multiprocessing.active_children()
        outcomes = pool.submit(
            [(_square_chunk, i, i) for i in range(3)]
        ).wait()
        assert [result for result, _ in outcomes] == [0, 1, 4]
        pool.close()
        # Exit code 0: the workers left their loop on the stop
        # message instead of being terminated.
        assert [process.exitcode for process in processes] == [0, 0]

    def test_socket_close_drops_in_flight_sessions(self, worker_servers):
        addresses = [server.address for server in worker_servers]
        backend = make_backend("socket", addresses=addresses)
        _RELEASE.clear()
        try:
            pool = backend.open_pool(2, {"n": 1})
            pool.submit([(_blocking_chunk, i, i) for i in range(2)])
            started = time.perf_counter()
            pool.close()
            assert time.perf_counter() - started < 4
        finally:
            _RELEASE.set()
        # The workers outlive the dropped sessions.
        results, _ = _map(
            _square_chunk, None, [1, 2], workers=2, backend=backend
        )
        assert results == [1, 4]


class TestContextRelease:
    def test_exit_drops_the_context_reference(self):
        class Blob:
            pass

        context = Blob()
        ref = weakref.ref(context)
        with ParallelExecutor(2, context=context) as executor:
            results = executor.map(_square_chunk, [1, 2, 3])
        assert results == [1, 4, 9]
        # The executor outlives its with-block (callers read
        # worker_stats off it) but must not pin the context.
        assert executor.context is None
        del context
        gc.collect()
        assert ref() is None
        assert len(executor.worker_stats) == 3

    def test_exit_drops_context_when_no_pool_opened(self):
        class Blob:
            pass

        context = Blob()
        ref = weakref.ref(context)
        with ParallelExecutor(0, context=context) as executor:
            executor.map(_square_chunk, [2])
        del context
        gc.collect()
        assert ref() is None
        assert executor.context is None
