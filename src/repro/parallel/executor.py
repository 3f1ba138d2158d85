"""Chunk executor with a deterministic merge order over pluggable
backends.

The executor runs a *chunk function* over a list of chunk arguments
and returns the per-chunk results **in argument order**.  Its
production caller is the pipeline scheduler, which sends each
independent check of a verification run as one chunk
(:func:`repro.pipeline.scheduler._fanout_chunk`).

*Where* the chunks run is delegated to an
:class:`~repro.parallel.backends.ExecutorBackend` — in-process
(``inline``), forked worker processes (``fork``, the default), or
remote ``repro worker`` processes over TCP (``socket``).  All
backends follow the same virtual-worker model: chunk ``i`` goes to
virtual worker ``i mod workers`` and each virtual worker starts from
its own unpickled copy of the shared *context* (specs, algebras),
so both results **and** the per-chunk counter stats
are identical across backends for a given worker count.  See
:mod:`repro.parallel.backends` for the model and its two ambient
exceptions (``wall_time``, ``interned_terms``).

Where no pool can be opened (``fork`` unavailable on the platform,
process creation failed, or an unpicklable context under ``inline``)
the executor degrades to an in-process loop over the same chunks
against the live context — identical results, no parallelism — so
``workers=N`` is always safe to request.

Chunk functions must be module-level (they are sent to workers by
reference) and have the signature::

    def _my_chunk(context, arg) -> tuple[result, dict]:
        ...
        return result, {"items": n, "cache_hits": h,
                        "cache_misses": m, "rewrite_steps": r}

The counter dict may omit keys; missing counters default to zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs.coverage import CoverageRecorder
from repro.obs.switch import SWITCH, activate
from repro.obs.tracer import Span, Tracer, span
from repro.parallel.backends import ExecutorBackend, resolve_backend

__all__ = ["ParallelExecutor", "PendingMap", "WorkerStats"]


@dataclass(frozen=True)
class WorkerStats:
    """What one chunk sends back beside its result.

    Attributes:
        worker: chunk index (0-based, in submission order).
        items, cache_hits, cache_misses, rewrite_steps, dispatch_hits,
            interned_terms: the counters the chunk function returned
            (zero when it omitted them).
        wall_time: seconds the chunk took, measured where it ran.
        spans: serialized :class:`repro.obs.tracer.Span` trees the
            chunk recorded (empty unless tracing was enabled); the
            executor grafts them back into the parent's trace in
            chunk submission order.
        coverage: the chunk's serialized
            :class:`repro.obs.coverage.CoverageRecorder` payload
            (``None`` unless coverage recording was enabled); the
            executor folds it into the parent's recorder.
    """

    worker: int
    items: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rewrite_steps: int = 0
    dispatch_hits: int = 0
    interned_terms: int = 0
    wall_time: float = 0.0
    spans: tuple = ()
    coverage: dict | None = None

    def to_dict(self) -> dict:
        """The chunk's counters and wall time, JSON-serializable (span
        buffers and coverage payloads travel separately)."""
        return {
            "worker": self.worker,
            "items": self.items,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "rewrite_steps": self.rewrite_steps,
            "dispatch_hits": self.dispatch_hits,
            "interned_terms": self.interned_terms,
            "wall_time": self.wall_time,
        }

#: The shared context slot worker processes inherit through fork.
_CONTEXT: Any = None

#: Sentinel: "read the module slot" (the fork/in-process paths).
_INHERITED = object()


def _run_chunk(payload, context: Any = _INHERITED):
    """Worker-side trampoline: time the chunk and shape its stats.

    ``context`` defaults to the module slot (inherited through fork or
    set by the executor's context manager); backends running several
    virtual workers in one process pass each worker's own context
    explicitly instead.

    When tracing is on (the switch is inherited through fork, or
    activated per request by the socket worker) the chunk runs under
    its own tracer, in a ``chunk`` span carrying the chunk index as
    the ``worker`` attribute; the buffer travels back serialized on
    :attr:`WorkerStats.spans` and the chunk's counters are recorded on
    the chunk span, so per-worker rewrite activity is visible in the
    exported trace.  Likewise under coverage the chunk records into
    its own recorder, shipped unmerged on :attr:`WorkerStats.coverage`.
    """
    fn, index, arg = payload
    chunk_context = _CONTEXT if context is _INHERITED else context
    started = time.perf_counter()
    # Fresh buffers: the parent merges what they hold exactly once, in
    # _absorb — merging here too would double-count under the
    # in-process fallback, where this trampoline runs in the parent.
    tracer = Tracer() if SWITCH.tracer is not None else None
    coverage = CoverageRecorder() if SWITCH.coverage is not None else None
    with activate(tracer, coverage), span("chunk", worker=index):
        result, counters = fn(chunk_context, arg)
    spans: tuple = ()
    if tracer is not None:
        for root in tracer.roots:
            root.record(
                {k: v for k, v in counters.items() if isinstance(v, int)}
            )
        spans = tuple(root.to_dict() for root in tracer.roots)
    elapsed = time.perf_counter() - started
    stats = WorkerStats(
        worker=index,
        items=counters.get("items", 0),
        cache_hits=counters.get("cache_hits", 0),
        cache_misses=counters.get("cache_misses", 0),
        rewrite_steps=counters.get("rewrite_steps", 0),
        dispatch_hits=counters.get("dispatch_hits", 0),
        interned_terms=counters.get("interned_terms", 0),
        wall_time=elapsed,
        spans=spans,
        coverage=None if coverage is None else coverage.to_payload(),
    )
    return result, stats


class ParallelExecutor:
    """A pool of virtual workers sharing one context.

    Args:
        workers: the number of virtual workers the chunks run on,
            beside the calling process; ``0`` (the default) runs them
            in the calling process, with no pool.
        context: the shared read-only context chunk functions receive
            as their first argument.  Backends ship it to workers as a
            pickle bundle (one cold copy per virtual worker); the fork
            backend falls back to copy-on-write inheritance when it
            does not pickle.
        backend: an :class:`~repro.parallel.backends.ExecutorBackend`,
            a backend name, or ``None`` for the scope-active backend
            (see :func:`~repro.parallel.backends.use_backend`; the
            default is ``fork``).

    Use as a context manager::

        with ParallelExecutor(workers, context=context) as executor:
            results = executor.map(_my_chunk, chunk_args)
        stats = executor.worker_stats

    :meth:`map` may be called repeatedly; the pool and the workers'
    warm caches persist across calls.  On exit the executor drops its
    context reference, so it never pins a large spec in memory for
    its own lifetime.
    """

    def __init__(
        self,
        workers: int = 0,
        context: Any = None,
        backend: "ExecutorBackend | str | None" = None,
    ):
        self.workers = max(0, int(workers))
        self.context = context
        self.backend = backend
        #: Per-chunk :class:`WorkerStats`, in submission order across
        #: all :meth:`map` calls.
        self.worker_stats: list[WorkerStats] = []
        self._pool = None
        self._saved_context: Any = None
        self._entered = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelExecutor":
        global _CONTEXT
        self._saved_context = _CONTEXT
        _CONTEXT = self.context
        self._entered = True
        if self.workers:
            # The backend resolves at entry so a surrounding
            # use_backend() scope (the scheduler's) takes effect.
            self._pool = resolve_backend(self.backend).open_pool(
                self.workers, self.context
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _CONTEXT
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        _CONTEXT = self._saved_context
        self._saved_context = None
        # Drop the context reference: the executor object routinely
        # outlives its with-block (callers read worker_stats off it),
        # and holding on would pin large specs in parent memory after
        # the run.
        self.context = None
        self._entered = False

    # ------------------------------------------------------------------
    def map(self, fn: Callable, args: Sequence[Any]) -> list[Any]:
        """Run ``fn(context, arg)`` for every chunk argument.

        Returns the chunk results in ``args`` order (the
        deterministic merge order) and appends one
        :class:`WorkerStats` per chunk to :attr:`worker_stats`.
        """
        return self.map_async(fn, args).collect()

    def map_async(self, fn: Callable, args: Sequence[Any]) -> "PendingMap":
        """Submit chunks without blocking on their completion.

        The pipeline scheduler uses this to overlap a batch of
        independent serial checks with work the parent keeps running
        inline; call :meth:`PendingMap.collect` to block, absorb the
        per-chunk stats, and graft worker span buffers (still in
        submission order) under the *then-active* span.  With no pool
        (``workers=0`` or no backend pool available) the chunks run
        in-process at collect time instead — identical results, no
        overlap.
        """
        if not self._entered:
            raise RuntimeError(
                "ParallelExecutor.map used outside its context manager"
            )
        payloads = [(fn, index, arg) for index, arg in enumerate(args)]
        handle = None
        if self._pool is not None:
            handle = self._pool.submit(payloads)
        return PendingMap(self, payloads, handle)

    def _absorb(self, outcomes: list[tuple]) -> list[Any]:
        """Record chunk stats and graft span buffers, in chunk
        submission order (the deterministic-merge invariant)."""
        results = []
        tracer = SWITCH.tracer
        graft = None if tracer is None else tracer.graft
        recorder = SWITCH.coverage
        for result, stats in outcomes:
            self.worker_stats.append(stats)
            results.append(result)
            if graft is not None:
                # Outcomes arrive in submission (chunk) order, so the
                # grafted trace is deterministic for any worker count.
                for span_dict in stats.spans:
                    graft(Span.from_dict(span_dict))
            if recorder is not None and stats.coverage is not None:
                recorder.merge_payload(stats.coverage)
        return results


class PendingMap:
    """A submitted-but-not-collected :meth:`ParallelExecutor.map_async`
    batch.  :meth:`collect` must be called exactly once, before the
    executor's context manager exits; an executor that exits first
    (its caller raised) abandons the batch, and the pool stops its
    workers instead of waiting for them."""

    __slots__ = ("_executor", "_payloads", "_handle", "_collected")

    def __init__(self, executor, payloads, handle):
        self._executor = executor
        self._payloads = payloads
        self._handle = handle
        self._collected = False

    def collect(self) -> list[Any]:
        """Block until every chunk finished; return results in
        submission order and absorb their stats/spans."""
        if self._collected:
            raise RuntimeError("PendingMap.collect called twice")
        self._collected = True
        if self._handle is not None:
            outcomes = self._handle.wait()
        else:
            outcomes = [
                _run_chunk(payload) for payload in self._payloads
            ]
        return self._executor._absorb(outcomes)
