"""Zero-dependency span tracer for the verification engine.

A *span* is one timed region of a verification run — a whole
``verify()``, one Section 4.4 check, one BFS level of state-space
exploration, one worker chunk — with monotonic start/end timestamps
(:func:`time.perf_counter`), arbitrary key/value attributes, nesting,
and named per-span counters.  Spans form a tree; the active span is
the innermost ``with span(...)`` block on the current tracer's stack.

The module is built around one hard constraint: **tracing off must be
free**.  All instrumentation funnels through :func:`span` and
:func:`count`, which load the ``tracer`` slot of
:data:`repro.obs.switch.SWITCH` first; when it is ``None`` they return
a shared no-op handle (or return immediately), so the per-call cost in
the hot paths is one attribute load and one branch.
``benchmarks/bench_obs.py`` gates this at <= 5% on the snapshot
workload.  Tracing is turned on around a block with
``with activate(Tracer()):`` (:func:`repro.obs.switch.activate`).

Worker processes created by :mod:`repro.parallel.executor` inherit the
switch through ``fork``; each chunk activates a fresh tracer and opens
one ``chunk`` span in it, so the worker fills its own buffer whatever
stack the parent had open at fork time.
The serialized buffers travel back through
:class:`~repro.parallel.executor.WorkerStats` and are grafted under the
parent's active span **in chunk submission order** — the order the
executor returns results in — so the exported trace is deterministic
modulo timings.
Timestamps remain comparable across workers because ``perf_counter``
reads ``CLOCK_MONOTONIC``, which forked children share.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterator, Mapping

from repro.obs.switch import SWITCH

__all__ = ["Span", "Tracer", "span", "count", "record"]


class Span:
    """One timed, attributed, counted region of a run.

    Attributes:
        name: the span's (low-cardinality) name, e.g. ``"explore"``.
        attrs: key/value attributes fixed at creation (worker index,
            application name, BFS depth, ...).
        start: :func:`time.perf_counter` at entry.
        end: :func:`time.perf_counter` at exit (``None`` while open).
        children: child spans, in creation order.
        counters: named integer counters accumulated inside the span.
    """

    __slots__ = ("name", "attrs", "start", "end", "children", "counters")

    def __init__(
        self,
        name: str,
        attrs: Mapping[str, Any] | None = None,
        start: float | None = None,
    ):
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.start = perf_counter() if start is None else start
        self.end: float | None = None
        self.children: list[Span] = []
        self.counters: dict[str, int] = {}

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to this span's counter ``name``."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def record(self, counters: Mapping[str, int]) -> None:
        """Fold a counter mapping into this span's counters."""
        for name, value in counters.items():
            self.count(name, value)

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """A JSON/pickle-portable view (used to cross process
        boundaries and by the exporters)."""
        return {
            "name": self.name,
            "attrs": self.attrs,
            "start": self.start,
            "end": self.end,
            "counters": self.counters,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        """Rebuild a span tree serialized by :meth:`to_dict`."""
        built = cls(
            payload["name"], payload.get("attrs"), start=payload["start"]
        )
        built.end = payload.get("end")
        built.counters = dict(payload.get("counters", {}))
        built.children = [
            cls.from_dict(child) for child in payload.get("children", ())
        ]
        return built

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, dur={self.duration:.6f}, "
            f"children={len(self.children)})"
        )


class _SpanHandle:
    """Context manager that opens one span on a tracer's stack."""

    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self) -> Span:
        opened = Span(self._name, self._attrs)
        tracer = self._tracer
        stack = tracer._stack
        if stack:
            stack[-1].children.append(opened)
        else:
            tracer.roots.append(opened)
        stack.append(opened)
        self.span = opened
        return opened

    def __exit__(self, exc_type, exc, tb) -> bool:
        closed = self._tracer._stack.pop()
        closed.end = perf_counter()
        return False


class _NoopSpan:
    """The shared do-nothing span handle returned while tracing is
    off.  Supports the same surface as a real span/handle so call
    sites never branch beyond the slot check."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def count(self, name: str, n: int = 1) -> None:
        """No-op counter increment."""

    def record(self, counters: Mapping[str, int]) -> None:
        """No-op counter fold."""


#: The module-wide no-op handle (one shared instance, never mutated).
NOOP_SPAN = _NoopSpan()


class Tracer:
    """A span buffer: the root spans of one run plus the active stack.

    Tracers are cheap, single-threaded objects; the verification
    engine is process-parallel, not thread-parallel, so no locking is
    needed.  Counters recorded while no span is open accumulate on the
    tracer itself (:attr:`counters`).
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[Span] = []

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """A ``with``-able handle opening a child of the active span
        (or a new root)."""
        return _SpanHandle(self, name, attrs)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the active span's counter ``name`` (or to the
        tracer-level counters when no span is open)."""
        stack = self._stack
        if stack:
            stack[-1].count(name, n)
        else:
            self.counters[name] = self.counters.get(name, 0) + n

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def graft(self, imported: Span) -> None:
        """Attach an externally built span tree (e.g. a worker chunk's
        buffer) under the active span, or as a root."""
        if self._stack:
            self._stack[-1].children.append(imported)
        else:
            self.roots.append(imported)

    def walk(self) -> Iterator[Span]:
        """Yield every span of every root tree, preorder."""
        for root in self.roots:
            yield from root.walk()

    def counter_totals(self) -> dict[str, int]:
        """Every named counter summed over the whole trace (including
        tracer-level counts)."""
        totals = dict(self.counters)
        for recorded in self.walk():
            for name, value in recorded.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals


def span(name: str, **attrs: Any):
    """Open a span on the active tracer; a shared no-op handle when
    tracing is off (the instrumentation entry point)."""
    tracer = SWITCH.tracer
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` on the active span; no-op when
    tracing is off (the hot-counter entry point)."""
    tracer = SWITCH.tracer
    if tracer is not None:
        tracer.count(name, n)


def record(counters: Mapping[str, int]) -> None:
    """Fold a counter mapping into the active span; no-op when tracing
    is off."""
    tracer = SWITCH.tracer
    if tracer is not None:
        for name, value in counters.items():
            tracer.count(name, value)
