"""Timing wrappers installed from outside the program.

A :class:`LayerTrace` replaces public functions and methods of the
program with wrappers that record, per layer name, the number of calls,
the busy time and the self time (busy time minus the time of wrapped
calls made inside it).  Every call is counted; spans -- ``(name, start,
end, parent, request)`` -- are kept only while :attr:`LayerTrace.sampling`
is true, so a long serving run keeps bounded memory.

Nothing under ``src/`` changes: the wrappers are installed with
``setattr`` on the module or class that owns each name, before the code
that calls it runs.
"""

from __future__ import annotations

import functools
import time

__all__ = ["LayerTrace"]


class LayerTrace:
    """Call counts, busy time, self time and sampled spans per layer."""

    def __init__(self) -> None:
        #: ``name -> [calls, busy_ns, self_ns, items]``; ``items``
        #: counts work units where a wrapper declares them.
        self.stats: dict[str, list[int]] = {}
        #: Sampled spans as ``(name, start_ns, end_ns, parent, request)``;
        #: ``parent`` is the index of the enclosing sampled span or -1.
        self.spans: list = []
        #: Whether calls starting now keep a span.
        self.sampling = True
        #: The identifier spans of one request share.
        self.request = 0
        # One frame per active wrapped call: [child_ns, span_index].
        self._stack: list[list[int]] = [[0, -1]]

    def wrap(self, name: str, fn, items=None):
        """A wrapper of ``fn`` recording under ``name``.

        ``items(args)``, when given, returns the number of work units
        one call carries (added to the layer's ``items`` total).
        """
        stat = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        trace = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0, -1]
            if trace.sampling:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent = stack[-1]
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if items is not None:
                    stat[3] += items(args)
                if frame[1] >= 0:
                    spans[frame[1]] = (
                        name, start, end, parent[1], trace.request
                    )

        return timed

    def patch(self, owner, attr: str, name: str, items=None) -> None:
        """Replace ``owner.attr`` (a module's or a class's own, never an
        inherited one) by its timed wrapper."""
        setattr(owner, attr, self.wrap(name, vars(owner)[attr], items))

    def to_dict(self) -> dict:
        """The JSON form ``run_e2e.py`` reads back.  A span still
        open when this is called is ``None``, which keeps every parent
        index valid."""
        return {"stats": self.stats, "spans": self.spans}
