"""The one process-wide switch for tracing, coverage and telemetry.

:data:`SWITCH` has exactly three slots, each holding the active
instrument of one facility or ``None`` when that facility is off:

``tracer``
    the :class:`~repro.obs.tracer.Tracer` span buffer;
``coverage``
    the :class:`~repro.obs.coverage.CoverageRecorder`;
``telemetry``
    the :class:`~repro.obs.telemetry.Telemetry` registry.

Instrumentation points load one slot into a local and branch on
``is not None``, so a facility that is off costs one attribute load
and one branch per site::

    tracer = SWITCH.tracer
    if tracer is not None:
        tracer.count("rewrite.evaluate.calls")

The library changes the slots only through :func:`activate`.  Forked
workers inherit the switch with the rest of the parent's memory.

This module imports nothing from :mod:`repro`, so every layer can
read the switch without an import cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["SWITCH", "activate"]


class _Switch:
    """The three facility slots (``None`` means off)."""

    __slots__ = ("tracer", "coverage", "telemetry")

    def __init__(self) -> None:
        self.tracer = None
        self.coverage = None
        self.telemetry = None


#: The process-wide switch hot paths poll.
SWITCH = _Switch()


@contextmanager
def activate(
    tracer=None, coverage=None, telemetry=None
) -> Iterator[_Switch]:
    """Install the given instruments for the block and restore all
    three slots on exit, exceptions included.

    A facility passed as ``None`` is left as it is, so
    ``activate(tracer)`` keeps an enclosing coverage recorder and
    telemetry registry, and ``activate(None)`` keeps an active
    tracer.  Yields the switch.
    """
    switch = SWITCH
    saved = (switch.tracer, switch.coverage, switch.telemetry)
    if tracer is not None:
        switch.tracer = tracer
    if coverage is not None:
        switch.coverage = coverage
    if telemetry is not None:
        switch.telemetry = telemetry
    try:
        yield switch
    finally:
        switch.tracer, switch.coverage, switch.telemetry = saved
