"""Host speed, measured with a fixed piece of interpreter work.

The machines this benchmark runs on are shared, and their CPUs change
speed in phases that last from a fraction of a second to minutes: a
fixed loop and ``repro verify`` slow down together, in CPU time as in
wall time, and a 10-second window of the loop can run 1.5x slower
than the next.  A phase longer than a run moves the whole run, and no
median over the run's units can remove it.

So the benchmark measures the speed of the CPUs a unit of work ran on
while it ran, with :func:`kernel`, and reports the unit's time scaled
to the speed at which the kernel takes :data:`REFERENCE_S`.  The
kernel is allocation- and dict-heavy interpreter work, like the
program's.  A change to the program moves the program's times and not
the kernel's, so it shows in full in the scaled ones.

Kernel runs are combined by their harmonic mean, never their median.
The speed is mostly one of two levels (on the 2-vCPU host this was
written on, the kernel took 1.2 ms or 2.0 ms), and a unit of work
spends some share of its time at each.  Work done is time over kernel
time, summed over the unit, so the harmonic mean of runs made at
equal intervals is the unit's mean speed; a median picks one level
and can move by the whole gap between them.  Over 9-second
``framework.verify`` calls, scaling by the median spread 30% between
repetitions and scaling by the harmonic mean 3%.

Speed is taken two ways:

- :func:`kernel_seconds`, between units, on each CPU in turn -- for
  units of under a second, such as a serve segment;
- :class:`Sampler`, inside a long unit, from a timer signal -- for
  ``framework.verify`` calls, which run for up to 15 seconds, over
  which the speed changes.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from pathlib import Path

#: Kernel time that defines the reference speed: a unit's time is
#: reported as if the kernel had taken this long while it ran.
REFERENCE_S = 0.002
#: Kernel runs per CPU per :func:`kernel_seconds`.
REPEATS = 9
#: Seconds between two kernel runs of a :class:`Sampler`: 2-4% of the
#: sampled process's time goes to the kernel.
PERIOD_S = 0.05


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key, left, right):
        self.key = key
        self.left = left
        self.right = right


def kernel(size: int = 3000) -> int:
    """A fixed amount of interpreter work: short chains of objects and
    tuple keys in a dict whose entries are replaced and then walked.
    It keeps a few hundred objects alive, so that running it inside
    the program leaves the program's peak memory where it was."""
    table = {}
    node = None
    for i in range(size):
        if i % 16 == 0:
            node = None
        node = _Node(i, node, None) if i % 3 else _Node(i, None, node)
        table[(i & 63, i % 5)] = node
    return sum(node.key for node in table.values())


def timed_kernel() -> float:
    """Seconds one kernel run takes.  The garbage collector is off
    meanwhile: the kernel frees what it allocates, so collections it
    set off would only move the program's own collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def kernel_seconds(cpus=None) -> float:
    """The kernel's time on ``cpus`` (default: the CPUs this process
    may run on): the harmonic mean of :data:`REPEATS` runs on each.
    The process moves to each CPU in turn and is given its own CPUs
    back afterwards."""
    own = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(own if cpus is None else cpus):
            os.sched_setaffinity(0, {cpu})
            times += [timed_kernel() for _ in range(REPEATS)]
    finally:
        os.sched_setaffinity(0, own)
    return statistics.harmonic_mean(times)


def scaled(seconds: float, *kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s`` (their
    harmonic mean), at the reference speed."""
    return seconds * REFERENCE_S / statistics.harmonic_mean(kernel_s)


class Sampler:
    """Runs the kernel every :data:`PERIOD_S` from a ``SIGALRM``
    handler while active, in the process that activates it.

    ``samples`` holds each run's seconds and ``spent`` their sum, which
    a caller takes off the time it measured.  A ``sink`` receives
    each run's seconds as well.
    """

    def __init__(self, sink=None):
        self.samples: list[float] = []
        self.spent = 0.0
        self._sink = sink

    def _tick(self, signum, frame) -> None:
        took = timed_kernel()
        self.samples.append(took)
        self.spent += took
        if self._sink is not None:
            self._sink(took)

    def start(self) -> None:
        """Start the timer."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def sample_forked_children(directory: Path) -> None:
    """Have every process this one forks from now on run a
    :class:`Sampler` that appends each run's seconds to its own file
    in ``directory``.  The fork backend's workers do the checks of a
    parallel verification; the process that forked them only waits,
    and a kernel run there would share a CPU with a worker."""

    def after_in_child() -> None:
        handle = open(directory / f"{os.getpid()}.txt", "a", buffering=1)
        Sampler(sink=lambda took: handle.write(f"{took!r}\n")).start()

    os.register_at_fork(after_in_child=after_in_child)


def collect_samples(directory: Path) -> list[float]:
    """Read and delete the files :func:`sample_forked_children` wrote."""
    samples = []
    for path in sorted(directory.glob("*.txt")):
        samples += [float(line) for line in path.read_text().split()]
        path.unlink()
    return samples
