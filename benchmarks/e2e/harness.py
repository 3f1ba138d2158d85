"""Process and statistics helpers shared by the verify and serve loads."""

from __future__ import annotations

import math
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for port files, journals and traces, inside the
#: checkout so that journals are fsync'd on its disk; removed after
#: every workload.
WORK_ROOT = HERE / ".build"
#: What runs keep for later runs: the serial report digests of each
#: version of the program (see ``verify_load.reference_path``).
CACHE_ROOT = HERE / ".cache"


class HarnessError(Exception):
    """An operation failed: a timeout, a crash or a dropped connection."""


@dataclass
class Outcome:
    """What one workload measured and how many operations went wrong."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics, measured with tracing off.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics, from the traced repetitions.
    layers: dict[str, float] = field(default_factory=dict)
    #: Checks of the traced run's attribution, one readable line each.
    notes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        """Record ``count`` failed operations and why."""
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def make_workdir(workload: str) -> Path:
    """A fresh scratch directory for one workload."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    """Delete a workload's scratch directory (and its parent if empty)."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


class Child:
    """A subprocess of the program whose stdout is read line by line
    with deadlines; stderr goes to a file in the scratch directory.

    The child leads its own process group, so killing it also kills
    any worker processes it forked.
    """

    def __init__(self, argv: list[str], stderr_path: Path, cpus=None):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.argv = argv
        self._stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        if cpus is not None:
            os.sched_setaffinity(self.proc.pid, cpus)
        self._buffer = b""
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)

    def readline(self, timeout: float) -> str:
        """The next stdout line, or :class:`HarnessError` on a timeout
        or an exit."""
        line = self.wait_line(timeout)
        if line is None:
            raise HarnessError(
                f"{self.name} printed nothing for {timeout:.0f} s"
            )
        return line

    def wait_line(self, timeout: float) -> str | None:
        """The next stdout line, ``None`` if none came within
        ``timeout``, or :class:`HarnessError` if the child exited."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            if not self._selector.select(left):
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                self.proc.poll()
                raise HarnessError(
                    f"{self.name} exited with code "
                    f"{self.proc.returncode}: {self.stderr_tail()}"
                )
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8")

    @property
    def name(self) -> str:
        """A short label for error messages."""
        return " ".join(Path(part).name for part in self.argv[1:4])

    def stderr_tail(self) -> str:
        """The last line the child wrote to stderr."""
        self._stderr.flush()
        lines = self._stderr_path.read_text(errors="replace").splitlines()
        return lines[-1] if lines else "(no stderr)"

    def kill(self) -> None:
        """Kill the child's whole process group."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop(self, timeout: float = 10.0) -> int | None:
        """Wait up to ``timeout`` for the child to exit, kill it if it
        has not (or if the wait is interrupted), and release its pipes.
        Returns the exit code, or ``None`` when it had to be killed."""
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        finally:
            if self.proc.returncode is None:
                self.kill()
                self.proc.wait()
            self._selector.close()
            self.proc.stdout.close()
            self._stderr.close()


def cpu_split() -> tuple[set[int], set[int]] | None:
    """One CPU for the client and another for the server, when this
    process may use two; ``None`` otherwise.  Pinning keeps the two
    from sharing a core in some runs and not in others, which
    otherwise dominates the spread of the serve metrics."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, {cpus[-1]}


def cpu_subset(count: int) -> set[int]:
    """``count`` of the CPUs this process may use (all, if it may use
    fewer).  A verify repetition is pinned to them, so that the kernel
    runs around each application measure the CPUs it ran on."""
    return set(sorted(os.sched_getaffinity(0))[-count:])


def median(values) -> float:
    """The median, or 0.0 for no values."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-th percentile (0.0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])
