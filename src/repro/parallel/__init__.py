"""Parallel verification engine.

The paper's verification plan is a list of separate proof
obligations: sufficient completeness, static and transition
consistency and update-repertoire completeness (Section 4.4), the
inductive proof of (b), level-2 congruence, and the Section 5.4
refinement.  The unit of parallel work is one whole obligation — one
check of the :mod:`repro.pipeline` graph.  Every check runs its own
serial loop; ``--workers N`` runs checks in ``N`` processes at once:
the calling process runs the graph-bound checks (explore, traces,
completeness, static, inclusion, transitions, congruence,
second-third, agreement) inline while up to ``N - 1`` virtual workers
run the two independent ones (induction, grammar), one check per
chunk.

This package provides the pieces that fan-out uses:

* :mod:`repro.parallel.executor` — the chunk executor with the
  deterministic submission-order merge (and a transparent in-process
  fallback), and the :class:`WorkerStats` envelope each chunk's
  counters, spans and coverage travel back in;
* :mod:`repro.parallel.backends` — where chunks run: ``inline``
  (in-process virtual workers), ``fork`` (one forked process per
  virtual worker, the default), or ``socket`` (remote ``repro
  worker`` processes over TCP);
* :mod:`repro.parallel.wire` — the length-prefixed JSON frame
  protocol the socket backend and the worker speak;
* :mod:`repro.parallel.worker` — the ``repro worker`` TCP server.

The contract: reports, coverage and per-check stats (timing and
intern-table growth aside) are identical for every worker count on
every backend — a check computes the same result whichever process
runs it.
"""

from repro.parallel.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    ExecutorBackendError,
    ForkBackend,
    InlineBackend,
    SocketBackend,
    make_backend,
    resolve_backend,
    use_backend,
)
from repro.parallel.executor import ParallelExecutor, WorkerStats

__all__ = [
    "ParallelExecutor",
    "WorkerStats",
    "ExecutorBackend",
    "ExecutorBackendError",
    "InlineBackend",
    "ForkBackend",
    "SocketBackend",
    "BACKEND_NAMES",
    "make_backend",
    "resolve_backend",
    "use_backend",
]
