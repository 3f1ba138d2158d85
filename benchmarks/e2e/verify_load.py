"""The verify workloads: ``repro verify all`` in a fresh interpreter
per repetition.

Each repetition runs ``verify_child.py``, which imports the program,
builds the four applications and calls ``framework.verify`` on each --
the calls ``repro verify all --quiet`` makes.  One operation is the
verification of one application.  Every time is scaled to the
reference host speed with the kernel runs made around and during it
(see ``speed.py`` and ``verify_child.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import (
    CACHE_ROOT,
    HERE,
    SRC,
    Child,
    HarnessError,
    Outcome,
    cpu_subset,
    median,
    percentile,
)
from speed import scaled
from verify_child import NODE_LAYERS

#: ``repro verify all``'s applications, with projects, which takes
#: most of a repetition, last: a repetition cut short at the end of a
#: run has then verified the three short ones.
APPS = ("courses", "library", "bank", "projects")
#: ``--quick`` leaves out projects, which takes most of a repetition.
QUICK_APPS = ("courses", "library", "bank")
#: workload -> (workers, executor backend)
SETTINGS = {"verify-serial": (1, None), "verify-parallel": (2, "fork")}
#: Seconds one repetition may take before it counts as failed.
REP_TIMEOUT = 150.0
#: Interpreters whose spawn-to-ready times give setup_s: the
#: repetitions', then set-up-only ones until there are this many.
SETUP_SAMPLES = 5
#: Layers reported as self time, so that with pipeline.overhead_s they
#: add up to the time spent inside ``framework.verify``.
SELF_LAYERS = (
    "core.build",
    "algebraic.explore",
    *NODE_LAYERS.values(),
    "parallel.pool_open",
    "parallel.wait",
)


@dataclass
class Rep:
    """One repetition's measurements, scaled to the reference speed.
    A repetition cut short at the end of the run has no ``rss_kb`` and
    only the applications it finished."""

    setup_s: float | None = None
    seconds: dict[str, float] = field(default_factory=dict)
    ok: dict[str, bool] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    rss_kb: int | None = None
    trace: dict | None = None

    @property
    def verify_s(self) -> float:
        """Time spent inside ``framework.verify``, over all apps."""
        return sum(self.seconds.values())


def run_rep(
    apps, workers, backend, traced, workdir, cpus, deadline=None
) -> Rep:
    """Run one repetition in a fresh interpreter pinned to ``cpus``.

    With a ``deadline`` (a ``time.monotonic`` value), the repetition
    is cut short when it passes: the child is killed and the
    applications it finished are kept.
    """
    argv = [
        sys.executable,
        str(HERE / "verify_child.py"),
        "--apps",
        ",".join(apps),
        "--workers",
        str(workers),
    ]
    if backend is not None:
        argv += ["--backend", backend]
    if workers > 1:
        # Emptied first: the workers of a repetition cut short may
        # have left kernel runs behind.
        samples = workdir / "samples"
        shutil.rmtree(samples, ignore_errors=True)
        samples.mkdir()
        argv += ["--samples-dir", str(samples)]
    if traced:
        argv.append("--trace")
    child = Child(argv, workdir / "verify.stderr", cpus)
    limit = time.monotonic() + REP_TIMEOUT
    end = limit if deadline is None else min(limit, deadline)
    records = []
    ready_s = 0.0
    try:
        # ready, kernel_s, one line per application, done
        while len(records) < len(apps) + 3:
            line = child.wait_line(max(0.0, end - time.monotonic()))
            if line is None:
                if end < limit:
                    break
                raise HarnessError(
                    f"{child.name} printed nothing for {REP_TIMEOUT:.0f} s"
                )
            if not records:
                ready_s = time.perf_counter() - child.started
            try:
                records.append(json.loads(line))
            except ValueError:
                raise HarnessError(f"unreadable line {line[:80]!r}") from None
    except BaseException:
        child.stop(timeout=0)
        raise
    complete = len(records) == len(apps) + 3
    code = child.stop(timeout=10 if complete else 0)
    if complete and code != 0:
        raise HarnessError(f"verify child exited with code {code}")

    rep = Rep()
    if len(records) < 2:
        return rep
    rep.setup_s = scaled(ready_s, records[1]["kernel_s"])
    for record in records[2 : 2 + len(apps)]:
        app = record["app"]
        rep.seconds[app] = scaled(record["seconds"], record["kernel_s"])
        rep.ok[app] = record["ok"]
        rep.digests[app] = record["digest"]
    if complete:
        rep.rss_kb = records[-1]["rss_kb"]
        rep.trace = records[-1]["trace"]
    return rep


def run_setup(apps, workdir, cpus) -> float:
    """Spawn to ready of an interpreter that only imports the program
    and builds the applications, at the reference speed."""
    argv = [sys.executable, str(HERE / "verify_child.py")]
    argv += ["--apps", ",".join(apps), "--setup-only"]
    child = Child(argv, workdir / "verify.stderr", cpus)
    try:
        child.readline(REP_TIMEOUT)
        setup_s = time.perf_counter() - child.started
        kernel_s = json.loads(child.readline(REP_TIMEOUT))["kernel_s"]
    except BaseException:
        child.stop(timeout=0)
        raise
    code = child.stop()
    if code != 0:
        raise HarnessError(f"verify child exited with code {code}")
    return scaled(setup_s, kernel_s)


def check(rep: Rep, reference: dict, outcome: Outcome) -> None:
    """Count the repetition's applications; every report must be ok
    and its text identical to the serial reference's."""
    for app, ok in rep.ok.items():
        outcome.attempted += 1
        if not ok:
            outcome.fail(1, f"{app}: report is not ok")
        elif rep.digests[app] != reference[app]:
            outcome.fail(1, f"{app}: report text differs from serial")


def reference_path(apps) -> Path:
    """Where the report digests of a serial verification of ``apps``
    are kept between runs.  The name is a digest of the interpreter's
    version, the applications and every file under ``src/``, so any
    change to the program starts a new file."""
    digest = hashlib.sha256(f"{sys.version}\n{','.join(apps)}\n".encode())
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return CACHE_ROOT / f"serial-{digest.hexdigest()[:24]}.json"


def load_reference(path: Path, apps) -> dict | None:
    """The digests at ``path``, or ``None`` if there are none (or not
    one for each application)."""
    try:
        reference = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(reference, dict) or set(reference) != set(apps):
        return None
    return reference


def store_reference(path: Path, reference: dict) -> None:
    """Keep ``reference`` at ``path`` for later runs."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(reference, sort_keys=True))
    os.replace(partial, path)


def run(workload, seed, seconds, trace, quick, workdir) -> Outcome:
    """Measure one verify workload for about ``seconds``.

    The inputs are the shipped applications in the fixed order of
    :data:`APPS`, so ``seed`` has nothing to vary.  (Shuffling the
    order was tried: it moved peak memory by 12% between seeds.)

    The first repetition always finishes; later ones are cut short
    when ``seconds`` have passed.  A traced run alternates traced and
    untraced repetitions and finishes each, so that trace_overhead
    compares like with like.

    Every report is compared with a serial verification's by the same
    program (see :func:`reference_path`).  When no earlier run left
    one, verify-serial takes its first repetition's, and
    verify-parallel first runs a serial repetition, which counts
    against ``seconds``.
    """
    workers, backend = SETTINGS[workload]
    apps = list(QUICK_APPS if quick else APPS)
    cpus = cpu_subset(workers)
    min_reps = 2 if trace else 1
    outcome = Outcome()
    reps: list[Rep] = []
    setups: list[float] = []
    deadline = time.monotonic() + seconds
    try:
        path = reference_path(apps)
        reference = load_reference(path, apps)
        if reference is None and workers > 1:
            serial = run_rep(apps, 1, None, False, workdir, cpu_subset(1))
            reference = serial.digests
            check(serial, reference, outcome)
        while len(reps) < min_reps or time.monotonic() < deadline:
            traced = trace and len(reps) % 2 == 0
            cut_at = deadline if reps and not trace else None
            rep = run_rep(
                apps, workers, backend, traced, workdir, cpus, cut_at
            )
            if reference is None:
                reference = rep.digests
            check(rep, reference, outcome)
            reps.append(rep)
        if outcome.failed == 0 and load_reference(path, apps) != reference:
            store_reference(path, reference)
        plain = [rep for rep in reps if rep.trace is None]
        setups += [rep.setup_s for rep in plain if rep.setup_s is not None]
        while len(setups) < (1 if quick else SETUP_SAMPLES):
            setups.append(run_setup(apps, workdir, cpus))
    except HarnessError as exc:
        outcome.attempted += len(apps)
        outcome.fail(len(apps), str(exc))
        return outcome

    # Each application's median over the repetitions; a run of
    # ``verify all`` is one of each.  p50 is their median, the mean of
    # the middle two; p90 by nearest rank is the slowest application.
    times = [
        median(rep.seconds[app] for rep in plain if app in rep.seconds)
        for app in apps
    ]
    outcome.metrics = {
        "setup_s": median(setups),
        "ops_s": len(apps) / sum(times),
        "p50_ms": 1000 * median(times),
        "p90_ms": 1000 * percentile(times, 90),
        "peak_rss_mb": median(
            rep.rss_kb / 1024 for rep in plain if rep.rss_kb is not None
        ),
    }
    if trace:
        traced = [rep for rep in reps if rep.trace is not None]
        outcome.layers = layers(traced, plain)
        inside = sum(
            outcome.layers[f"framework.verify.{app}_s"] for app in APPS
        )
        share = outcome.layers["pipeline.overhead_s"] / inside
        outcome.notes.append(
            f"attribution pipeline.overhead_s: {share:.2%} of the "
            f"traced framework.verify time (the checks' spans cover "
            f"the rest)"
        )
    return outcome


def layers(traced: list[Rep], plain: list[Rep]) -> dict[str, float]:
    """Per-layer metrics: the median over traced repetitions."""
    rows = []
    for rep in traced:
        stats = rep.trace["stats"]

        def stat(name, column):
            return stats.get(name, [0, 0, 0, 0])[column]

        row = {f"{layer}_s": stat(layer, 2) / 1e9 for layer in SELF_LAYERS}
        row["pipeline.overhead_s"] = sum(
            stat(f"framework.verify.{app}", 2) for app in APPS
        ) / 1e9
        for app in APPS:
            row[f"framework.verify.{app}_s"] = (
                stat(f"framework.verify.{app}", 1) / 1e9
            )
        row["parallel.chunks"] = stat("parallel.map", 3)
        rows.append(row)
    result = {name: median(row[name] for row in rows) for name in rows[0]}
    result["trace_overhead"] = median(
        rep.verify_s for rep in traced
    ) / median(rep.verify_s for rep in plain)
    return result
