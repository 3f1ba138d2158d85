"""``repro watch``: incremental re-verification on file change.

The watch loop closes the edit-verify feedback cycle the PR-4 result
cache made cheap.  It polls a specification's source files (by
``stat``: mtime and size — no inotify dependency), and on every
change rebuilds the framework, re-fingerprints its inputs, and runs
the pipeline against a :class:`~repro.pipeline.cache.ResultCache`:
only the checks whose declared fingerprint parts the edit actually
invalidated re-run; everything else replays its stored result and
stats.  After each cycle the session streams one outcome line per
check, marked ``ran`` or ``hit``, plus which fingerprint parts
changed — so an equation tweak visibly re-runs the algebraic subgraph
while the schema-only grammar check stays cached.

Two target forms are accepted:

``courses`` (an application name)
    The module under :mod:`repro.applications` is watched and
    reloaded in place; the CLI factory rebuilds the framework from
    the reloaded module.

``path/to/spec.py:factory``
    An arbitrary Python file defining a zero-argument
    :class:`~repro.core.framework.DesignFramework` factory.  Every
    cycle loads the file fresh under a unique module name, so stale
    definitions never leak between cycles.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import time
from pathlib import Path
from typing import Callable, TextIO

from repro.errors import SpecificationError
from repro.obs.switch import SWITCH, activate
from repro.obs.telemetry import Telemetry
from repro.pipeline.cache import ResultCache
from repro.pipeline.fingerprint import framework_parts

__all__ = ["WatchSession", "resolve_target", "watch"]


class WatchTarget:
    """A resolved watch target: the files to poll and a builder that
    produces a fresh :class:`DesignFramework` from their current
    contents."""

    def __init__(
        self,
        label: str,
        paths: tuple[Path, ...],
        build: Callable[[], "object"],
    ):
        self.label = label
        self.paths = paths
        self.build = build


def _resolve_application(name: str) -> WatchTarget:
    from repro.cli import APPLICATIONS

    factory = APPLICATIONS[name]
    module = importlib.import_module(f"repro.applications.{name}")
    module_file = getattr(module, "__file__", None)
    if module_file is None:  # pragma: no cover - frozen interpreters
        raise SpecificationError(
            f"application module {module.__name__!r} has no source "
            f"file to watch"
        )

    def build():
        # Reload in place: the factory's own imports then see the
        # edited definitions.
        importlib.reload(module)
        return factory()

    return WatchTarget(name, (Path(module_file),), build)


def _resolve_spec_file(spec: str) -> WatchTarget:
    path_text, _, factory_name = spec.rpartition(":")
    path = Path(path_text)
    if not path.is_file():
        raise SpecificationError(
            f"watch target {spec!r}: no such file {path_text!r}"
        )
    serial = iter(range(1_000_000_000))

    def build():
        # A unique module name per cycle: definitions from an earlier
        # version of the file must never shadow the edited ones.
        module_name = f"_repro_watch_{path.stem}_{next(serial)}"
        module_spec = importlib.util.spec_from_file_location(
            module_name, path
        )
        if module_spec is None or module_spec.loader is None:
            raise SpecificationError(
                f"cannot load spec file {path_text!r}"
            )
        module = importlib.util.module_from_spec(module_spec)
        # Registered so classes the spec defines stay importable
        # (pickling a context that references them needs the module).
        sys.modules[module_name] = module
        module_spec.loader.exec_module(module)
        factory = getattr(module, factory_name, None)
        if not callable(factory):
            raise SpecificationError(
                f"{path_text!r} has no callable {factory_name!r}"
            )
        return factory()

    return WatchTarget(spec, (path,), build)


def resolve_target(target: str) -> WatchTarget:
    """Resolve a CLI watch target (application name or
    ``file.py:factory``) into a :class:`WatchTarget`."""
    from repro.cli import APPLICATIONS

    if target in APPLICATIONS:
        return _resolve_application(target)
    if ":" in target:
        return _resolve_spec_file(target)
    raise SpecificationError(
        f"unknown watch target {target!r}: expected one of "
        f"{', '.join(APPLICATIONS)} or FILE.py:FACTORY"
    )


def _snapshot(paths: tuple[Path, ...]) -> dict[str, tuple[int, int]]:
    """``{path: (mtime_ns, size)}`` for every watched file that
    currently exists (a vanished file simply drops out and reappears
    as a change when rewritten — editors replace files via rename)."""
    snapshot: dict[str, tuple[int, int]] = {}
    for path in paths:
        try:
            stat = path.stat()
        except OSError:
            continue
        snapshot[str(path)] = (stat.st_mtime_ns, stat.st_size)
    return snapshot


class WatchSession:
    """The verification side of the watch loop.

    Separated from the polling loop so tests (and other harnesses)
    can drive cycles directly: :meth:`poll` answers "did the watched
    files change since the last cycle", :meth:`run_cycle` rebuilds
    the framework and verifies it through the shared cache, printing
    one ``ran``/``hit`` line per check.
    """

    def __init__(
        self,
        target: WatchTarget,
        cache: ResultCache,
        depth: int = 2,
        workers: int = 1,
        out: TextIO | None = None,
    ):
        self.target = target
        self.cache = cache
        self.depth = depth
        self.workers = workers
        self.out = out if out is not None else sys.stdout
        self.cycles = 0
        self.last_ok: bool | None = None
        self._snapshot = _snapshot(target.paths)
        self._parts: dict[str, str] | None = None

    # ------------------------------------------------------------------
    def _emit(self, line: str) -> None:
        print(line, file=self.out, flush=True)

    def poll(self) -> bool:
        """True iff a watched file changed since the last snapshot
        (the snapshot updates only when a cycle runs)."""
        return _snapshot(self.target.paths) != self._snapshot

    def run_cycle(self) -> bool:
        """Rebuild, fingerprint, verify through the cache, and stream
        the per-check outcome lines.  Returns the cycle's verdict
        (build errors count as a failed cycle but keep the session
        alive — the next edit gets its chance)."""
        self._snapshot = _snapshot(self.target.paths)
        self.cycles += 1
        cycle = self.cycles
        started = time.perf_counter()
        try:
            framework = self.target.build()
            parts = framework_parts(framework)
            if self._parts is not None:
                changed = sorted(
                    key
                    for key in set(parts) | set(self._parts)
                    if parts.get(key) != self._parts.get(key)
                )
                self._emit(
                    f"[cycle {cycle}] changed parts: "
                    + (", ".join(changed) if changed else "none")
                )
            else:
                self._emit(f"[cycle {cycle}] initial verification")
            self._parts = parts
            result = framework.verify_pipeline(
                completeness_depth=self.depth,
                congruence_depth=self.depth,
                workers=self.workers,
                cache=self.cache,
            )
        except Exception as exc:
            elapsed = time.perf_counter() - started
            self._emit(
                f"[cycle {cycle}] ERROR {type(exc).__name__}: {exc} "
                f"({elapsed:.2f}s)"
            )
            self.last_ok = False
            return False
        elapsed = time.perf_counter() - started
        ran = hit = 0
        for execution in result.executions:
            status = execution.status
            if status == "hit":
                hit += 1
            elif status == "ran":
                ran += 1
            verdict = "ok" if execution.ok else "FAILED"
            self._emit(
                f"  {execution.name:12s} {status:7s} {verdict}"
            )
        overall = "OK" if result.ok else "FAILED"
        self._emit(
            f"[cycle {cycle}] {overall} — {ran} ran, {hit} cached "
            f"({elapsed:.2f}s)"
        )
        telemetry = SWITCH.telemetry
        if telemetry is not None:
            telemetry.observe(
                "pipeline.cycle",
                int(elapsed * 1e9),
                counter="pipeline.cycles",
                cycle=cycle,
                ran=ran,
                hit=hit,
                ok=result.ok,
            )
        self.last_ok = result.ok
        return result.ok


def watch(
    target: str,
    cache_dir: str | None = None,
    depth: int = 2,
    workers: int = 1,
    interval: float = 0.5,
    max_cycles: int | None = None,
    timeout: float | None = None,
    once: bool = False,
    out: TextIO | None = None,
) -> int:
    """The ``repro watch`` loop; returns the process exit code (the
    last cycle's verdict: ``0`` ok, ``1`` failed)."""
    import tempfile

    resolved = resolve_target(target)
    limit = 1 if once else max_cycles
    private_dir = None
    if cache_dir is None:
        # A private cache: still incremental within the session, no
        # litter left behind.
        private_dir = tempfile.TemporaryDirectory(prefix="repro-watch-")
        cache_root = Path(private_dir.name)
    else:
        cache_root = Path(cache_dir)
    try:
        # Scoped, not global: the watch loop records per-check and
        # per-cycle histograms for its own lifetime, then restores
        # whatever telemetry state the caller had.
        with activate(telemetry=Telemetry()):
            session = WatchSession(
                resolved,
                ResultCache(cache_root),
                depth=depth,
                workers=workers,
                out=out,
            )
            session._emit(
                f"watching {resolved.label} "
                f"({', '.join(str(p) for p in resolved.paths)}; "
                f"cache: {cache_root})"
            )
            session.run_cycle()
            deadline = (
                time.monotonic() + timeout
                if timeout is not None
                else None
            )
            try:
                while (limit is None or session.cycles < limit) and (
                    deadline is None or time.monotonic() < deadline
                ):
                    time.sleep(max(0.01, interval))
                    if session.poll():
                        session.run_cycle()
            except KeyboardInterrupt:
                pass
            return 0 if session.last_ok else 1
    finally:
        if private_dir is not None:
            private_dir.cleanup()
