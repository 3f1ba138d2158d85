"""One end-to-end benchmark of ``repro verify`` and ``repro serve``.

Runs seeded workloads against the real program -- verify in a fresh
interpreter per repetition, serve as a spawned ``python -m repro serve
bank`` driven over loopback -- checks every output against a
reference, and prints every metric by name and unit.  With ``--trace 1``
the program's layers are wrapped in timers (from this directory, not
from ``src/``) and the per-layer metrics are printed instead.

Usage, from the repository root::

    python3 benchmarks/e2e/run_e2e.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--json OUT]

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 every output
was correct, 1 a correctness failure, 2 unusable arguments or no
program source next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import serve_load
import verify_load
from harness import ROOT, SRC, Outcome, make_workdir, remove_workdir

WORKLOADS = ("verify-serial", "verify-parallel", "serve-read", "serve-write")
#: How long each workload measures unless ``--seconds`` says otherwise.
DEFAULT_SECONDS = 26.0
#: ``--quick`` measures this long (the self-tests use it).
QUICK_SECONDS = 0.5

#: End-to-end metrics (tracing off) and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_s": "ops/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {f"{layer}_s": "s" for layer in verify_load.SELF_LAYERS}
    units["pipeline.overhead_s"] = "s"
    for app in verify_load.APPS:
        units[f"framework.verify.{app}_s"] = "s"
    units["parallel.chunks"] = "count"
    for name in (
        "runtime.startup.runtime_build_s",
        "runtime.startup.guard_build_s",
        "runtime.journal.recover_s",
    ):
        units[name] = "s"
    stages = [f"{layer}_us" for layer in serve_load.STAGES]
    for base in (*stages, *serve_load.DERIVED):
        units[serve_load.COUNT_NAMES.get(base, f"{base}.count")] = "count"
        for stat in ("mean", "p50", "p99"):
            units[f"{base}.{stat}"] = "us"
    units["runtime.service.reject_ratio"] = "ratio"
    units["runtime.journal.bytes_per_update"] = "B"
    units["trace_overhead"] = "ratio"
    return units


PER_LAYER = per_layer_units()


def reported(outcome: Outcome, trace: bool) -> dict[str, tuple[float, str]]:
    """The metrics one run prints: end-to-end ones, or with tracing
    every per-layer one (0 where a layer does not take part)."""
    units = PER_LAYER if trace else END_TO_END
    values = outcome.layers if trace else outcome.metrics
    return {
        name: (values.get(name, 0.0), unit) for name, unit in units.items()
    }


def result_line(attempted, failed, metrics) -> str:
    """The JSON result object."""
    return json.dumps(
        {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def print_human(workload, outcome, metrics, elapsed) -> None:
    """The readable report of one workload."""
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"== {workload}  ({elapsed:.1f} s)")
    print(
        f"  attempted {outcome.attempted}  failed {outcome.failed}  "
        f"error_rate {rate:g}"
    )
    for message in outcome.errors:
        print(f"  error: {message}")
    for note in outcome.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")


def split_name(name: str) -> tuple[str, str]:
    """``runtime.server.handle_us.p50`` -> (``runtime.server``,
    ``handle_us.p50``): the layer is every part before the first one
    with an underscore (or before the last part); ``trace_overhead``
    describes the trace itself."""
    parts = name.split(".")
    cut = next(
        (i for i, part in enumerate(parts) if "_" in part), len(parts) - 1
    )
    return ".".join(parts[:cut]) or "trace", ".".join(parts[cut:])


def commit_id() -> str:
    """The checked-out commit, when the checkout is a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def append_records(path: str, args, results: dict, trace: bool) -> None:
    """Append compact ``{workload, layer, metric, value, unit, commit}``
    records to the JSON file at ``path``."""
    target = Path(path)
    document = (
        json.loads(target.read_text())
        if target.exists()
        else {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "records": [],
        }
    )
    commit = commit_id()
    for workload, outcome in results.items():
        if trace:
            rows = [
                (*split_name(name), value, unit)
                for name, (value, unit) in reported(outcome, True).items()
            ]
        else:
            rows = [
                ("e2e", name, value, unit)
                for name, (value, unit) in reported(outcome, False).items()
            ]
            error_rate = outcome.failed / max(1, outcome.attempted)
            rows.append(("e2e", "error_rate", error_rate, "fraction"))
        document["records"] += [
            {
                "workload": workload,
                "layer": layer,
                "metric": metric,
                "value": value,
                "unit": unit,
                "commit": commit,
                "seed": args.seed,
            }
            for layer, metric, value, unit in rows
        ]
    records = document.pop("records")
    head = json.dumps(document)[:-1]
    body = ",\n".join(json.dumps(record) for record in records)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(f'{head}, "records": [\n{body}\n]}}\n')


def main(argv: list[str] | None = None) -> int:
    """Run the selected workloads; see the module docstring."""
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro verify and repro serve."
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="run this workload (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"measure each workload this long (default {DEFAULT_SECONDS:g})",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: wrap the layers in timers and print per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small counts and no projects check (self-tests)",
    )
    parser.add_argument(
        "--json", metavar="OUT",
        help="append result records to this JSON file",
    )
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    trace = bool(args.trace)
    workloads = list(dict.fromkeys(args.workload or WORKLOADS))
    results: dict[str, Outcome] = {}
    for workload in workloads:
        started = time.perf_counter()
        workdir = make_workdir(workload)
        load = verify_load if workload.startswith("verify") else serve_load
        try:
            outcome = load.run(
                workload, args.seed, seconds, trace, args.quick, workdir
            )
        finally:
            remove_workdir(workdir)
        results[workload] = outcome
        print_human(
            workload,
            outcome,
            reported(outcome, trace),
            time.perf_counter() - started,
        )
    if args.json:
        append_records(args.json, args, results, trace)

    attempted = sum(outcome.attempted for outcome in results.values())
    failed = sum(outcome.failed for outcome in results.values())
    if len(workloads) == 1:
        metrics = reported(results[workloads[0]], trace)
    else:
        metrics = {
            f"{workload}.{name}": value
            for workload, outcome in results.items()
            for name, value in reported(outcome, trace).items()
        }
    print(result_line(attempted, failed, metrics), flush=True)
    return 0 if failed == 0 else 1


def terminate(signum, frame) -> None:
    """Turn SIGTERM into an exit that runs every cleanup block: the
    children lead their own sessions, so nothing else stops them."""
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    sys.exit(main())
