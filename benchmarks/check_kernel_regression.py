"""Guard the term-kernel benchmarks against performance regressions.

Usage::

    python benchmarks/check_kernel_regression.py BENCH_kernel.json \
        [--baseline benchmarks/kernel_baseline.json] [--factor 2.0] \
        [--explore-speedup 10.0]

Compares a pytest-benchmark JSON emission against the committed
baseline and exits non-zero if any benchmark's mean is more than
``factor`` times its baseline mean.  The factor leaves headroom for
machine-speed differences between the baseline host and CI runners;
what it catches is the kernel losing an asymptotic property (interning
degrading to construction, memo probes degrading to deep hashing),
which shows up as far more than 2x.

``--explore-speedup`` additionally gates the packed explorer's win
*within the run itself*: the object-mode exploration mean must be at
least ``FACTOR`` times the packed mode's (the ``[arena]`` case's)
mean.  Because both sides are measured on the same host in the same
session, the ratio is immune to machine-speed differences and can be
gated tightly.

Benchmarks present in only one of the two files are reported but do
not fail the check, so adding a benchmark does not require
regenerating the baseline in the same commit.

Exit codes: 0 ok, 1 regression, 2 unusable input (missing or
stale-schema baseline/run file).

Regenerate the baseline (after an intentional perf change) with::

    PYTHONPATH=src python -m pytest benchmarks/bench_terms.py \
        benchmarks/bench_rewriting.py -q --benchmark-json=run.json
    python benchmarks/check_kernel_regression.py run.json --write-baseline
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from _gate import (
    compare_to_baseline,
    fail_input,
    load_means,
    write_baseline,
)

DEFAULT_BASELINE = Path(__file__).parent / "kernel_baseline.json"

REGENERATE_HINT = (
    "Regenerate it with:\n"
    "  PYTHONPATH=src python -m pytest benchmarks/bench_terms.py"
    " benchmarks/bench_rewriting.py -q --benchmark-json=run.json\n"
    "  python benchmarks/check_kernel_regression.py run.json"
    " --write-baseline"
)

EXPLORE_OBJECT = "bench_exploration_packed[object]"
EXPLORE_ARENA = "bench_exploration_packed[arena]"


def _check_explore_speedup(
    run_means: dict[str, float], factor: float
) -> bool:
    """Within-run gate: object-mode exploration must be at least
    ``factor`` times slower than arena mode.  Returns True on pass."""
    missing = [
        name
        for name in (EXPLORE_OBJECT, EXPLORE_ARENA)
        if name not in run_means
    ]
    if missing:
        fail_input(
            "error: --explore-speedup needs both exploration benchmarks "
            f"in the run file; missing: {', '.join(missing)}\n"
            "Run benchmarks/bench_terms.py (both modes are collected "
            "by the one parametrized benchmark)."
        )
    obj, arena = run_means[EXPLORE_OBJECT], run_means[EXPLORE_ARENA]
    ratio = obj / arena if arena else float("inf")
    verdict = "ok" if ratio >= factor else "FAIL"
    print(
        f"  [{verdict:>4}] exploration speedup: object "
        f"{obj * 1e3:.2f}ms / arena {arena * 1e3:.2f}ms = {ratio:.1f}x "
        f"(required >= {factor:g}x)"
    )
    if ratio < factor:
        print(
            f"packed exploration speedup {ratio:.1f}x is below the "
            f"required {factor:g}x",
            file=sys.stderr,
        )
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("run", help="pytest-benchmark JSON of the run")
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="baseline file (default: benchmarks/kernel_baseline.json)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when run mean > factor * baseline mean (default 2.0)",
    )
    parser.add_argument(
        "--explore-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help=(
            "fail unless object-mode exploration is at least FACTOR "
            "times slower than arena mode within this run"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the run's means to the baseline file and exit",
    )
    args = parser.parse_args(argv)

    run_means = load_means(args.run, "run")
    if not run_means:
        print("no benchmarks in the run file", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(
            args.baseline,
            note=(
                "mean seconds per kernel benchmark; regenerate with "
                "check_kernel_regression.py --write-baseline"
            ),
            key="means",
            entries={
                name: round(mean, 9)
                for name, mean in run_means.items()
            },
        )
        print(f"wrote {len(run_means)} baseline means to {args.baseline}")
        return 0

    base_means = load_means(args.baseline, "baseline", REGENERATE_HINT)

    failures = compare_to_baseline(
        run_means, base_means, args.factor, unit="us"
    )

    speedup_ok = True
    if args.explore_speedup is not None:
        speedup_ok = _check_explore_speedup(
            run_means, args.explore_speedup
        )

    if failures:
        print(
            f"{len(failures)} benchmark(s) regressed beyond "
            f"{args.factor}x:",
            file=sys.stderr,
        )
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    if not speedup_ok:
        return 1
    print(f"all {len(run_means)} benchmarks within {args.factor}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
