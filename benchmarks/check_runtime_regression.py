"""Gate the serving-runtime benchmarks: absolute floor + regression.

Usage::

    python benchmarks/check_runtime_regression.py BENCH_runtime.json \
        [--baseline benchmarks/runtime_baseline.json] [--factor 2.0] \
        [--min-throughput 100000]

Two checks over a pytest-benchmark JSON emission of
``bench_runtime.py``:

1. **Absolute floor** — ``bench_bank_guarded_updates`` must sustain
   at least ``--min-throughput`` updates per second (throughput is
   ``extra_info.batch / mean``).  The repo-acceptance number is 100k
   guarded updates/s on the bank; CI passes a lower floor to leave
   headroom for slow shared runners; ``docs/runtime.md`` records
   the reference-machine number.
2. **Relative regression** — every benchmark's mean must stay within
   ``--factor`` of the committed baseline, exactly like the kernel
   gate: what this catches is the runtime losing its O(delta)
   admission property, which shows up as far more than 2x.

Benchmarks present in only one of the two files are reported but do
not fail, so adding a benchmark does not require regenerating the
baseline in the same commit.

Exit codes: 0 ok, 1 gate failure, 2 unusable input.

Regenerate the baseline (after an intentional perf change) with::

    PYTHONPATH=src python -m pytest benchmarks/bench_runtime.py \
        -q --benchmark-json=BENCH_runtime.json
    python benchmarks/check_runtime_regression.py BENCH_runtime.json \
        --write-baseline
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from _gate import (
    check_floor,
    compare_to_baseline,
    load_records,
    write_baseline,
)

DEFAULT_BASELINE = Path(__file__).parent / "runtime_baseline.json"

REGENERATE_HINT = (
    "Regenerate it with:\n"
    "  PYTHONPATH=src python -m pytest benchmarks/bench_runtime.py"
    " -q --benchmark-json=BENCH_runtime.json\n"
    "  python benchmarks/check_runtime_regression.py"
    " BENCH_runtime.json --write-baseline"
)

#: The benchmark the absolute throughput floor applies to.
FLOOR_BENCHMARK = "bench_bank_guarded_updates"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("run", help="pytest-benchmark JSON of the run")
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="baseline file (default: benchmarks/runtime_baseline.json)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when run mean > factor * baseline mean (default 2.0)",
    )
    parser.add_argument(
        "--min-throughput",
        type=float,
        default=100_000.0,
        help=(
            f"absolute floor in updates/s for {FLOOR_BENCHMARK} "
            "(default 100000)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the run's records to the baseline file and exit",
    )
    args = parser.parse_args(argv)

    run_records = load_records(args.run, "run")
    if not run_records:
        print("no benchmarks in the run file", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(
            args.baseline,
            note=(
                "mean seconds and batch size per runtime benchmark; "
                "regenerate with check_runtime_regression.py "
                "--write-baseline"
            ),
            key="records",
            entries={
                name: {
                    "mean": round(record["mean"], 9),
                    "batch": record["batch"],
                }
                for name, record in run_records.items()
            },
        )
        print(
            f"wrote {len(run_records)} baseline records to "
            f"{args.baseline}"
        )
        return 0

    failures: list[str] = []
    failures += check_floor(
        run_records,
        FLOOR_BENCHMARK,
        args.min_throughput,
        rate_noun="updates/s",
        floor_decimals=0,
    )

    base_records = load_records(args.baseline, "baseline", REGENERATE_HINT)
    failures += [
        f"{name}: {ratio:.2f}x the baseline mean"
        for name, ratio in compare_to_baseline(
            run_records, base_records, args.factor,
            unit="ms", show_rate=True,
        )
    ]

    if failures:
        print(
            f"{len(failures)} runtime gate failure(s):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("runtime benchmarks within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
