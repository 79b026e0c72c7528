"""Benchmark entry point for the directed densest-subgraph program.

Run from the repository root::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (spans are also
written to ``.perfbench/``).  Workloads, metrics and predictions are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"


def unit_of(name: str) -> str:
    """The unit of a metric, read off its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", ".overhead")):
        return "ratio"
    if name.endswith(("bytes", "bytes_sent", "bytes_received")):
        return "B"
    if name.endswith("guesses_per_search"):
        return "calls/search"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCES / "repro").is_dir():
        print(f"error: program sources not found at {SOURCES}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCES), str(HERE)]

    from ddsbench.harness import OUTPUT_DIR, end_to_end, per_layer, run_workload
    from ddsbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(run)
        run.tracer.write(OUTPUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    else:
        metrics = end_to_end(run)
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.outcome.attempted,
                "failed": run.outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
