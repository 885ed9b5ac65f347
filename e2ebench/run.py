"""Benchmark entry point.

    python3 e2ebench/run.py --workload sample --seed 1 --seconds 35 --trace 0

Run from the repository root. Prints the host fingerprint and run
details as JSON lines, then, as the last line, the result object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run also writes a Chrome trace under ``.bench_traces/``.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("e2ebench: src/repro is missing; run from a full checkout of the repository")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from e2ebench.harness import (  # noqa: E402
    host_fingerprint,
    pin_thread_pools,
    stop_child_processes,
)

# Before numpy loads: its BLAS pool sizes itself when the library loads.
THREADS = pin_thread_pools()
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before the thread pools were pinned")

from e2ebench.runner import execute  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps({"fingerprint": host_fingerprint(ROOT, THREADS)}), flush=True)
    try:
        result, info = execute(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            trace_dir=os.path.join(ROOT, ".bench_traces"),
        )
    finally:
        stop_child_processes()
    for error in info.get("errors", []):
        print(error, file=sys.stderr)
    print(json.dumps({"run": info}), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
