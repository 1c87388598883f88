"""Benchmark entry point (see ``BENCHMARK.json`` at the repository root).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, then, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Exits 1 when any configuration
fails the correctness gate and 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2
    # the script's own directory would shadow stdlib modules; import the
    # benchmark as a package from the repository root instead
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from perfbench import catalog, harness

    if args.workload not in catalog.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(catalog.WORKLOADS)}")
    result = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(harness.report(result))
    print(result.result_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
