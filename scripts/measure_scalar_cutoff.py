"""Measure the batch engine's per-access-step crossover.

``repro.sim.batch._SCALAR_CUTOFF`` is the longest stretch the engine runs
through the exact per-access step (``System._touch_one``) instead of a
vectorized segment.  The segment pays a fixed numpy cost per call; the
step pays per access.  This script times both on a warm Trident GUPS
process over segment lengths 8-512 and prints, per length, the host
microseconds of each and their ratio; the crossover is the first length
at which the vectorized segment is cheaper.  ``--policy`` picks another
policy config (``2MB-THP``, ``4KB``) to see how the crossover moves.

Both paths run on the same warm, fault-free stream (every page mapped,
promotions settled), so neither pays for faults or daemons.

Run from the repo root:

    PYTHONPATH=src python scripts/measure_scalar_cutoff.py [--policy P] [--repeats N]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import default_machine  # noqa: E402
from repro.experiments.configs import policy_factory  # noqa: E402
from repro.experiments.runner import _WorkloadAPI  # noqa: E402
from repro.sim.batch import BatchEngine  # noqa: E402
from repro.sim.system import System  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402

LENGTHS = (8, 16, 32, 48, 64, 96, 128, 192, 256, 512)


def warm_process(policy: str, scale_factor: int, seed: int):
    """A GUPS process with its footprint mapped and settled."""
    workload = get_workload("GUPS", scale_factor)
    system = System(default_machine(8), policy_factory(policy), seed=seed)
    # no daemon quantum inside a timed stretch
    system.daemon_period_accesses = 1 << 62
    process = system.create_process("GUPS")
    api = _WorkloadAPI(system, process, np.random.default_rng(seed))
    workload.setup(api)
    system.settle_until_quiet(max_ticks=100, budget_ns=1e9)
    stream = workload.access_stream(api, 200_000)
    system.touch_batch(process, stream)  # warm the TLBs
    return system, process, workload.access_stream(api, 200_000)


def time_per_call(fn, stream: np.ndarray, length: int, repeats: int) -> float:
    """Median host microseconds of ``fn(stretch)`` over ``repeats`` calls."""
    samples = []
    for k in range(repeats):
        start = (k * length) % (len(stream) - length)
        stretch = stream[start : start + length]
        t0 = time.perf_counter()
        fn(stretch)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples)) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--policy", default="Trident")
    parser.add_argument("--repeats", type=int, default=300)
    parser.add_argument("--scale-factor", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    system, process, stream = warm_process(
        args.policy, args.scale_factor, args.seed
    )
    engine = BatchEngine(system)

    def step(stretch):
        engine._step(process, stretch)

    def segment(stretch):
        engine._segment(process, stretch)

    print(f"{'length':>6} {'step_us':>9} {'segment_us':>10} {'step/seg':>9}")
    crossover = None
    for length in LENGTHS:
        step_us = time_per_call(step, stream, length, args.repeats)
        seg_us = time_per_call(segment, stream, length, args.repeats)
        if crossover is None and seg_us < step_us:
            crossover = length
        print(f"{length:>6} {step_us:>9.1f} {seg_us:>10.1f} "
              f"{step_us / seg_us:>9.2f}")
    print(f"crossover: {crossover if crossover else f'> {LENGTHS[-1]}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
