"""Regenerate the multi-node NUMA equivalence golden.

Multi-node machines place every fault-time allocation by a rule (home
node first, then the other nodes by descending free frames) and charge
remote walks, remote data accesses and page-table replica maintenance on
the simulated clock.  This script freezes the reference state of that
pipeline: for 2- and 3-node machines, home node 0 and 1, page-table
replication off and on, it fragments physical memory, runs a cold zipf
stream through one Trident process, unmaps half its footprint, touches
the rest and runs the daemons, then records

* the full :func:`repro.sim.bench.state_fingerprint`,
* the metrics registry snapshot (buddy, NUMA and TLB counters, gauges,
  histograms),
* the free frames left on each node.

``tests/sim/test_numa_golden.py`` replays the identical cases through
the current code and compares against the committed JSON, so a change
to the allocator or the NUMA charging that moves a single frame fails.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_numa_golden.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import default_machine  # noqa: E402
from repro.core import TridentPolicy  # noqa: E402
from repro.mem.numa import NumaTopology  # noqa: E402
from repro.sim.bench import state_fingerprint  # noqa: E402
from repro.sim.system import System  # noqa: E402
from repro.workloads.access import zipf  # noqa: E402

SCENARIO = {
    "machine_regions": 18,
    "remote_multiplier": 1.5,
    "seed": 5,
    "daemon_period": 5_000,
    "fill_fraction": 0.9,
    "residual_fraction": 0.3,
    "unmapped_bytes": 16 * 1024 * 1024,
    "kept_bytes": 24 * 1024 * 1024,
    "accesses": 20_000,
    "stream_seed": 42,
}
CASES = [
    (nodes, home_node, pt_replication)
    for nodes in (2, 3)
    for home_node in (0, 1)
    for pt_replication in (False, True)
]


def case_name(nodes: int, home_node: int, pt_replication: bool) -> str:
    return f"nodes{nodes}_home{home_node}_repl{int(pt_replication)}"


def canonical(obj):
    """JSON-stable form of a fingerprint: str keys, lists for tuples."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def run_case(nodes: int, home_node: int, pt_replication: bool):
    """Drive one case; returns ``(system, record)``."""
    s = SCENARIO
    system = System(
        default_machine(s["machine_regions"]),
        TridentPolicy,
        seed=s["seed"],
        numa=NumaTopology(nodes=nodes, remote_multiplier=s["remote_multiplier"]),
        pt_replication=pt_replication,
    )
    system.daemon_period_accesses = s["daemon_period"]
    system.fragment(s["fill_fraction"], s["residual_fraction"])
    process = system.create_process(home_node=home_node)
    rng = np.random.default_rng(s["stream_seed"])
    dropped = system.sys_mmap(process, s["unmapped_bytes"])
    kept = system.sys_mmap(process, s["kept_bytes"])
    system.touch_batch(
        process, zipf(rng, dropped, s["unmapped_bytes"], s["accesses"])
    )
    system.touch_batch(process, zipf(rng, kept, s["kept_bytes"], s["accesses"]))
    system.sys_munmap(process, dropped)
    system.touch_batch(process, zipf(rng, kept, s["kept_bytes"], s["accesses"]))
    system.run_daemons()
    record = {
        "fingerprint": canonical(state_fingerprint(system, process)),
        "metrics": system.obs.metrics.snapshot(),
        "node_free_frames": [
            system.buddy.node_free_frames(n) for n in range(nodes)
        ],
    }
    return system, record


def main() -> None:
    out = {
        "scenario": SCENARIO,
        "cases": {
            case_name(*case): run_case(*case)[1] for case in CASES
        },
    }
    path = os.path.join(
        os.path.dirname(__file__), "..", "tests", "golden",
        "numa_fingerprints.json",
    )
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
