"""Multi-node differential: NUMA machines replay a committed golden.

``tests/golden/numa_fingerprints.json`` freezes, for 2- and 3-node
machines, home node 0 and 1, page-table replication off and on, the full
:func:`repro.sim.bench.state_fingerprint`, the metrics registry snapshot
and the per-node free frames of a fragmented Trident run with a partial
unmap.  Replaying the same cases must reproduce every byte: node
placement, spill order, coalescing across the churn and every NUMA
charge on the simulated clock.

Regenerate the golden (only after an *intentional* behaviour change)
with ``PYTHONPATH=src python scripts/gen_numa_golden.py``.
"""

import json
import os

import numpy as np
import pytest

from repro.config import default_machine
from repro.core import TridentPolicy
from repro.lint.invariants import audit_system
from repro.mem.numa import NumaTopology
from repro.sim.bench import state_fingerprint
from repro.sim.system import System
from repro.workloads.access import zipf

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "golden", "numa_fingerprints.json"
)

CASES = [
    (nodes, home_node, pt_replication)
    for nodes in (2, 3)
    for home_node in (0, 1)
    for pt_replication in (False, True)
]


def _canonical(obj):
    """JSON-stable form of a fingerprint: str keys, lists for tuples."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("nodes,home_node,pt_replication", CASES)
def test_numa_case_matches_golden(nodes, home_node, pt_replication, golden):
    s = golden["scenario"]
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

    want = golden["cases"][
        f"nodes{nodes}_home{home_node}_repl{int(pt_replication)}"
    ]
    assert [
        system.buddy.node_free_frames(n) for n in range(nodes)
    ] == want["node_free_frames"]
    fp = _canonical(state_fingerprint(system, process))
    mismatched = sorted(
        k for k in want["fingerprint"] if fp[k] != want["fingerprint"][k]
    )
    assert not mismatched, f"fingerprint diverged on: {mismatched}"
    assert fp.keys() == want["fingerprint"].keys()
    snap = json.loads(json.dumps(system.obs.metrics.snapshot()))
    for section in ("counters", "gauges", "histograms"):
        diff = sorted(
            k
            for k in snap[section].keys() | want["metrics"][section].keys()
            if snap[section].get(k) != want["metrics"][section].get(k)
        )
        assert not diff, f"{section} diverged on: {diff}"
    assert audit_system(system) > 0
