"""Single-node NUMA machine is counter-for-counter the flat machine.

A System with ``NumaTopology(nodes=1, remote_multiplier=1.0)`` must leave
the simulation *bitwise* where the default (flat) System leaves it — the
same pfn sequence out of the buddy layer, hence the same promotion
decisions, the same simulated clock, the same TLB set orderings and walk
histograms, the same FMFI gauges: a 1-node machine has no remote memory,
so the multiplier must never show.  :func:`repro.sim.bench.state_fingerprint` plus a
full registry snapshot pin all of it, across every policy.

The companion direction: with more than one node the penalty model must
actually engage — a remote-home process pays walk and data penalties on
the clock, and page-table replication trades them away.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import default_machine
from repro.core import Baseline4KPolicy, HawkEyePolicy, THPPolicy, TridentPolicy
from repro.mem.numa import NumaTopology
from repro.sim.bench import state_fingerprint
from repro.sim.system import System
from repro.workloads.access import zipf

FOOTPRINT = 8 * 1024 * 1024
POLICIES = [TridentPolicy, THPPolicy, Baseline4KPolicy, HawkEyePolicy]


def _run(
    policy, numa=NumaTopology(), pt_replication=False, home_node=0, n=30_000
):
    system = System(
        default_machine(16),
        policy,
        seed=5,
        numa=numa,
        pt_replication=pt_replication,
    )
    system.daemon_period_accesses = 5_000  # force promotions mid-stream
    process = system.create_process(home_node=home_node)
    base = system.sys_mmap(process, FOOTPRINT)
    rng = np.random.default_rng(42)
    stream = zipf(rng, base, FOOTPRINT, n)
    system.touch_batch(process, stream)
    system.run_daemons()
    return system, process


@pytest.mark.parametrize("policy", POLICIES)
def test_single_node_bitwise_equal_to_flat(policy):
    flat_sys, flat_proc = _run(policy)
    numa_sys, numa_proc = _run(
        policy, numa=NumaTopology(nodes=1, remote_multiplier=1.0)
    )
    flat_fp = state_fingerprint(flat_sys, flat_proc)
    numa_fp = state_fingerprint(numa_sys, numa_proc)
    mismatched = [k for k in flat_fp if flat_fp[k] != numa_fp[k]]
    assert not mismatched, f"nodes=1 machine diverged on: {mismatched}"
    # The registries agree byte for byte: clock, TLB histograms, buddy
    # gauges, FMFI — and no numa_* metric ever materialized.
    flat_sys.obs.metrics.collect()
    numa_sys.obs.metrics.collect()
    assert flat_sys.obs.metrics.snapshot() == numa_sys.obs.metrics.snapshot()
    assert flat_sys.fmfi == numa_sys.fmfi


def test_single_node_default_multiplier_is_still_bitwise():
    """The multiplier is irrelevant at one node: no access is remote."""
    a_sys, a_proc = _run(TridentPolicy, numa=NumaTopology(nodes=1))
    b_sys, b_proc = _run(
        TridentPolicy, numa=NumaTopology(nodes=1, remote_multiplier=3.0)
    )
    assert state_fingerprint(a_sys, a_proc) == state_fingerprint(
        b_sys, b_proc
    )


class TestMultiNodeEngages:
    def test_remote_home_pays_on_the_clock(self):
        numa = NumaTopology(nodes=2, remote_multiplier=1.5)
        flat_sys, _ = _run(TridentPolicy)
        # home_node=1 while page tables sit on node 0: every walk and a
        # fraction of data accesses cross the interconnect.
        numa_sys, numa_proc = _run(TridentPolicy, numa=numa, home_node=1)
        assert numa_sys.clock.now_ns > flat_sys.clock.now_ns
        m = numa_sys.obs.metrics
        assert m.value("numa_remote_walk_penalty_ns_total") > 0
        # Home allocation succeeded, so data stayed local: walks are the
        # only remote traffic (the spill test below covers the data term).
        assert m.value("numa_remote_access_penalty_ns_total") == 0
        assert numa_proc.pagetable.remote_resident_fraction(1) == 0.0

    def test_data_penalty_when_residency_spills_remote(self):
        numa = NumaTopology(nodes=2, remote_multiplier=1.5)
        system = System(
            default_machine(16), TridentPolicy, seed=5, numa=numa
        )
        process = system.create_process(home_node=1)
        # Exhaust the home node so faults must place frames on node 0.
        # Claim node 1's free blocks by address: a preferred alloc would
        # spill and drain node 0 too.
        buddy = system.buddy
        lo, hi = buddy.node_bounds(1)
        for order in range(buddy.max_order + 1):
            for start in buddy.free_block_starts(order):
                if lo <= start < hi:
                    buddy.alloc_at(start, order)
        assert buddy.node_free_frames(1) == 0
        base = system.sys_mmap(process, FOOTPRINT)
        rng = np.random.default_rng(42)
        system.touch_batch(process, zipf(rng, base, FOOTPRINT, 10_000))
        assert process.pagetable.remote_resident_fraction(1) == 1.0
        m = system.obs.metrics
        assert m.value("numa_remote_access_penalty_ns_total") > 0
        assert m.value("numa_alloc_remote_total") > 0

    def test_replication_trades_walks_for_maintenance(self):
        numa = NumaTopology(nodes=2, remote_multiplier=1.5)
        plain_sys, _ = _run(TridentPolicy, numa=numa, home_node=1)
        repl_sys, _ = _run(
            TridentPolicy, numa=numa, home_node=1, pt_replication=True
        )
        pm, rm = plain_sys.obs.metrics, repl_sys.obs.metrics
        # Replicated tables walk locally: the walk penalty vanishes and
        # the maintenance cost appears instead.
        assert rm.value("numa_remote_walk_penalty_ns_total") == 0
        assert pm.value("numa_remote_walk_penalty_ns_total") > 0
        assert rm.value("numa_replica_updates_total") == repl_sys.faults_handled
        assert pm.value("numa_replica_updates_total") == 0

    def test_local_home_pays_no_walk_penalty(self):
        numa = NumaTopology(nodes=2, remote_multiplier=1.5)
        sys0, _ = _run(TridentPolicy, numa=numa, home_node=0)
        m = sys0.obs.metrics
        # Page tables live on node 0 == home: walks are local.  Data can
        # still spill remote if node 0 fills, but this footprint fits.
        assert m.value("numa_remote_walk_penalty_ns_total") == 0
