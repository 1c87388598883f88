"""Property-based tests (hypothesis) for the node-partitioned buddy allocator.

Two halves, mirroring ``test_buddy_properties.py`` on a multi-node machine:

* churn properties — random alloc/free/migrate sequences over a 2-node
  allocator preserve every per-node free-list invariant plus total-capacity
  conservation (no frame is ever lost to or conjured from the node
  boundary);
* corruption injection — each way the cross-node accounting could drift
  (free-list tamper, stolen blocks, counter skew, residency skew, replica
  skew) must be *rejected* by the ``--audit`` checker, proving the
  invariant blanket actually has teeth.
"""

import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.config import default_machine
from repro.core import TridentPolicy
from repro.lint.invariants import (
    InvariantViolation,
    attach_auditor,
    audit_system,
    check_buddy,
    check_node_residency,
    check_replica_accounting,
)
from repro.mem.buddy import BuddyAllocator
from repro.mem.numa import NumaTopology
from repro.sim.system import System

TOTAL = 256
MAX_ORDER = 5
NODES = 2


def make_pools(nodes=NODES):
    return BuddyAllocator(TOTAL, MAX_ORDER, nodes=nodes)


def try_alloc_on(pools, node, order, movable=True):
    """One allocation steered toward ``node`` (None: no preference)."""
    pools.set_alloc_preference(node)
    try:
        return pools.try_alloc(order, movable)
    finally:
        pools.set_alloc_preference(None)


class NumaPoolsMachine(RuleBasedStateMachine):
    """Random alloc/free/migrate churn preserves per-node invariants."""

    def __init__(self):
        super().__init__()
        self.pools = make_pools()
        self.live: list[tuple[int, int]] = []  # (pfn, order)

    @rule(
        order=st.integers(0, MAX_ORDER),
        node=st.one_of(st.none(), st.integers(0, NODES - 1)),
        movable=st.booleans(),
    )
    def alloc(self, order, node, movable):
        pfn = try_alloc_on(self.pools, node, order, movable)
        if pfn is not None:
            assert pfn % (1 << order) == 0
            self.live.append((pfn, order))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free(self, data):
        idx = data.draw(st.integers(0, len(self.live) - 1))
        pfn, _ = self.live.pop(idx)
        self.pools.free(pfn)

    @rule(pfn=st.integers(0, TOTAL - 1), order=st.integers(0, 3))
    def alloc_at(self, pfn, order):
        pfn &= ~((1 << order) - 1)
        try:
            self.pools.alloc_at(pfn, order)
            self.live.append((pfn, order))
        except ValueError:
            pass  # occupied or out of bounds: rejection is the contract

    @precondition(lambda self: self.live)
    @rule(data=st.data(), dest=st.integers(0, NODES - 1))
    def migrate(self, data, dest):
        """Move a live block to ``dest``: alloc there first, then free
        the original — the order compaction uses, so both copies coexist
        across a node boundary mid-migration."""
        idx = data.draw(st.integers(0, len(self.live) - 1))
        pfn, order = self.live[idx]
        new_pfn = try_alloc_on(self.pools, dest, order)
        if new_pfn is None:
            return
        self.live[idx] = (new_pfn, order)
        self.pools.free(pfn)

    @invariant()
    def capacity_conserved(self):
        live_frames = sum(1 << order for _, order in self.live)
        per_node_free = [
            self.pools.node_free_frames(n) for n in range(NODES)
        ]
        assert sum(per_node_free) == self.pools.free_frames
        assert self.pools.free_frames == TOTAL - live_frames
        assert all(0 <= f <= TOTAL // NODES for f in per_node_free)

    @invariant()
    def blocks_stay_on_their_node(self):
        for pfn, order in self.live:
            assert self.pools.node_of(pfn) == self.pools.node_of(
                pfn + (1 << order) - 1
            ), "allocation straddles a node boundary"

    @invariant()
    def full_check(self):
        self.pools.check_invariants()


TestNumaPoolsMachine = NumaPoolsMachine.TestCase
TestNumaPoolsMachine.settings = settings(
    max_examples=30, stateful_step_count=40
)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_200_seed_churn_preserves_invariants(seed):
    """The ISSUE's 200-seed blanket: a seeded random churn script of
    allocs, frees and cross-node migrations always lands in a state the
    full audit accepts, and freeing everything restores pristine pools."""
    rng = random.Random(seed)
    pools = make_pools()
    live: list[tuple[int, int]] = []
    for _ in range(rng.randrange(20, 60)):
        op = rng.random()
        if op < 0.5 or not live:
            order = rng.randrange(0, MAX_ORDER + 1)
            node = rng.choice([None, 0, 1])
            pfn = try_alloc_on(pools, node, order)
            if pfn is not None:
                live.append((pfn, order))
        elif op < 0.8:
            pfn, _ = live.pop(rng.randrange(len(live)))
            pools.free(pfn)
        else:  # migrate to the other node
            idx = rng.randrange(len(live))
            pfn, order = live[idx]
            target = 1 - pools.node_of(pfn)
            new_pfn = try_alloc_on(pools, target, order)
            if new_pfn is not None:
                live[idx] = (new_pfn, order)
                pools.free(pfn)
    check_buddy(pools)
    assert pools.free_frames == TOTAL - sum(1 << o for _, o in live)
    for pfn, _ in live:
        pools.free(pfn)
    assert pools.free_frames == TOTAL
    assert all(
        pools.node_free_frames(n) == TOTAL // NODES for n in range(NODES)
    )
    pools.check_invariants()


class TestCorruptionInjection:
    """Every drift mode the audit layer claims to catch, it must catch."""

    def test_clean_pools_pass(self):
        pools = make_pools()
        try_alloc_on(pools, 0, 2)
        assert check_buddy(pools) > 0

    def test_free_list_tamper_rejected(self):
        pools = make_pools()
        pfn = try_alloc_on(pools, 0, 0)
        # Resurrect the allocated frame on its own node's free list.
        pools._free_lists[0].add(pfn)
        with pytest.raises(InvariantViolation):
            check_buddy(pools)

    def test_cross_node_stolen_block_rejected(self):
        pools = make_pools()
        # Node 1 "steals" a block node 0 still owns: the block leaves
        # node 0's heap and is queued on node 1's, which would hand out
        # frames across the boundary.
        free_list = pools._free_lists[MAX_ORDER]
        start = free_list.pop_lowest(0)
        free_list._members.add(start)
        free_list._heaps[1].append(start)
        with pytest.raises(InvariantViolation):
            check_buddy(pools)

    def test_free_frame_counter_skew_rejected(self):
        pools = make_pools()
        pools._node_free[1] -= 1
        with pytest.raises(InvariantViolation, match="free-frame"):
            check_buddy(pools)


def _numa_system(pt_replication=False):
    system = System(
        default_machine(8),
        TridentPolicy,
        seed=11,
        numa=NumaTopology(nodes=2),
        pt_replication=pt_replication,
    )
    process = system.create_process(home_node=1)
    base = system.sys_mmap(process, 1 << 22)
    rng = np.random.default_rng(3)
    offsets = rng.integers(0, (1 << 22) // 8, size=4000) * 8
    system.touch_batch(process, base + offsets.astype(np.int64))
    return system, process


class TestSystemDriftInjection:
    """audit_system ties the NUMA checks into the machine-level audit."""

    def test_clean_numa_system_passes(self):
        system, process = _numa_system()
        assert audit_system(system) > 0
        assert check_node_residency(
            process.pagetable, system.buddy.node_of, 2
        ) > 0

    def test_residency_counter_drift_rejected(self):
        system, process = _numa_system()
        process.pagetable._node_frames[0] += 1
        with pytest.raises(InvariantViolation, match="drift"):
            audit_system(system)

    def test_residency_total_drift_rejected(self):
        system, process = _numa_system()
        # Skew both nodes so the per-node split still sums consistently
        # wrong: only the total check can see it.
        process.pagetable._resident_frames += 2
        with pytest.raises(InvariantViolation, match="total residency"):
            check_node_residency(
                process.pagetable, system.buddy.node_of, 2
            )

    def test_replica_overcount_rejected(self):
        system, _ = _numa_system(pt_replication=True)
        assert check_replica_accounting(system) == 1
        system.replica_updates += 1
        with pytest.raises(InvariantViolation, match="replica"):
            audit_system(system)

    def test_replication_off_requires_zero_updates(self):
        system, _ = _numa_system(pt_replication=False)
        system.replica_updates = 1
        with pytest.raises(InvariantViolation, match="replica"):
            check_replica_accounting(system)

    def test_attached_auditor_counts_the_violation(self):
        system, process = _numa_system()
        auditor = attach_auditor(system)
        assert auditor.audit() > 0
        process.pagetable._node_frames[0] += 4
        with pytest.raises(InvariantViolation):
            auditor.audit()
        assert auditor.violations == 1
