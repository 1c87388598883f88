"""Property-based test: compaction never corrupts memory state.

Random interleavings of allocation, free, fragmentation and both
compactors must preserve every buddy/region/rmap invariant, and every
relocation must be reported to the owner exactly once.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.config import CostModel, x86_ladder
from repro.core.compaction import NormalCompactor, SmartCompactor
from repro.core.rmap import ReverseMap
from repro.mem.buddy import BuddyAllocator
from repro.mem.regions import RegionTracker

GEOM = x86_ladder(2, 4)
N_REGIONS = 4
TOTAL = N_REGIONS * GEOM.frames_per_large


class TrackingOwner:
    """Owner that tracks where each of its blocks currently lives."""

    def __init__(self):
        self.current: set[int] = set()
        self.relocations = 0

    def relocate(self, old, new, order):
        assert old in self.current, "relocation for a block we do not own"
        self.current.remove(old)
        self.current.add(new)
        self.relocations += 1


class CompactionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tracker = RegionTracker(TOTAL, GEOM)
        self.buddy = BuddyAllocator(
            TOTAL, GEOM.large_order, listeners=(self.tracker,)
        )
        self.rmap = ReverseMap()
        self.owner = TrackingOwner()
        self.normal = NormalCompactor(
            self.buddy, self.tracker, self.rmap, GEOM, CostModel()
        )
        self.smart = SmartCompactor(
            self.buddy, self.tracker, self.rmap, GEOM, CostModel()
        )

    @rule(order=st.integers(0, 2), movable=st.booleans())
    def alloc(self, order, movable):
        pfn = self.buddy.try_alloc(order, movable)
        if pfn is not None and movable:
            self.rmap.register(pfn, order, self.owner)
            self.owner.current.add(pfn)

    @precondition(lambda self: self.owner.current)
    @rule(data=st.data())
    def free(self, data):
        pfn = data.draw(st.sampled_from(sorted(self.owner.current)))
        self.rmap.unregister(pfn)
        self.owner.current.remove(pfn)
        self.buddy.free(pfn)

    @rule(order=st.integers(2, GEOM.large_order))
    def compact_smart(self, order):
        self.smart.compact(order)

    @rule(order=st.integers(2, GEOM.large_order))
    def compact_normal(self, order):
        self.normal.compact(order)

    @rule(order=st.integers(2, GEOM.large_order), budget=st.floats(0, 5_000))
    def compact_budgeted(self, order, budget):
        self.smart.compact(order, budget_ns=budget)

    @invariant()
    def buddy_consistent(self):
        self.buddy.check_invariants()

    @invariant()
    def region_counters_consistent(self):
        self.tracker.check_against(self.buddy.frame_state)

    @invariant()
    def rmap_matches_owner(self):
        # Every owned block is registered at its current location and is a
        # live buddy allocation.
        for pfn in self.owner.current:
            entry = self.rmap.lookup(pfn)
            assert entry is not None
            assert self.buddy.allocation_at(pfn) is not None


TestCompactionMachine = CompactionMachine.TestCase
TestCompactionMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
