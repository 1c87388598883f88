"""Budgeted compaction and the pv exchanger hook."""

import random

from repro.config import CostModel, x86_ladder
from repro.core.compaction import NormalCompactor, SmartCompactor
from repro.core.rmap import ReverseMap
from repro.mem.buddy import BuddyAllocator
from repro.mem.regions import RegionTracker

GEOM = x86_ladder(2, 6)


class RecordingOwner:
    def __init__(self):
        self.moves = []

    def relocate(self, old, new, order):
        self.moves.append((old, new, order))


def make_fragmented(n_regions=6, seed=0):
    total = n_regions * GEOM.frames_per_large
    tracker = RegionTracker(total, GEOM)
    buddy = BuddyAllocator(total, GEOM.large_order, listeners=(tracker,))
    rmap = ReverseMap()
    owner = RecordingOwner()
    rng = random.Random(seed)
    pfns = [buddy.alloc(0) for _ in range(total)]
    rng.shuffle(pfns)
    for pfn in pfns[len(pfns) // 2 :]:
        buddy.free(pfn)
    for pfn in pfns[: len(pfns) // 2]:
        rmap.register(pfn, 0, owner)
    return buddy, tracker, rmap, owner


class TestBudgetedCompaction:
    def test_zero_budget_makes_no_progress_but_no_damage(self):
        buddy, tracker, rmap, owner = make_fragmented()
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = smart.compact(GEOM.large_order, budget_ns=0.0)
        assert not result.success
        assert result.blocks_moved == 0
        buddy.check_invariants()

    def test_partial_progress_persists_across_attempts(self):
        buddy, tracker, rmap, owner = make_fragmented()
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        cost = CostModel()
        tiny = cost.copy_ns(GEOM.base_size) * 3  # ~3 moves per attempt
        attempts = 0
        while not buddy.has_free_block(GEOM.large_order) and attempts < 500:
            smart.compact(GEOM.large_order, budget_ns=tiny)
            attempts += 1
        assert buddy.has_free_block(GEOM.large_order)
        assert attempts > 1  # genuinely incremental
        buddy.check_invariants()

    def test_unbudgeted_equals_infinite_budget(self):
        results = []
        for budget in (float("inf"),):
            buddy, tracker, rmap, owner = make_fragmented(seed=3)
            smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
            results.append(smart.compact(GEOM.large_order, budget_ns=budget))
        assert results[0].success

    def test_normal_compactor_budget(self):
        buddy, tracker, rmap, owner = make_fragmented(seed=5)
        normal = NormalCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = normal.compact(GEOM.large_order, budget_ns=1.0)
        assert result.time_ns >= 0
        buddy.check_invariants()


class TestPVExchangerHook:
    def test_mid_blocks_exchange_instead_of_copy(self):
        buddy, tracker, rmap, owner = make_fragmented(n_regions=4, seed=2)
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        calls = []
        smart.pv_exchanger = lambda src, dst, order: calls.append(
            (src, dst, order)
        ) or 100.0
        # Plant a mid block in an otherwise-sparse region.
        src = None
        for region in tracker.best_source_regions():
            start = tracker.region_start(region)
            try:
                buddy.alloc_at(start, GEOM.mid_order)
                src = start
                break
            except ValueError:
                continue
        if src is None:  # no aligned space: make one
            return
        rmap.register(src, GEOM.mid_order, owner)
        smart.compact(GEOM.large_order)
        moved_mid = [c for c in calls if c[2] == GEOM.mid_order]
        # If the planted mid moved, it moved via the exchanger.
        mid_copied = any(o == GEOM.mid_order for _, _, o in owner.moves)
        if mid_copied:
            assert moved_mid

    def test_base_blocks_always_copy(self):
        buddy, tracker, rmap, owner = make_fragmented(seed=4)
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        calls = []
        smart.pv_exchanger = lambda *a: calls.append(a) or 1.0
        result = smart.compact(GEOM.large_order)
        # All fragmented content is base frames: no exchanges, all copies.
        base_calls = [c for c in calls if c[2] == 0]
        assert not base_calls
        if result.blocks_moved:
            assert result.bytes_copied > 0
