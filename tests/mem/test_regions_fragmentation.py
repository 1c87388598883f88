"""Tests for region counters, FMFI, the fragmentation injector, and zero-fill."""

import random

import numpy as np
import pytest

from repro.config import CostModel, x86_ladder
from repro.mem.buddy import BuddyAllocator
from repro.mem.fragmentation import FragmentationInjector, fmfi
from repro.mem.regions import RegionTracker
from repro.mem.zerofill import ZeroFillEngine

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)

GEOM = x86_ladder(2, 4)  # large = 16 frames


def make_tracked(n_regions=4):
    total = n_regions * GEOM.frames_per_large
    tracker = RegionTracker(total, GEOM)
    buddy = BuddyAllocator(total, GEOM.large_order, listeners=(tracker,))
    return buddy, tracker


class TestRegionTracker:
    def test_initial_counts(self):
        _, tracker = make_tracked()
        assert (tracker.free_frames == 16).all()
        assert (tracker.unmovable_frames == 0).all()

    def test_alloc_free_updates_counts(self):
        buddy, tracker = make_tracked()
        pfn = buddy.alloc(2, movable=False)
        region = tracker.region_of(pfn)
        assert tracker.free_frames[region] == 12
        assert tracker.unmovable_frames[region] == 4
        buddy.free(pfn)
        assert tracker.free_frames[region] == 16
        assert tracker.unmovable_frames[region] == 0

    def test_counts_match_ground_truth_after_churn(self):
        buddy, tracker = make_tracked(n_regions=8)
        rng = random.Random(7)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.4:
                buddy.free(live.pop(rng.randrange(len(live))))
            else:
                pfn = buddy.try_alloc(rng.randrange(3), movable=rng.random() < 0.8)
                if pfn is not None:
                    live.append(pfn)
        tracker.check_against(buddy.frame_state)

    def test_best_source_excludes_unmovable_and_free_regions(self):
        buddy, tracker = make_tracked(n_regions=3)
        # Region 0: one unmovable frame -> excluded.
        buddy.alloc_at(0, 0, movable=False)
        # Region 1: half full, movable -> candidate.
        buddy.alloc_at(16, 3, movable=True)
        # Region 2: untouched (fully free) -> excluded.
        sources = tracker.best_source_regions()
        assert sources == [1]

    def test_best_source_orders_by_most_free(self):
        buddy, tracker = make_tracked(n_regions=3)
        buddy.alloc_at(0, 3)  # region 0: 8 used
        buddy.alloc_at(16, 2)  # region 1: 4 used -> more free, cheaper
        buddy.alloc_at(32, 0)  # region 2: 1 used -> cheapest
        assert tracker.best_source_regions() == [2, 1, 0]

    def test_best_target_orders_by_fullest(self):
        buddy, tracker = make_tracked(n_regions=3)
        buddy.alloc_at(0, 3)  # region 0: 8 free
        buddy.alloc_at(16, 2)  # region 1: 12 free
        targets = tracker.best_target_regions(exclude={2})
        assert targets == [0, 1]

    def test_rejects_non_multiple_total(self):
        with pytest.raises(ValueError):
            RegionTracker(GEOM.frames_per_large + 1, GEOM)


class TestFMFI:
    def test_unfragmented_is_zero(self):
        buddy, _ = make_tracked()
        assert fmfi(buddy, GEOM.large_order) == 0.0

    def test_no_free_memory_is_zero(self):
        buddy = BuddyAllocator(16, 4)
        buddy.alloc(4)
        assert fmfi(buddy, 4) == 0.0

    def test_scattered_frees_fragment_large_order(self):
        buddy, _ = make_tracked(n_regions=4)
        pfns = [buddy.alloc(0) for _ in range(64)]
        for pfn in pfns[::2]:  # free every other frame: nothing coalesces
            buddy.free(pfn)
        assert fmfi(buddy, GEOM.large_order) == 1.0
        assert fmfi(buddy, 0) == 0.0

    def test_fmfi_monotone_in_order(self):
        buddy, _ = make_tracked(n_regions=4)
        rng = random.Random(3)
        pfns = [buddy.alloc(0) for _ in range(64)]
        for pfn in rng.sample(pfns, 40):
            buddy.free(pfn)
        values = [fmfi(buddy, o) for o in range(GEOM.large_order + 1)]
        assert values == sorted(values)


class TestFragmentationInjector:
    def test_fragment_raises_large_order_fmfi(self):
        buddy, _ = make_tracked(n_regions=16)
        inj = FragmentationInjector(buddy, np.random.default_rng(1))
        index = inj.fragment(fill_fraction=0.95, residual_fraction=0.4)
        assert index > 0.8
        assert inj.residual_frames > 0

    def test_reclaim_returns_scattered_memory(self):
        buddy, _ = make_tracked(n_regions=16)
        inj = FragmentationInjector(buddy, np.random.default_rng(1))
        inj.fragment(residual_fraction=0.5)
        before = buddy.free_frames
        freed = inj.reclaim(20)
        assert len(freed) == 20
        assert buddy.free_frames == before + 20

    def test_reclaim_all_empties_cache(self):
        buddy, _ = make_tracked(n_regions=8)
        inj = FragmentationInjector(buddy, np.random.default_rng(2))
        inj.fragment(residual_fraction=0.5)
        inj.reclaim_all()
        assert inj.residual_frames == 0

    def test_release_unmovable(self):
        buddy, tracker = make_tracked(n_regions=8)
        inj = FragmentationInjector(buddy, np.random.default_rng(2))
        inj.fragment(unmovable_prob=0.1)
        assert inj.unmovable_count > 0
        inj.release_unmovable()
        assert (tracker.unmovable_frames == 0).all()

    def test_notice_moved_updates_bookkeeping(self):
        buddy, _ = make_tracked(n_regions=8)
        inj = FragmentationInjector(buddy, np.random.default_rng(2))
        inj.fragment(residual_fraction=1.0, unmovable_prob=0.0)
        old = inj.cache_frames()[0]
        assert inj.notice_moved(old, 9999)
        assert not inj.notice_moved(old, 1234)

    def test_bad_residual_fraction_rejected(self):
        buddy, _ = make_tracked()
        inj = FragmentationInjector(buddy)
        with pytest.raises(ValueError):
            inj.fragment(residual_fraction=1.5)


class TestZeroFillEngine:
    def make_engine(self, n_regions=4, pool_capacity=2):
        buddy, _ = make_tracked(n_regions)
        engine = ZeroFillEngine(buddy, GEOM, CostModel(), pool_capacity)
        return buddy, engine

    def test_background_fill_populates_pool(self):
        buddy, engine = self.make_engine()
        spent = engine.background_fill(budget_ns=1e12)
        assert engine.pool_size == 2
        assert spent > 0
        assert buddy.used_frames == 2 * GEOM.frames_per_large

    def test_take_zeroed_transfers_ownership(self):
        buddy, engine = self.make_engine()
        engine.background_fill(1e12)
        pfn = engine.take_zeroed()
        assert pfn is not None
        assert engine.pool_size == 1
        buddy.free(pfn)  # caller owns the allocation

    def test_take_zeroed_empty_pool_returns_none(self):
        _, engine = self.make_engine()
        assert engine.take_zeroed() is None

    def test_budget_limits_fill(self):
        _, engine = self.make_engine()
        one_block = CostModel().zero_ns(GEOM.large_size)
        engine.background_fill(one_block * 1.5)
        assert engine.pool_size == 1

    def test_release_all_returns_memory(self):
        buddy, engine = self.make_engine()
        engine.background_fill(1e12)
        released = engine.release_all()
        assert released == 2
        assert buddy.used_frames == 0

    def test_fault_latency_async_much_faster_than_sync(self):
        # The paper's headline: 400 ms sync vs 2.7 ms with async zero-fill.
        x86 = x86_ladder(9, 18)
        buddy = BuddyAllocator(1 << 18, 18)
        engine = ZeroFillEngine(buddy, x86, CostModel())
        sync_ns = engine.fault_ns(LARGE, used_pool=False)
        async_ns = engine.fault_ns(LARGE, used_pool=True)
        assert 300e6 < sync_ns < 500e6  # ~400 ms
        assert 2e6 < async_ns < 4e6  # ~2.7 ms
        assert sync_ns / async_ns > 100

    def test_rejects_negative_pool(self):
        buddy, _ = make_tracked()
        with pytest.raises(ValueError):
            ZeroFillEngine(buddy, GEOM, CostModel(), pool_capacity=-1)
