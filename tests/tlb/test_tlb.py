"""Tests for the set-associative TLB and the walk-cost model."""

import pytest

from repro.config import SCALED_GEOMETRY, TLBConfig, WalkConfig
from repro.tlb.tlb import SetAssocTLB
from repro.tlb.walker import PageWalker

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)


class TestSetAssocTLB:
    def test_miss_then_hit(self):
        t = SetAssocTLB(TLBConfig(8, 2))
        assert not t.lookup(5)
        t.insert(5)
        assert t.lookup(5)
        assert t.hits == 1
        assert t.misses == 1

    def test_lru_eviction_within_set(self):
        t = SetAssocTLB(TLBConfig(8, 2))  # 4 sets, 2 ways
        # VPNs 0, 4, 8 all map to set 0.
        t.insert(0)
        t.insert(4)
        t.insert(8)  # evicts 0 (LRU)
        assert not t.lookup(0)
        assert t.lookup(4)
        assert t.lookup(8)

    def test_hit_refreshes_lru(self):
        t = SetAssocTLB(TLBConfig(8, 2))
        t.insert(0)
        t.insert(4)
        t.lookup(0)  # 0 becomes MRU, 4 is now LRU
        t.insert(8)  # evicts 4
        assert t.lookup(0)
        assert not t.lookup(4)

    def test_different_sets_do_not_interfere(self):
        t = SetAssocTLB(TLBConfig(8, 2))
        t.insert(0)
        t.insert(1)
        t.insert(2)
        t.insert(3)
        assert all(t.lookup(v) for v in range(4))

    def test_fully_associative(self):
        t = SetAssocTLB(TLBConfig(4, 4))  # the Skylake 1GB L1
        for v in range(4):
            t.insert(v)
        assert t.occupancy == 4
        t.insert(99)  # evicts vpn 0
        assert not t.lookup(0)
        assert t.lookup(99)

    def test_reinsert_does_not_duplicate(self):
        t = SetAssocTLB(TLBConfig(4, 4))
        t.insert(1)
        t.insert(1)
        assert t.occupancy == 1

    def test_invalidate(self):
        t = SetAssocTLB(TLBConfig(4, 4))
        t.insert(3)
        assert t.invalidate(3)
        assert not t.invalidate(3)
        assert not t.lookup(3)

    def test_flush(self):
        t = SetAssocTLB(TLBConfig(8, 2))
        for v in range(8):
            t.insert(v)
        t.flush()
        assert t.occupancy == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TLBConfig(7, 2)  # entries not multiple of ways
        with pytest.raises(ValueError):
            TLBConfig(0, 1)


def walker(config: WalkConfig | None = None) -> PageWalker:
    return PageWalker(config or WalkConfig(), SCALED_GEOMETRY)


class TestWalkConfig:
    def test_native_walk_accesses(self):
        w = walker()
        assert w.levels_for(BASE) == 4
        assert w.levels_for(MID) == 3
        assert w.levels_for(LARGE) == 2

    def test_nested_walk_accesses_match_paper(self):
        # Section 2: 24 accesses for 4K+4K, 15 for 2M+2M, 8 for 1G+1G.
        w = walker()
        assert w.nested_walk_accesses(BASE, BASE) == 24
        assert w.nested_walk_accesses(MID, MID) == 15
        assert w.nested_walk_accesses(LARGE, LARGE) == 8

    def test_nested_mixed_sizes(self):
        w = walker()
        # 1GB guest over 4KB host: (2+1)*(4+1)-1 = 14.
        assert w.nested_walk_accesses(LARGE, BASE) == 14


class TestPageWalker:
    def test_larger_pages_walk_faster(self):
        w = walker()
        c_base = w.native_walk(BASE)
        c_mid = w.native_walk(MID)
        c_large = w.native_walk(LARGE)
        assert c_base > c_mid > c_large

    def test_nested_costs_more_than_native(self):
        w = walker()
        assert w.nested_walk(BASE, BASE) > w.native_walk(
            BASE
        )

    def test_pwc_discount(self):
        hot = walker(WalkConfig(pwc_hit_rate=1.0))
        cold = walker(WalkConfig(pwc_hit_rate=0.0))
        # Perfect PWC: only the leaf access remains.
        assert hot.native_walk(BASE) == WalkConfig().mem_access_cycles
        assert cold.native_walk(BASE) == 4 * WalkConfig().mem_access_cycles

    def test_stats_accumulate(self):
        w = walker()
        w.native_walk(BASE)
        w.native_walk(MID)
        assert w.walks == 2
        assert w.walk_cycles > 0
        w.reset_stats()
        assert w.walks == 0
