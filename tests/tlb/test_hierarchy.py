"""Tests for the TLB hierarchy and nested translation."""

import pytest

from repro.config import SCALED_GEOMETRY, TLBConfig, WalkConfig, x86_ladder
from repro.tlb.hierarchy import TLBHierarchy
from repro.tlb.nested import NestedTranslationUnit
from repro.vm.pagetable import PageTable

G = SCALED_GEOMETRY
BASE, MID, LARGE = G.base_size, G.mid_size, G.large_size
LVL_BASE, LVL_MID, LVL_LARGE = 0, 1, 2  # geometry level indices
VA0 = 0x7000_0000_0000

#: G's orders with Skylake TLB shapes, and with tiny ones
SKYLAKE_TLB = x86_ladder(G.mid_order, G.large_order)
TINY_TLB = x86_ladder(
    G.mid_order,
    G.large_order,
    l1=(TLBConfig(4, 2), TLBConfig(4, 2), TLBConfig(2, 2)),
    l2_groups=(("shared", TLBConfig(16, 4)), ("large", TLBConfig(4, 2))),
)


def make_hierarchy(geometry=None):
    return TLBHierarchy(WalkConfig(), geometry or SKYLAKE_TLB)


class TestTLBHierarchy:
    def test_first_access_walks_second_hits(self):
        h = make_hierarchy()
        t = PageTable(G)
        m = t.map_page(VA0, LVL_BASE, 0)
        c1 = h.access(VA0, m)
        c2 = h.access(VA0, m)
        assert c1 > 0
        assert c2 == 0.0
        assert h.stats.walks == 1
        assert h.stats.l1_hits == 1

    def test_access_sets_accessed_bit(self):
        h = make_hierarchy()
        t = PageTable(G)
        m = t.map_page(VA0, LVL_BASE, 0)
        assert not m.accessed
        h.access(VA0, m)
        assert m.accessed

    def test_l2_hit_cheaper_than_walk(self):
        h = make_hierarchy(TINY_TLB)
        t = PageTable(G)
        maps = [t.map_page(VA0 + i * BASE, LVL_BASE, i) for i in range(8)]
        # Touch enough pages in one L1 set's worth to evict from L1 but stay
        # in the bigger L2, then re-touch the first.
        for i, m in enumerate(maps):
            h.access(VA0 + i * BASE, m)
        cost = h.access(VA0, maps[0])
        assert 0 < cost <= WalkConfig().l2_tlb_hit_cycles

    def test_large_pages_cover_more_with_fewer_entries(self):
        h = make_hierarchy(TINY_TLB)
        t = PageTable(G)
        m = t.map_page(VA0, LVL_LARGE, 0)
        # Every base page inside one large page hits after the first walk.
        for i in range(20):
            h.access(VA0 + i * BASE, m)
        assert h.stats.walks == 1

    def test_base_mappings_thrash_where_large_do_not(self):
        footprint = 4 * MID
        # Same footprint, base vs large mappings, uniform sweep twice.
        t = PageTable(G)
        h_base = make_hierarchy(TINY_TLB)
        maps = {}
        for va in range(VA0, VA0 + footprint, BASE):
            maps[va] = t.map_page(va, LVL_BASE, (va - VA0) // BASE)
        for _ in range(2):
            for va in range(VA0, VA0 + footprint, BASE):
                h_base.access(va, maps[va])
        t2 = PageTable(G)
        h_large = make_hierarchy(TINY_TLB)
        m = t2.map_page(VA0, LVL_LARGE, 0)
        for _ in range(2):
            for va in range(VA0, VA0 + footprint, BASE):
                h_large.access(va, m)
        assert h_large.stats.walk_cycles < h_base.stats.walk_cycles / 10

    def test_invalidate_range_forces_rewalk(self):
        h = make_hierarchy()
        t = PageTable(G)
        m = t.map_page(VA0, LVL_MID, 0)
        h.access(VA0, m)
        h.invalidate_range(VA0, MID)
        c = h.access(VA0, m)
        assert c > 0
        assert h.stats.walks == 2

    def test_flush(self):
        h = make_hierarchy()
        t = PageTable(G)
        m = t.map_page(VA0, LVL_BASE, 0)
        h.access(VA0, m)
        h.flush()
        assert h.access(VA0, m) > 0

    def test_reset_stats(self):
        h = make_hierarchy()
        t = PageTable(G)
        m = t.map_page(VA0, LVL_BASE, 0)
        h.access(VA0, m)
        h.reset_stats()
        assert h.stats.accesses == 0
        assert h.stats.walk_cycles == 0


class TestNestedTranslation:
    def make_nested(self, guest_size, host_size):
        guest_table = PageTable(G)
        host_table = PageTable(G)
        gm = guest_table.map_page(VA0, guest_size, pfn=0)
        # Identity-ish host mapping of the guest-physical range at host_size.
        gpa_len = G.bytes_for(guest_size)
        for gpa in range(0, gpa_len, G.bytes_for(host_size)):
            host_table.map_page(gpa, host_size, pfn=gpa // G.base_size + 1000)
        unit = NestedTranslationUnit(WalkConfig(), TINY_TLB, host_table)
        return unit, gm

    def test_nested_walk_cost_ordering(self):
        costs = {}
        for size in (LVL_BASE, LVL_MID, LVL_LARGE):
            unit, gm = self.make_nested(size, size)
            costs[size] = unit.access(VA0, gm)
        assert costs[LVL_BASE] > costs[LVL_MID] > costs[LVL_LARGE]

    def test_effective_size_is_min_of_levels(self):
        # 1GB guest page over 4KB host pages: cached at 4KB granularity, so
        # the next base page misses again.
        unit, gm = self.make_nested(LVL_LARGE, LVL_BASE)
        unit.access(VA0, gm)
        unit.access(VA0 + BASE, gm)
        assert unit.stats.walks == 2
        # 1GB over 1GB: second base page hits.
        unit2, gm2 = self.make_nested(LVL_LARGE, LVL_LARGE)
        unit2.access(VA0, gm2)
        unit2.access(VA0 + BASE, gm2)
        assert unit2.stats.walks == 1

    def test_missing_host_mapping_raises(self):
        guest_table = PageTable(G)
        host_table = PageTable(G)
        gm = guest_table.map_page(VA0, LVL_BASE, pfn=0)
        unit = NestedTranslationUnit(WalkConfig(), TINY_TLB, host_table)
        with pytest.raises(LookupError):
            unit.access(VA0, gm)

    def test_sets_access_bits_at_both_levels(self):
        unit, gm = self.make_nested(LVL_MID, LVL_MID)
        unit.access(VA0, gm)
        assert gm.accessed
        hm = unit.host_table.translate(0)
        assert hm.accessed

    def test_invalidate_range(self):
        unit, gm = self.make_nested(LVL_MID, LVL_MID)
        unit.access(VA0, gm)
        unit.invalidate_range(VA0, MID)
        unit.access(VA0, gm)
        assert unit.stats.walks == 2
