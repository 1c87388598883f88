"""Trident-heat: access-driven promotion ordering (paper's future work)."""

import numpy as np

from repro.config import default_machine
from repro.core.trident_heat import TridentHeatPolicy
from repro.sim.system import System

G = default_machine(16).geometry
BASE, MID, LARGE = G.base_size, G.mid_size, G.large_size
LVL_BASE, LVL_MID, LVL_LARGE = 0, 1, 2  # geometry level indices


def make(regions=24):
    system = System(default_machine(regions), TridentHeatPolicy, seed=3)
    return system, system.create_process("t")


class TestTridentHeat:
    def test_behaves_like_trident_on_faults(self):
        system, p = make()
        addr = system.sys_mmap(p, 2 * LARGE)
        system.touch(p, addr)
        assert p.pagetable.translate(addr).page_size == LVL_LARGE

    def test_promotes_eventually(self):
        system, p = make()
        for _ in range(G.mids_per_large):
            a = system.sys_mmap(p, MID)
            system.touch(p, a)
        system.settle_until_quiet(budget_ns=1e9)
        assert p.pagetable.count(LVL_LARGE) >= 1

    def test_hot_slot_promoted_before_cold(self):
        system, p = make(regions=32)
        # Two mid-mapped 1GB-mappable regions; one is hot.
        rng = np.random.default_rng(0)
        cold, hot = [], []
        for bucket in (cold, hot):
            for _ in range(G.mids_per_large):
                a = system.sys_mmap(p, MID)
                system.touch(p, a)
                bucket.append(a)
        for _ in range(6):
            for a in hot:
                system.touch(p, a + int(rng.integers(0, MID)))
        # One sampling tick plus a budget for exactly one large promotion.
        promo_cost = system.cost.copy_ns(LARGE) * 1.4
        system.run_daemons(budget_ns=promo_cost)
        larges = [m.va for m in p.pagetable.iter_mappings(LVL_LARGE)]
        if larges:
            hot_extent = p.aspace.extent_of(hot[0])
            assert any(hot_extent.start <= va < hot_extent.end for va in larges)

    def test_heat_decays(self):
        system, p = make()
        policy = system.policy
        policy._heat[(p.pid, 0)] = 8
        # One full pass: the hot (unmapped) slot, then no sequential slots.
        policy._scan(budget_ns=1e9)
        assert policy._pass is None
        assert policy._heat.get((p.pid, 0), 0) == 4
