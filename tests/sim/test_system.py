"""Tests for the System orchestration layer and the performance model."""

import numpy as np
import pytest

from repro.config import default_machine
from repro.core.thp import THPPolicy
from repro.core.trident import TridentPolicy
from repro.mem.numa import NumaTopology
from repro.sim.perfmodel import PerfModel, RunMetrics
from repro.sim.system import System

MACHINE = default_machine(16)
G = MACHINE.geometry
BASE, MID, LARGE = G.base_size, G.mid_size, G.large_size
LVL_BASE, LVL_MID, LVL_LARGE = 0, 1, 2  # geometry level indices


def make(policy=TridentPolicy, regions=16, **kw):
    system = System(default_machine(regions), policy, seed=5, **kw)
    return system, system.create_process("t")


class TestSystem:
    def test_boot_reserves_kernel_memory(self):
        system, _ = make()
        assert system.buddy.used_frames > 0
        assert (system.regions.unmovable_frames > 0).any()

    def test_touch_faults_once_per_page(self):
        system, p = make(policy=THPPolicy)
        addr = system.sys_mmap(p, 2 * MID)
        system.touch(p, addr)
        system.touch(p, addr + 1)
        system.touch(p, addr + MID)
        assert p.faults == 2  # two mid pages, one fault each

    def test_touch_batch_accepts_numpy(self):
        system, p = make()
        addr = system.sys_mmap(p, MID)
        vas = addr + np.arange(0, MID, BASE)
        system.touch_batch(p, vas)
        assert p.tlb.stats.accesses == len(vas)

    def test_touched_pages_tracked(self):
        system, p = make()
        addr = system.sys_mmap(p, MID)
        system.touch(p, addr)
        system.touch(p, addr + BASE)
        assert p.touched_base_pages_in(addr, MID) == 2
        assert p.touched_base_vas_in(addr, 2 * BASE) == [addr, addr + BASE]

    def test_daemons_run_on_access_cadence(self):
        system, p = make(daemon_period_accesses=50)
        addr = system.sys_mmap(p, MID)
        for i in range(120):
            system.touch(p, addr + (i % 16) * BASE)
        assert system.daemon_ns_total > 0

    def test_fragment_then_fmfi(self):
        system, _ = make(regions=24)
        index = system.fragment()
        assert index > 0.8
        assert system.fmfi > 0.8

    def test_reclaim_unregisters_rmap(self):
        system, _ = make(regions=24)
        system.fragment(residual_fraction=0.5)
        rmap_before = len(system.rmap)
        freed = system.reclaim(50)
        assert freed >= 50
        assert len(system.rmap) <= rmap_before - 50

    def test_settle_until_quiet_terminates(self):
        system, p = make()
        for _ in range(G.mids_per_large):
            a = system.sys_mmap(p, MID)
            system.touch(p, a)
        ticks = system.settle_until_quiet(max_ticks=200, budget_ns=1e9)
        assert ticks < 200

    def test_mapped_bytes_by_size(self):
        system, p = make()
        addr = system.sys_mmap(p, LARGE)
        system.touch(p, addr)
        by_size = system.mapped_bytes_by_size(p)
        assert by_size[LVL_LARGE] == LARGE

    @pytest.mark.parametrize("nodes", [1, 2])
    @pytest.mark.parametrize("home_node", [-1, 2, 5])
    def test_home_node_outside_topology_rejected(self, nodes, home_node):
        system = System(
            default_machine(16), TridentPolicy, numa=NumaTopology(nodes=nodes)
        )
        with pytest.raises(ValueError, match="home_node"):
            system.create_process(home_node=home_node)
        assert system.processes == []

    def test_default_machine_is_one_node(self):
        system, p = make()
        assert system.numa == NumaTopology()
        assert system.buddy.nodes == 1 and p.home_node == 0


class TestPerfModel:
    def make_metrics(self, **overrides):
        defaults = dict(
            policy="x",
            workload="w",
            accesses=10_000,
            translation_cycles=50_000.0,
            walk_cycles=40_000.0,
            walks=500,
            fault_ns=1e6,
            daemon_ns=2e6,
            represented_accesses=1_000_000,
            cpi_base=100.0,
        )
        defaults.update(overrides)
        return RunMetrics(**defaults)

    def test_runtime_composition(self):
        m = self.make_metrics()
        compute_ns = 1_000_000 * (100.0 + 5.0) / 2.3
        assert m.runtime_ns == pytest.approx(compute_ns + 1e6 + 0.1 * 2e6)

    def test_fault_parallelism_divides_fault_time(self):
        serial = self.make_metrics(fault_parallelism=1)
        parallel = self.make_metrics(fault_parallelism=36)
        assert parallel.runtime_ns < serial.runtime_ns
        assert parallel.effective_fault_ns == pytest.approx(1e6 / 36)

    def test_walk_exposure_discounts_translation_only(self):
        full = self.make_metrics(walk_exposure=1.0)
        half = self.make_metrics(walk_exposure=0.5)
        assert half.runtime_ns < full.runtime_ns
        # The counter-style walk fraction is not exposure-discounted.
        assert half.walk_cycle_fraction == pytest.approx(full.walk_cycle_fraction)

    def test_walk_fraction_bounded(self):
        m = self.make_metrics(
            translation_cycles=10_000_000.0, walk_cycles=9_000_000.0
        )
        assert 0.0 < m.walk_cycle_fraction < 1.0

    def test_speedup_is_inverse_runtime_ratio(self):
        fast = self.make_metrics(translation_cycles=0.0, walk_cycles=0.0)
        slow = self.make_metrics()
        assert fast.speedup_over(slow) > 1.0
        assert slow.speedup_over(fast) < 1.0
        assert fast.speedup_over(fast) == pytest.approx(1.0)

    def test_percentiles(self):
        m = self.make_metrics()
        m.request_latencies_ns = list(float(x) for x in range(1, 101))
        assert m.percentile_latency_ns(50) == pytest.approx(50.0, abs=1.0)
        assert m.percentile_latency_ns(99) == pytest.approx(99.0, abs=1.0)
        empty = self.make_metrics()
        assert empty.percentile_latency_ns(99) == 0.0

    def test_collect_pulls_system_counters(self):
        system, p = make()
        addr = system.sys_mmap(p, MID)
        system.touch(p, addr)
        model = PerfModel(cpi_base=50.0, represented_accesses=1000)
        m = model.collect(system, p, "w")
        assert m.accesses == 1
        assert m.fault_ns > 0
        assert m.mapped_bytes_by_size[LVL_MID] == MID

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfModel(cpi_base=0, represented_accesses=10)
        with pytest.raises(ValueError):
            PerfModel(cpi_base=1, represented_accesses=0)
