"""Ablation benches for design choices DESIGN.md calls out.

Beyond the paper's own Figure 11 ablation, these cover:

* async vs sync zero-fill (the Section 5.1.2 latency claim, as a system-level
  effect on fault latency totals);
* hypercall batching factor (Section 6's batching design);
* smart compaction's source-selection rule (most-free-first vs arbitrary),
  isolating *why* smart compaction copies less.
"""

import random

from repro.config import X86_GEOMETRY, CostModel, x86_ladder
from repro.core.compaction import SmartCompactor
from repro.core.rmap import ReverseMap
from repro.experiments.runner import NativeRunner, RunConfig
from repro.mem.buddy import BuddyAllocator
from repro.mem.regions import RegionTracker


def test_async_zerofill_ablation(once):
    """Trident's large-fault latency with and without the zero-fill pool."""

    def run():
        out = {}
        for policy in ("Trident", "Trident-PFonly"):
            metrics = NativeRunner(
                RunConfig("GUPS", policy, n_accesses=10_000, machine_regions=64)
            ).run()
            out[policy] = metrics
        return out

    out = once(run)
    m = out["Trident"]
    # The pool converts most large faults into ~2.7 ms mapped faults; the
    # average large-fault latency sits far below the ~400 ms sync cost.
    large_faults = m.fault_mapped[2]
    assert large_faults > 0
    avg_fault_ns = m.fault_ns / max(1, sum(m.fault_mapped.values()))
    sync_ns = CostModel().scaled_for(
        NativeRunner(RunConfig("GUPS", "4KB", n_accesses=1)).machine.geometry
    ).zero_ns(NativeRunner(RunConfig("GUPS", "4KB", n_accesses=1)).machine.geometry.large_size)
    assert avg_fault_ns < sync_ns


def test_hypercall_batching_sweep(once):
    """Batched exchange latency falls monotonically with batch size."""
    from repro.virt.hypercall import PVExchangeInterface

    def run():
        cost = CostModel()
        exchanges = X86_GEOMETRY.mids_per_large
        results = {}
        for batch in (1, 4, 32, 128, 512):
            calls = -(-exchanges // batch)
            results[batch] = (
                calls * cost.hypercall_ns + exchanges * cost.exchange_batched_ns
            )
        results["unbatched"] = exchanges * (
            cost.hypercall_ns + cost.exchange_unbatched_ns
        )
        results["copy"] = cost.copy_ns(X86_GEOMETRY.large_size)
        return results

    results = once(run)
    latencies = [results[b] for b in (1, 4, 32, 128, 512)]
    assert latencies == sorted(latencies, reverse=True)
    assert results[512] < results["unbatched"] < results["copy"]


def test_smart_source_selection_ablation(once):
    """Most-free-first source selection is what cuts the copy volume."""
    GEOM = x86_ladder(2, 6)

    class Owner:
        def relocate(self, old, new, order):
            pass

    def build(seed):
        total = 8 * GEOM.frames_per_large
        tracker = RegionTracker(total, GEOM)
        buddy = BuddyAllocator(total, GEOM.large_order, listeners=(tracker,))
        rmap = ReverseMap()
        rng = random.Random(seed)
        pfns = [buddy.alloc(0) for _ in range(total)]
        rng.shuffle(pfns)
        for pfn in pfns[total // 2 :]:
            buddy.free(pfn)
        owner = Owner()
        for pfn in pfns[: total // 2]:
            rmap.register(pfn, 0, owner)
        return buddy, tracker, rmap

    class ArbitrarySourceCompactor(SmartCompactor):
        """Smart mechanics but picks sources in address order (ablated)."""

        def compact(self, order, budget_ns=float("inf"), max_sources=8):
            from repro.core.compaction import CompactionResult

            result = CompactionResult(success=False)
            if self.buddy.has_free_block(order):
                result.success = True
                return result
            tried = 0
            for source in sorted(self.regions.best_source_regions()):
                if tried >= max_sources:
                    break
                tried += 1
                if self._evacuate_selected(source, result, budget_ns):
                    if self.buddy.has_free_block(order):
                        result.success = True
                        break
            self.stats.record(result)
            return result

    def run():
        out = {}
        for cls in (SmartCompactor, ArbitrarySourceCompactor):
            buddy, tracker, rmap = build(seed=9)
            compactor = cls(buddy, tracker, rmap, GEOM, CostModel())
            res = compactor.compact(GEOM.large_order)
            out[cls.__name__] = res.bytes_copied if res.success else None
        return out

    out = once(run)
    if out["SmartCompactor"] is not None and out["ArbitrarySourceCompactor"] is not None:
        assert out["SmartCompactor"] <= out["ArbitrarySourceCompactor"]
