"""Trident: transparent dynamic allocation of all three page sizes.

The paper's core contribution (Section 5).  Four changes over THP, matching
the four kernel modifications:

1. the buddy allocator already tracks free chunks up to the large order
   (:mod:`repro.mem.buddy` is constructed that way by the system);
2. the page-fault handler tries a 1GB page first (taking a pre-zeroed block
   from the async zero-fill pool when available — 2.7 ms instead of 400 ms),
   falling back to 2MB, then 4KB;
3. khugepaged additionally scans for 1GB-mappable ranges mapped with smaller
   pages and promotes them, per the Figure 5 flowchart — and when a 1GB
   chunk cannot be produced, falls back to promoting the range's 2MB
   sub-slots so TLB resources are never left idle;
4. 1GB chunks are created by *smart compaction* rather than Linux's
   sequential scan.

Ablations used in Figure 11 are flags: ``use_mid=False`` gives
Trident-1Gonly, ``smart_compaction=False`` gives Trident-NC.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.thp import THPPolicy
from repro.vm.fault import candidate_page_sizes
from repro.vm.mappability import mappable_ranges


class TridentPolicy(THPPolicy):
    """All-page-size policy: 1GB preferred, 2MB fallback, 4KB last."""

    name = "Trident"
    #: fraction of each daemon tick handed to the async zero-fill thread
    zerofill_budget_fraction = 0.3

    def __init__(
        self,
        kernel,
        use_mid: bool = True,
        smart_compaction: bool = True,
        promote: bool = True,
    ) -> None:
        super().__init__(kernel)
        self.use_mid = use_mid
        self.smart_compaction = smart_compaction
        self.promote = promote
        if not promote:
            self.name = "Trident-PFonly"
        elif not use_mid:
            self.name = "Trident-1Gonly"
        elif not smart_compaction:
            self.name = "Trident-NC"

    # -- page-fault handler ------------------------------------------------
    def handle_fault(self, process, va: int) -> float:
        vma = process.aspace.find_vma(va)
        if vma is None:
            raise ValueError(f"fault at unmapped va {va:#x} (no VMA)")
        geometry = self.kernel.geometry
        extent = process.aspace.extent_of(va)
        sizes = candidate_page_sizes(va, extent, process.pagetable, geometry)
        top = geometry.top_level
        if top in sizes:
            latency = self._try_large_fault(process, va)
            if latency is not None:
                return latency
        if self.use_mid:
            # Intermediate levels, largest first (candidate_page_sizes
            # yields them descending); base is the universal fallback.
            for size in sizes:
                if size == top or size == 0:
                    continue
                latency = self._try_fault_map(process, va, size)
                if latency is not None:
                    return latency
        return self._map_base_fault(process, va)

    def _try_large_fault(self, process, va: int) -> float | None:
        geometry = self.kernel.geometry
        self.stats.fault_large_attempts += 1
        used_pool = True
        pfn = self.kernel.zerofill.take_zeroed()
        if pfn is None:
            used_pool = False
            pfn = self.kernel.buddy.try_alloc(geometry.large_order)
        if pfn is None:
            # Page faults never compact (that would stall the application);
            # khugepaged will promote this range later if memory allows.
            self.stats.fault_large_failures += 1
            tr = self._tracer
            if tr is not None and tr.active:
                tr.emit(
                    "policy", "large_fault_fallback", va=va,
                    reason="no_contiguous_block",
                )
            return None
        top = geometry.top_level
        start = geometry.align_down(va, top)
        self._install(process, start, top, pfn)
        latency = self.kernel.zerofill.fault_ns(top, used_pool)
        # kzerofilld runs on another core: the wall time this fault takes,
        # plus the time the application spends initializing the region
        # before touching the next one (~ writing one large page), is time
        # it spends pre-zeroing the next block for the pool.
        self.kernel.zerofill.background_fill(
            latency + 0.5 * self.kernel.cost.zero_ns(geometry.large_size),
            concurrent=True,
        )
        return self._record_fault(latency, top)

    # -- extended khugepaged (Figure 5) ---------------------------------------
    def background_tick(self, budget_ns: float) -> float:
        zf_budget = budget_ns * self.zerofill_budget_fraction
        used = self.kernel.zerofill.background_fill(zf_budget)
        if self.promote:
            used += super().background_tick(budget_ns - used)
        else:
            self.stats.daemon_ns += used
        return used

    def _scan_slots(self, extents) -> list[tuple[int, int]]:
        """Figure 5 scan order, per extent: top-level slots first, then
        each lower level's leftover slots outside the next level up's
        interior."""
        geometry = self.kernel.geometry
        top = geometry.top_level
        slots: list[tuple[int, int]] = []
        for vma in extents:
            slots.extend(
                (start, top) for start, _ in mappable_ranges(vma, top, geometry)
            )
            if not self.use_mid:
                continue
            for level in range(top - 1, 0, -1):
                # Slots outside the (level+1)-mappable interior — the
                # interiors nest, so checking one level up suffices.
                # The covering slots are sorted and disjoint, so one
                # bisect per slot replaces the O(n x m) linear overlap
                # scan — many-VMA address spaces keep the build linear.
                covered = list(mappable_ranges(vma, level + 1, geometry))
                starts = [s for s, _ in covered]
                for start, _ in mappable_ranges(vma, level, geometry):
                    i = bisect_right(starts, start) - 1
                    inside = i >= 0 and start < covered[i][1]
                    if not inside:
                        slots.append((start, level))
        return slots

    def _try_promote(
        self, process, va: int, page_size: int, budget_ns: float = float("inf")
    ) -> float:
        top = self.kernel.geometry.top_level
        if page_size != top:
            return super()._try_promote(process, va, page_size, budget_ns)
        present = self._slot_contents(process, va, top)
        if present is None:
            return 0.0
        self.stats.promo_large_attempts += 1
        pfn, spent = self._alloc_large_for_promotion(budget_ns)
        if pfn is not None:
            return spent + self._promote(process, va, top, pfn, present)
        self.stats.promo_large_failures += 1
        tr = self._tracer
        if tr is not None and tr.active:
            # The Figure 5 decision point: no 1GB chunk could be produced,
            # fall back to the slot's 2MB sub-ranges (or give up).
            tr.emit(
                "policy", "promo_large_fallback", va=va,
                to_mid=self.use_mid, spent_ns=spent,
            )
        if not self.use_mid:
            return spent
        # Figure 5 fallback: promote the slot's sub-ranges at the next
        # level down instead, so TLB resources are never left idle.
        geometry = self.kernel.geometry
        sub = top - 1
        for sub_va in range(
            va, va + geometry.bytes_for(top), geometry.bytes_for(sub)
        ):
            spent += super()._try_promote(
                process, sub_va, sub, budget_ns - spent
            )
        return spent

    def _alloc_large_for_promotion(
        self, budget_ns: float = float("inf")
    ) -> tuple[int | None, float]:
        """1GB chunk for promotion: pool, buddy, then (smart) compaction."""
        pfn = self.kernel.zerofill.take_zeroed()
        if pfn is not None:
            return pfn, 0.0
        order = self.kernel.geometry.large_order
        pfn = self.kernel.buddy.try_alloc(order)
        if pfn is not None:
            return pfn, 0.0
        compactor = (
            self.kernel.smart_compactor
            if self.smart_compaction
            else self.kernel.normal_compactor
        )
        result = compactor.compact(order, budget_ns)
        if not result.success and result.time_ns < budget_ns:
            # Reclaim-then-retry, as Linux's reclaim/compaction loop does:
            # page cache comes back as scattered free frames the compactor
            # can move occupied pages into.
            if self.kernel.reclaim(2 << order):
                retry = compactor.compact(order, budget_ns - result.time_ns)
                result.merge(retry)
        pfn = self.kernel.buddy.try_alloc(order) if result.success else None
        return pfn, result.time_ns
