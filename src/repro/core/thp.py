"""Linux Transparent Huge Pages: 2MB-only dynamic large pages.

The paper's baseline (``2MB-THP``).  Two mechanisms, as in Section 2:

* the page-fault handler maps a mid (2MB) page when the faulting address
  falls in a mid-mappable, unmapped range and a contiguous chunk is free;
* the ``khugepaged`` daemon scans process address spaces in the background
  and *promotes* mid-mappable ranges currently mapped with base pages,
  compacting physical memory (normal, sequential compaction) when no free
  chunk exists.

Like real THP (``max_ptes_none = 511``), promotion proceeds as soon as a
single base page is present in the range — the source of THP's well-known
memory bloat, which this simulation reproduces and HawkEye's recovery
removes.

The promotion scanner here is deliberately reusable: Trident subclasses this
policy and extends the same daemon with 1GB scanning (exactly how the real
Trident extends khugepaged).

The scanner is a cursor, like Linux khugepaged's per-mm scan position.  A
pass snapshots the process list and walks each process's candidate slots
in scan order (:meth:`THPPolicy._scan_slots`; Trident's is the Figure 5
order).  Each process's list is cached and rebuilt only when its
:attr:`~repro.vm.addrspace.AddressSpace.generation` moves (an mmap or
munmap).  Next to the list sits one *known covered* flag per slot: set
when a probe finds the slot's covering leaf already at least the slot's
size, so later passes charge ``scan_slot_ns`` for it without probing.  The
flags are reset whenever the process's
:attr:`~repro.vm.pagetable.PageTable.nonbase_unmaps` counter moves —
unmapping a leaf above the base level is the only way a covered slot can
become uncovered, so mapping base pages needs no hook.  The counter is
checked at tick start, on entering a process and after every real probe;
a reset flag only costs a re-probe, so the skipping is bit-identical to
probing every slot.  Only the covered verdict is cached: it is the first
check of every THP-derived policy's probe and has no side effects.
"""

from __future__ import annotations

from typing import Callable

from repro.core.policy import MemoryPolicy
from repro.vm.fault import candidate_page_sizes, region_fits_vma
from repro.vm.mappability import mappable_ranges
from repro.vm.pagetable import Mapping


class _ProcessSlots:
    """One process's scan-order candidate slots and known-covered flags."""

    __slots__ = ("generation", "slots", "covered", "unmaps")

    def __init__(self, generation: int, slots: list, unmaps: int) -> None:
        #: the address-space generation the slots were built from
        self.generation = generation
        #: (va, level) candidates in scan order
        self.slots = slots
        #: 1 where the slot's covering leaf is known to be >= its level
        self.covered = bytearray(len(slots))
        #: the page table's non-base unmap count the flags are valid at
        self.unmaps = unmaps

    def revalidate(self, table) -> None:
        """Forget every covered verdict if a non-base leaf was unmapped."""
        if table.nonbase_unmaps != self.unmaps:
            self.covered[:] = bytes(len(self.covered))
            self.unmaps = table.nonbase_unmaps


class _ScanPass:
    """Cursor state of one khugepaged pass."""

    __slots__ = (
        "prefix", "prefix_i", "excluded", "processes", "process_i",
        "process", "slots", "i",
    )

    def __init__(self, prefix: list) -> None:
        #: (process, va, level) candidates scanned before the sequential
        #: order (heat-ranked policies); always probed
        self.prefix = prefix
        self.prefix_i = 0
        #: sequential-order exclusion test, fixed when the prefix is left
        self.excluded: Callable | None = None
        #: process snapshot, taken when the cursor leaves the prefix
        self.processes: list | None = None
        self.process_i = 0
        self.process = None
        self.slots: _ProcessSlots | None = None
        self.i = 0


class THPPolicy(MemoryPolicy):
    """2MB-only transparent huge pages with khugepaged promotion."""

    name = "2MB-THP"
    #: ns charged per candidate slot examined by the scanner
    scan_slot_ns = 400.0
    #: minimum fraction of a slot that must be populated before promotion
    #: (0.0 reproduces THP's max_ptes_none=511: one page is enough)
    min_present_fraction_mid = 0.0
    #: transparent_hugepage/defrag: "defer" (default here and in modern
    #: Linux) never stalls a fault on compaction; "always" compacts
    #: synchronously inside the fault - the allocation-latency-spike
    #: behaviour Ingens/Quicksilver criticize
    defrag = "defer"

    def __init__(self, kernel, defrag: str | None = None) -> None:
        super().__init__(kernel)
        if defrag is not None:
            if defrag not in ("defer", "always"):
                raise ValueError(f"unknown defrag mode {defrag!r}")
            self.defrag = defrag
        #: the in-progress pass (None between passes)
        self._pass: _ScanPass | None = None
        #: cached candidate slots, keyed by process object
        self._slot_cache: dict = {}
        #: CPU time overdrawn from previous ticks (a promotion or compaction
        #: can overshoot one quantum; a capped khugepaged must repay it
        #: before doing more work - how cgroup CPU caps behave)
        self._debt_ns = 0.0

    # -- page-fault handler ---------------------------------------------------
    def handle_fault(self, process, va: int) -> float:
        vma = process.aspace.find_vma(va)
        if vma is None:
            raise ValueError(f"fault at unmapped va {va:#x} (no VMA)")
        geometry = self.kernel.geometry
        extent = process.aspace.extent_of(va)
        sizes = candidate_page_sizes(va, extent, process.pagetable, geometry)
        thp = geometry.thp_level
        if thp in sizes:
            latency = self._try_fault_map(process, va, thp)
            if latency is not None:
                return latency
        return self._map_base_fault(process, va)

    def _try_fault_map(self, process, va: int, page_size: int) -> float | None:
        geometry = self.kernel.geometry
        pfn = self.kernel.buddy.try_alloc(geometry.order_for(page_size))
        sync_compaction_ns = 0.0
        if pfn is None and self.defrag == "always":
            # Synchronous fault-time compaction: the faulting thread stalls.
            result = self.kernel.normal_compactor.compact(
                geometry.order_for(page_size)
            )
            sync_compaction_ns = result.time_ns
            if result.success:
                pfn = self.kernel.buddy.try_alloc(geometry.order_for(page_size))
        if pfn is None:
            if sync_compaction_ns:
                self.stats.fault_ns += sync_compaction_ns  # stalled for nothing
            return None
        start = geometry.align_down(va, page_size)
        self._install(process, start, page_size, pfn)
        cost = self.kernel.cost
        latency = (
            cost.fault_fixed_ns
            + cost.zero_ns(geometry.bytes_for(page_size))
            + sync_compaction_ns
        )
        return self._record_fault(latency, page_size)

    # -- khugepaged -------------------------------------------------------------
    def background_tick(self, budget_ns: float) -> float:
        budget_ns -= self._debt_ns
        if budget_ns <= 0:
            self._debt_ns = -budget_ns
            return 0.0
        self._debt_ns = 0.0
        used = self._scan(budget_ns)
        if used > budget_ns:
            self._debt_ns = used - budget_ns
        self.stats.daemon_ns += used
        return used

    @property
    def throttled(self) -> bool:
        return self._debt_ns > 0.0

    def _scan(self, budget_ns: float) -> float:
        """Advance the scan cursor until the budget is spent or the pass
        ends (a finished pass ends the tick; the next tick starts another).

        Every candidate reached costs ``scan_slot_ns``; slots known to be
        covered cost only that, added one at a time so the float sums
        match a probe of every slot.  Returns ns used.
        """
        slot_ns = self.scan_slot_ns
        used = 0.0
        scan = self._pass
        if scan is not None and scan.slots is not None:
            scan.slots.revalidate(scan.process.pagetable)
        while used < budget_ns:
            if scan is None:
                scan = self._pass = _ScanPass(self._scan_prefix())
            if scan.processes is None:
                if scan.prefix_i < len(scan.prefix):
                    process, va, size = scan.prefix[scan.prefix_i]
                    scan.prefix_i += 1
                    self._reach_prefix(process, va)
                    used += slot_ns
                    used += self._try_promote(
                        process, va, size, budget_ns - used
                    )
                    continue
                scan.excluded = self._leave_prefix(scan.prefix)
                scan.processes = list(self.kernel.processes)
                live = set(scan.processes)
                self._slot_cache = {
                    p: v for p, v in self._slot_cache.items() if p in live
                }
            entry = scan.slots
            if entry is None or scan.i >= len(entry.slots):
                if scan.process_i == len(scan.processes):
                    self._pass = None
                    break
                scan.process = scan.processes[scan.process_i]
                scan.process_i += 1
                scan.slots = self._process_slots(scan.process)
                scan.i = 0
                continue
            i = scan.i
            covered = entry.covered
            if scan.excluded is None and covered[i]:
                n = len(covered)
                while True:
                    used += slot_ns
                    i += 1
                    if i == n or not covered[i] or used >= budget_ns:
                        break
                scan.i = i
                continue
            scan.i = i + 1
            process = scan.process
            va, size = entry.slots[i]
            if scan.excluded is not None and scan.excluded(process, va, size):
                continue
            used += slot_ns
            if covered[i]:
                continue
            used += self._try_promote(process, va, size, budget_ns - used)
            table = process.pagetable
            entry.revalidate(table)
            leaf = table.translate(va)
            if leaf is not None and leaf.page_size >= size:
                covered[i] = 1
        return used

    def _process_slots(self, process) -> _ProcessSlots:
        """``process``'s cached candidates, rebuilt if its VMAs changed."""
        aspace = process.aspace
        table = process.pagetable
        entry = self._slot_cache.get(process)
        if entry is None or entry.generation != aspace.generation:
            entry = _ProcessSlots(
                aspace.generation,
                self._scan_slots(aspace.iter_extents()),
                table.nonbase_unmaps,
            )
            self._slot_cache[process] = entry
        else:
            entry.revalidate(table)
        return entry

    def _scan_slots(self, extents) -> list[tuple[int, int]]:
        """Candidate (va, level) slots of one address space, scan order."""
        geometry = self.kernel.geometry
        thp = geometry.thp_level
        return [
            (start, thp)
            for vma in extents
            for start, _ in mappable_ranges(vma, thp, geometry)
        ]

    def _scan_prefix(self) -> list[tuple]:
        """(process, va, level) candidates a pass scans before the
        sequential order; taken when the pass starts."""
        return []

    def _reach_prefix(self, process, va: int) -> None:
        """Hook run as the cursor reaches a prefix candidate."""

    def _leave_prefix(self, prefix: list[tuple]) -> Callable | None:
        """Hook run as the cursor leaves the prefix.

        Returns a ``(process, va, level) -> bool`` test for sequential
        candidates to pass over uncharged, or None to exclude none.  The
        test runs when the cursor reaches each candidate.
        """
        return None

    # -- promotion mechanics (shared with subclasses) ---------------------------
    def _slot_contents(
        self, process, va: int, page_size: int
    ) -> list[Mapping] | None:
        """Smaller mappings inside the slot, or None if not promotable.

        Revalidates everything (the candidate may be stale): the slot must
        still sit inside a VMA, must not already contain a >= ``page_size``
        mapping, and must have at least one present page.
        """
        geometry = self.kernel.geometry
        table = process.pagetable
        # Cheapest rejection first: in steady state most candidates are
        # already promoted, and translate() is one dict probe vs the VMA
        # walk below.
        covering = table.translate(va)
        if covering is not None and covering.page_size >= page_size:
            return None
        vma = process.aspace.extent_of(va)
        if vma is None or not region_fits_vma(va, page_size, vma, geometry):
            return None
        nbytes = geometry.bytes_for(page_size)
        present: list[Mapping] = []
        for size in range(page_size):
            present.extend(table.mappings_in_range(va, nbytes, size))
        if not present:
            return None
        min_fraction = (
            self.min_present_fraction_mid
            if page_size == geometry.thp_level
            else 0.0
        )
        present_bytes = sum(geometry.bytes_for(m.page_size) for m in present)
        if present_bytes < min_fraction * nbytes:
            return None
        return present

    def _try_promote(
        self, process, va: int, page_size: int, budget_ns: float = float("inf")
    ) -> float:
        """Attempt one promotion; returns daemon ns spent (scan + copy)."""
        present = self._slot_contents(process, va, page_size)
        if present is None:
            return 0.0
        pfn, alloc_ns = self._alloc_for_promotion(page_size, budget_ns)
        if pfn is None:
            return alloc_ns
        return alloc_ns + self._promote(process, va, page_size, pfn, present)

    def _alloc_for_promotion(
        self, page_size: int, budget_ns: float = float("inf")
    ) -> tuple[int | None, float]:
        """Get a contiguous block for promotion, compacting if needed.

        THP uses normal compaction for 2MB chunks.  Returns (pfn, ns spent).
        """
        order = self.kernel.geometry.order_for(page_size)
        pfn = self.kernel.buddy.try_alloc(order)
        if pfn is not None:
            return pfn, 0.0
        result = self.kernel.normal_compactor.compact(order, budget_ns)
        if not result.success and result.time_ns < budget_ns:
            # Linux interleaves reclaim with compaction: drop page cache to
            # give the compactor free slots to move pages into, then retry.
            if self.kernel.reclaim(2 << order):
                retry = self.kernel.normal_compactor.compact(
                    order, budget_ns - result.time_ns
                )
                result.merge(retry)
        pfn = self.kernel.buddy.try_alloc(order) if result.success else None
        return pfn, result.time_ns

    def _promote(
        self, process, va: int, page_size: int, pfn: int, present: list[Mapping]
    ) -> float:
        """Replace ``present`` small mappings with one ``page_size`` mapping.

        Copies the present contents into the new block, zeroes the rest,
        frees the old frames and shoots down the TLB.  Returns ns of work.
        """
        geometry = self.kernel.geometry
        cost = self.kernel.cost
        nbytes = geometry.bytes_for(page_size)
        present_bytes = sum(geometry.bytes_for(m.page_size) for m in present)
        for mapping in present:
            process.pagetable.unmap(mapping.va, mapping.page_size)
            self._teardown(process, mapping)
        self._install(process, va, page_size, pfn)
        process.tlb.invalidate_range(va, nbytes)
        self.stats.promoted[page_size] += 1
        self.stats.promo_copy_bytes += present_bytes
        tr = self._tracer
        if tr is not None and tr.active:
            tr.emit(
                "policy", "promote", va=va,
                size=geometry.label_for(page_size),
                copied_bytes=present_bytes, small_mappings=len(present),
            )
        return (
            cost.copy_ns(present_bytes)
            + cost.zero_ns(nbytes - present_bytes)
            + cost.pte_update_ns * (len(present) + 1)
        )
