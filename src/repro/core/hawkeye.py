"""HawkEye (ASPLOS '19): fine-grained, TLB-miss-aware 2MB page management.

The paper's academic state-of-the-art baseline.  Differences from THP that
matter to the evaluation:

* **access-coverage-ordered promotion** — a ``kbinmanager`` thread samples
  page-table access bits to estimate which 2MB-mappable regions actually
  suffer TLB pressure, and khugepaged promotes the hottest regions first
  (THP scans sequentially);
* **bloat recovery** — regions that were promoted but are mostly untouched
  are demoted back to base pages, with only the touched pages rematerialised
  (HawkEye's zero-page dedup);
* **CPU overhead** — kbinmanager's access-bit scans consume daemon budget
  and contend with promotion; under fragmentation this is why HawkEye can
  trail plain THP for Redis/Memcached in Figure 10.

HawkEye remains a 2MB-only system: it never allocates 1GB pages.
"""

from __future__ import annotations

from repro.core.thp import THPPolicy


class HawkEyePolicy(THPPolicy):
    """THP with access-bit-guided promotion ordering and bloat recovery."""

    name = "HawkEye"
    #: ns charged per present mapping whose access bit kbinmanager samples
    access_sample_ns = 120.0
    #: mid mappings touched below this fraction get demoted (bloat recovery)
    bloat_demote_threshold = 0.20
    #: fraction of each tick reserved for kbinmanager + bloat recovery
    manager_budget_fraction = 0.35

    def __init__(self, kernel, bloat_recovery: bool = True) -> None:
        super().__init__(kernel)
        self.bloat_recovery = bloat_recovery
        self._heat: dict[tuple[int, int], int] = {}  # (pid, va) -> heat
        #: slots demoted by bloat recovery; khugepaged skips them until the
        #: access sampler observes them hot again
        self._demoted_slots: set[tuple[int, int]] = set()

    # -- daemon: kbinmanager then prioritized khugepaged -----------------------
    def background_tick(self, budget_ns: float) -> float:
        manager_budget = budget_ns * self.manager_budget_fraction
        used = self._kbinmanager_tick(manager_budget)
        if self.bloat_recovery and used < manager_budget:
            used += self._bloat_recovery_tick(manager_budget - used)
        used += super().background_tick(budget_ns - used)
        return used

    def _kbinmanager_tick(self, budget_ns: float) -> float:
        """Sample access bits to build per-slot heat bins."""
        used = 0.0
        geometry = self.kernel.geometry
        for process in list(self.kernel.processes):
            if used >= budget_ns:
                break
            accessed = 0
            for mapping in process.pagetable.iter_mappings():
                used += self.access_sample_ns
                if mapping.accessed and mapping.page_size == 0:
                    slot = geometry.align_down(
                        mapping.va, geometry.thp_level
                    )
                    key = (process.pid, slot)
                    self._heat[key] = self._heat.get(key, 0) + 1
                    accessed += 1
                mapping.accessed = False
                if used >= budget_ns:
                    break
        self.stats.daemon_ns += used
        return used

    # -- prioritized khugepaged scan order -----------------------------------
    def _scan_prefix(self) -> list[tuple]:
        """Hottest THP-level slots first, then the sequential remainder."""
        thp = self.kernel.geometry.thp_level
        by_pid = {p.pid: p for p in self.kernel.processes}
        ranked = sorted(self._heat.items(), key=lambda kv: -kv[1])
        return [
            (by_pid[pid], va, thp) for (pid, va), _ in ranked if pid in by_pid
        ]

    def _reach_prefix(self, process, va: int) -> None:
        self._demoted_slots.discard((process.pid, va))  # hot again: eligible

    def _leave_prefix(self, prefix: list[tuple]):
        # Heat decays each pass so stale hot spots fade.
        self._heat = {k: v // 2 for k, v in self._heat.items() if v > 1}
        seen = {(process.pid, va) for process, va, _ in prefix}

        def excluded(process, va: int, size: int) -> bool:
            key = (process.pid, va)
            return key in seen or key in self._demoted_slots

        return excluded

    # -- bloat recovery ----------------------------------------------------------
    def _bloat_recovery_tick(self, budget_ns: float) -> float:
        """Demote mostly-untouched mid pages; rematerialise touched 4KB only."""
        used = 0.0
        geometry = self.kernel.geometry
        thp = geometry.thp_level
        mid_bytes = geometry.bytes_for(thp)
        base_per_mid = geometry.frames_for(thp)
        for process in list(self.kernel.processes):
            if used >= budget_ns:
                break
            victims = []
            for mapping in list(process.pagetable.iter_mappings(thp)):
                used += self.access_sample_ns
                touched = process.touched_base_pages_in(mapping.va, mid_bytes)
                if touched / base_per_mid < self.bloat_demote_threshold:
                    victims.append((mapping, touched))
                if used >= budget_ns:
                    break
            for mapping, touched in victims:
                used += self._demote(process, mapping)
                slot = geometry.align_down(mapping.va, thp)
                self._demoted_slots.add((process.pid, slot))
        self.stats.daemon_ns += used
        return used

    def _demote(self, process, mapping) -> float:
        """Split one mid mapping into base pages for touched addresses only."""
        geometry = self.kernel.geometry
        cost = self.kernel.cost
        thp = geometry.thp_level
        thp_bytes = geometry.bytes_for(thp)
        va = mapping.va
        process.pagetable.unmap(va, thp)
        self._teardown(process, mapping)
        spent = cost.pte_update_ns
        copied = 0
        for page_va in process.touched_base_vas_in(va, thp_bytes):
            pfn = self._alloc_frames(0)
            if pfn is None:
                break
            self._install(process, page_va, 0, pfn)
            copied += geometry.base_size
            spent += cost.pte_update_ns
        spent += cost.copy_ns(copied)
        process.tlb.invalidate_range(va, thp_bytes)
        self.stats.demoted[thp] += 1
        self.stats.bloat_bytes_recovered += thp_bytes - copied
        return spent
