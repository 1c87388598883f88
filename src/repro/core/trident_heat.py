"""Trident with HawkEye-style heat-ordered promotion (the paper's own
future-work suggestion).

Section 8: "Many insights from these works on 2MB pages are applicable to
Trident too e.g., HawkEye's fine-grained page promotion ... can be applied
to Trident too."  This policy does exactly that: the khugepaged scan order
is driven by sampled access-bit heat instead of sequential VA order, so
when promotion bandwidth is scarce (a capped daemon, or early in a run) the
*hottest* 1GB-mappable regions get their pages first.

Promotion mechanics, compaction and the fault path are unchanged Trident.
"""

from __future__ import annotations

from repro.core.trident import TridentPolicy


class TridentHeatPolicy(TridentPolicy):
    """Trident + kbinmanager-style heat ordering for the promotion scan."""

    name = "Trident-heat"
    #: ns charged per mapping whose access bit the sampler reads
    access_sample_ns = 120.0
    #: fraction of each tick spent sampling heat before promoting
    sampler_budget_fraction = 0.15

    def __init__(self, kernel, **kwargs) -> None:
        super().__init__(kernel, **kwargs)
        self._heat: dict[tuple[int, int], int] = {}  # (pid, large slot) -> heat

    def background_tick(self, budget_ns: float) -> float:
        sampler_budget = budget_ns * self.sampler_budget_fraction
        used = self._sample_heat(sampler_budget)
        used += super().background_tick(budget_ns - used)
        return used

    def _sample_heat(self, budget_ns: float) -> float:
        used = 0.0
        geometry = self.kernel.geometry
        top = geometry.top_level
        for process in list(self.kernel.processes):
            if used >= budget_ns:
                break
            for mapping in process.pagetable.iter_mappings():
                used += self.access_sample_ns
                if mapping.accessed and mapping.page_size != top:
                    slot = geometry.align_down(mapping.va, top)
                    key = (process.pid, slot)
                    self._heat[key] = self._heat.get(key, 0) + 1
                mapping.accessed = False
                if used >= budget_ns:
                    break
        self.stats.daemon_ns += used
        return used

    def _scan_prefix(self) -> list[tuple]:
        """Hottest large slots first; then Trident's sequential order."""
        top = self.kernel.geometry.top_level
        by_pid = {p.pid: p for p in self.kernel.processes}
        ranked = sorted(self._heat.items(), key=lambda kv: -kv[1])
        return [
            (by_pid[pid], va, top) for (pid, va), _ in ranked if pid in by_pid
        ]

    def _leave_prefix(self, prefix: list[tuple]):
        # Decay so stale heat fades between passes.
        self._heat = {k: v // 2 for k, v in self._heat.items() if v > 1}
        if not prefix:
            return None
        top = self.kernel.geometry.top_level
        seen = {(process.pid, va) for process, va, _ in prefix}
        return lambda process, va, size: (
            size == top and (process.pid, va) in seen
        )
