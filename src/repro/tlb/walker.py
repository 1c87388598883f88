"""Page-walk latency model.

On an L2 TLB miss the hardware walks the page table: up to 4 memory accesses
for a 4KB leaf, 3 for 2MB, 2 for 1GB (the paper's Section 2).  Page-walk
caches (PWCs) hold upper-level entries; we model them with an expected-value
discount — with probability ``pwc_hit_rate`` every level above the leaf is
cached, so the expected accesses per walk are::

    1 + (levels - 1) * (1 - pwc_hit_rate)

Nested (virtualized) walks use the 2D access counts 24 / 15 / 8 with the
same discount applied to the non-final accesses.

Walk depth and leaf caching are per-level properties of the geometry
(:class:`~repro.config.PageLevel`); the machine-wide constants come from
:class:`~repro.config.WalkConfig`.
"""

from __future__ import annotations

from repro.config import PageGeometry, WalkConfig


class PageWalker:
    """Deterministic expected-latency walker with accumulated statistics."""

    def __init__(self, config: WalkConfig, geometry: PageGeometry) -> None:
        self.config = config
        #: page-table levels one native walk for each geometry level touches
        self._depth = tuple(
            config.levels_base - lvl.levels_skipped for lvl in geometry.levels
        )
        self._leaf_cached = tuple(
            lvl.leaf_cached_prob for lvl in geometry.levels
        )
        # A native walk's cost is a pure function of its level.
        self._native_cycles = tuple(
            self.expected_accesses(depth, leaf) * config.mem_access_cycles
            for depth, leaf in zip(self._depth, self._leaf_cached)
        )
        self.walks = 0
        self.walk_cycles = 0.0

    def expected_accesses(
        self,
        accesses: int,
        leaf_cached: float = 0.0,
        pwc_hit_rate: float | None = None,
    ) -> float:
        """Expected memory accesses for a walk of ``accesses`` max accesses.

        With probability ``leaf_cached`` the leaf entry itself sits in a
        paging-structure cache and the walk costs nothing; otherwise the
        non-leaf accesses are discounted by the upper-level PWC hit rate.
        """
        if pwc_hit_rate is None:
            pwc_hit_rate = self.config.pwc_hit_rate
        miss = 1.0 - pwc_hit_rate
        full = 1.0 + (accesses - 1) * miss
        return (1.0 - leaf_cached) * full

    def levels_for(self, level: int) -> int:
        """Page-table levels one native walk for ``level`` traverses."""
        return self._depth[level]

    def nested_walk_accesses(self, guest_level: int, host_level: int) -> int:
        """Memory accesses for one nested (2D) walk.

        With nG guest levels and nH host levels the 2D walk costs
        ``(nG + 1) * (nH + 1) - 1`` accesses: 24 for 4K+4K, 15 for 2M+2M,
        8 for 1G+1G — the numbers quoted in the paper's Section 2.
        """
        n_g = self._depth[guest_level]
        n_h = self._depth[host_level]
        return (n_g + 1) * (n_h + 1) - 1

    def native_walk_cycles(self, page_size: int) -> float:
        """Cycles one native walk to a ``page_size`` leaf costs (pure).

        Shared by the scalar path and the batch engine so both use the
        identical float.
        """
        return self._native_cycles[page_size]

    def native_walk(self, page_size: int) -> float:
        """Cycles for one native walk to a leaf of ``page_size``."""
        cycles = self._native_cycles[page_size]
        self.walks += 1
        self.walk_cycles += cycles
        return cycles

    def nested_walk(self, guest_size: int, host_size: int) -> float:
        """Cycles for one 2D walk with the given guest/host leaf sizes.

        The leaf-cache shortcut applies when *both* dimensions' leaves are
        cached (the nested walk needs the guest leaf and its EPT leaf).
        """
        accesses = self.nested_walk_accesses(guest_size, host_size)
        # The gVA-side and EPT-side leaf entries are cached independently;
        # the nested walker short-circuits once the rarer of the two hits
        # (splintered walks reuse the cached dimension), so the effective
        # shortcut probability is the smaller of the two, not their product.
        leaf_cached = min(
            self._leaf_cached[guest_size], self._leaf_cached[host_size]
        )
        cycles = (
            self.expected_accesses(
                accesses, leaf_cached, self.config.nested_pwc_hit_rate
            )
            * self.config.mem_access_cycles
        )
        self.walks += 1
        self.walk_cycles += cycles
        return cycles

    def reset_stats(self) -> None:
        self.walks = 0
        self.walk_cycles = 0.0
