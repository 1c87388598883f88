"""Per-process page table with leaf mappings at every geometry level.

x86-64 page tables are a 4-level radix tree whose leaves can sit at three
depths: PTE (4KB), PMD (2MB) and PUD (1GB); other geometries declare more
(SVNAPOT's 64KB NAPOT pages) or different (ARM 16K granules) leaf levels.
For simulation we store each leaf level as a dict keyed by the virtual
page number at that level's granularity, plus child counters that enforce
the radix tree's structural invariant — a leaf cannot coexist with any
smaller mapping inside its range.  Walk *cost* (how many levels a
hardware walk touches) is derived from the leaf's level by
:class:`repro.config.WalkConfig`, which is all the radix shape is needed
for.

Each mapping carries an ``accessed`` bit, set by the TLB simulator on
every touch and cleared/sampled by the access-bit scanner (Figure 4) and
by HawkEye's miss-frequency estimator.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.config import PageGeometry


class MappingConflictError(ValueError):
    """Raised when a new mapping would overlap an existing one."""


class Mapping:
    """One leaf page-table entry; ``page_size`` is the geometry level."""

    __slots__ = ("va", "page_size", "pfn", "accessed", "dirty")

    def __init__(self, va: int, page_size: int, pfn: int) -> None:
        self.va = va
        self.page_size = page_size
        self.pfn = pfn
        self.accessed = False
        self.dirty = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Mapping(va={self.va:#x}, level={self.page_size}, "
            f"pfn={self.pfn})"
        )


class PageTable:
    """All leaf mappings of one address space (guest or native)."""

    def __init__(self, geometry: PageGeometry) -> None:
        self.geometry = geometry
        self.n_levels = geometry.n_levels
        self.top_level = geometry.top_level
        #: level indices, largest page first — translation precedence
        self.levels_desc = geometry.levels_desc
        self._shifts: list[int] = [
            geometry.shift_for(level) for level in geometry.all_levels
        ]
        # vpn (at that level's granularity) -> Mapping, one dict per level
        self._levels: list[dict[int, Mapping]] = [
            {} for _ in geometry.all_levels
        ]
        # Structural child counters, one per non-base level: how many
        # smaller mappings live inside each slot at that level.  Enforce
        # leaf exclusivity in O(n_levels) per map/unmap.
        self._children: list[dict[int, int]] = [
            {} for _ in geometry.all_levels
        ]
        # Optional per-NUMA-node resident-frame counters, maintained
        # incrementally on map/unmap once enable_node_accounting installs
        # a pfn -> node hook.  None keeps the non-NUMA hot path untouched.
        self._node_of = None
        self._node_frames: list[int] | None = None
        self._resident_frames = 0
        #: leaves above the base level ever unmapped; the only event that
        #: can uncover a slot once a leaf at least its size has covered it
        self.nonbase_unmaps = 0

    # -- helpers --------------------------------------------------------------
    def vpn(self, va: int, page_size: int) -> int:
        return va >> self._shifts[page_size]

    def page_bytes(self, page_size: int) -> int:
        return 1 << self._shifts[page_size]

    def children_in_slot(self, level: int, slot_vpn: int) -> int:
        """Number of smaller mappings inside slot ``slot_vpn`` of ``level``."""
        return self._children[level].get(slot_vpn, 0)

    # -- map/unmap --------------------------------------------------------------
    def map_page(self, va: int, page_size: int, pfn: int) -> Mapping:
        """Install a leaf mapping; ``va`` must be size-aligned and unmapped."""
        if va % self.page_bytes(page_size):
            raise ValueError(
                f"va {va:#x} not aligned to "
                f"{self.geometry.name_of(page_size)} page"
            )
        self._check_conflicts(va, page_size)
        mapping = Mapping(va, page_size, pfn)
        self._levels[page_size][self.vpn(va, page_size)] = mapping
        if self._node_frames is not None:
            frames = self.geometry.frames_for(page_size)
            self._node_frames[self._node_of(pfn)] += frames
            self._resident_frames += frames
        for level in range(page_size + 1, self.n_levels):
            slot = self.vpn(va, level)
            counts = self._children[level]
            counts[slot] = counts.get(slot, 0) + 1
        return mapping

    def _check_conflicts(self, va: int, page_size: int) -> None:
        # Larger levels first: a bigger leaf shadows everything below it.
        for level in range(self.top_level, page_size, -1):
            if self.vpn(va, level) in self._levels[level]:
                raise MappingConflictError(
                    f"va {va:#x} already covered by a "
                    f"{self.geometry.name_of(level)} mapping"
                )
        slot = self.vpn(va, page_size)
        if slot in self._levels[page_size]:
            raise MappingConflictError(
                f"va {va:#x} already mapped at "
                f"{self.geometry.name_of(page_size)} size"
            )
        if page_size > 0 and self._children[page_size].get(slot, 0):
            raise MappingConflictError(
                f"{self.geometry.name_of(page_size)} slot {slot} contains "
                "smaller mappings"
            )

    def unmap(self, va: int, page_size: int) -> Mapping:
        """Remove the leaf mapping at ``va``; returns it (caller frees frames)."""
        mapping = self._levels[page_size].pop(self.vpn(va, page_size), None)
        if mapping is None or mapping.va != self.geometry.align_down(va, page_size):
            raise ValueError(
                f"no {self.geometry.name_of(page_size)} mapping at va {va:#x}"
            )
        if page_size:
            self.nonbase_unmaps += 1
        if self._node_frames is not None:
            frames = self.geometry.frames_for(page_size)
            self._node_frames[self._node_of(mapping.pfn)] -= frames
            self._resident_frames -= frames
        for level in range(page_size + 1, self.n_levels):
            slot = self.vpn(va, level)
            counts = self._children[level]
            counts[slot] -= 1
            if not counts[slot]:
                del counts[slot]
        return mapping

    def unmap_range(
        self, start: int, length: int, strict: bool = True
    ) -> list[Mapping]:
        """Remove every mapping fully inside [start, start+length).

        Used by munmap and by promotion (which unmaps the small pages before
        installing the large one).  With ``strict`` (default) a mapping
        straddling either boundary raises; ``strict=False`` leaves
        straddlers in place — hugetlbfs-backed heaps round up to huge-page
        boundaries and do not return partial pages on free.
        """
        end = start + length
        removed: list[Mapping] = []
        front = self.translate(start)
        if front is not None and front.va < start and strict:
            raise ValueError(
                f"mapping at {front.va:#x} straddles unmap range start"
            )
        for size in self.levels_desc:
            page_bytes = self.page_bytes(size)
            level = self._levels[size]
            if len(level) <= (length // page_bytes):
                victims = [m for m in level.values() if start <= m.va < end]
            else:
                victims = []
                va = self.geometry.align_up(start, size)
                while va < end:
                    m = level.get(self.vpn(va, size))
                    if m is not None:
                        victims.append(m)
                    va += page_bytes
            for m in victims:
                if m.va < start or m.va + page_bytes > end:
                    if strict:
                        raise ValueError(
                            f"mapping at {m.va:#x} straddles unmap range boundary"
                        )
                    continue
                self.unmap(m.va, size)
                removed.append(m)
        return removed

    # -- NUMA residency accounting -------------------------------------------
    def enable_node_accounting(self, node_of, nodes: int) -> None:
        """Maintain per-node resident-frame counters from here on.

        ``node_of`` maps a pfn to its NUMA node (the allocator's
        :meth:`~repro.mem.buddy.BuddyAllocator.node_of`).  Existing
        mappings are accounted immediately; map/unmap/repoint keep the
        counters exact incrementally, O(1) per operation.
        """
        self._node_of = node_of
        self._node_frames = [0] * nodes
        self._resident_frames = 0
        for mapping in self.iter_mappings():
            frames = self.geometry.frames_for(mapping.page_size)
            self._node_frames[node_of(mapping.pfn)] += frames
            self._resident_frames += frames

    def note_repoint(self, mapping: Mapping, new_pfn: int) -> None:
        """Re-point a live mapping's frame (compaction/migration path).

        The single mutation point for in-place pfn changes, so node
        accounting can never drift when frames move between nodes.
        """
        if self._node_frames is not None:
            frames = self.geometry.frames_for(mapping.page_size)
            self._node_frames[self._node_of(mapping.pfn)] -= frames
            self._node_frames[self._node_of(new_pfn)] += frames
        mapping.pfn = new_pfn

    def node_resident_frames(self) -> list[int] | None:
        """Per-node resident frames (None before accounting is enabled)."""
        return None if self._node_frames is None else list(self._node_frames)

    @property
    def resident_frames_total(self) -> int:
        """Total frames under node accounting (0 before it is enabled)."""
        return self._resident_frames

    def remote_resident_fraction(self, home_node: int) -> float:
        """Fraction of resident frames living off ``home_node``."""
        if self._node_frames is None or self._resident_frames <= 0:
            return 0.0
        local = self._node_frames[home_node]
        return 1.0 - local / self._resident_frames

    # -- translation ---------------------------------------------------------
    def translate(self, va: int) -> Mapping | None:
        """The leaf mapping covering ``va``, or None if unmapped."""
        for level in self.levels_desc:
            m = self._levels[level].get(va >> self._shifts[level])
            if m is not None:
                return m
        return None

    def is_mapped(self, va: int) -> bool:
        return self.translate(va) is not None

    # -- iteration / accounting -------------------------------------------------
    def iter_mappings(self, page_size: int | None = None) -> Iterator[Mapping]:
        sizes: Iterable[int] = (
            range(self.n_levels) if page_size is None else (page_size,)
        )
        for size in sizes:
            yield from self._levels[size].values()

    def count(self, page_size: int) -> int:
        return len(self._levels[page_size])

    def mapped_bytes(self, page_size: int | None = None) -> int:
        if page_size is not None:
            return self.count(page_size) * self.page_bytes(page_size)
        return sum(self.mapped_bytes(s) for s in range(self.n_levels))

    def mappings_in_range(self, start: int, length: int, page_size: int) -> list[Mapping]:
        """Mappings of ``page_size`` whose va lies in [start, start+length)."""
        end = start + length
        page_bytes = self.page_bytes(page_size)
        level = self._levels[page_size]
        if len(level) <= length // page_bytes:
            return sorted(
                (m for m in level.values() if start <= m.va < end),
                key=lambda m: m.va,
            )
        result = []
        va = self.geometry.align_up(start, page_size)
        while va < end:
            m = level.get(self.vpn(va, page_size))
            if m is not None:
                result.append(m)
            va += page_bytes
        return result

    # -- access bits ------------------------------------------------------------
    def clear_access_bits(self) -> None:
        for level in self._levels:
            for m in level.values():
                m.accessed = False

    def accessed_mappings(self) -> list[Mapping]:
        return [m for m in self.iter_mappings() if m.accessed]
