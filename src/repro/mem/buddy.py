"""Binary buddy allocator with free lists up to the large-page order.

Linux's buddy allocator keeps per-order free lists only up to order 10 (4MB
with 4KB pages).  Trident's first kernel change extends the lists to order 18
(1GB) so the page-fault handler and khugepaged can ask for 1GB-contiguous
chunks directly.  This module implements the full extended allocator:

* power-of-two blocks, split on demand, eagerly coalesced on free;
* deterministic lowest-address-first allocation (per-node heaps plus one
  membership set per order, with lazy deletion);
* a movability tag per allocation — unmovable blocks model kernel objects
  (inodes, DMA buffers) that compaction must not relocate;
* ``alloc_at`` for claiming a specific free range (used by compaction to
  place copied frames inside a chosen target region, and by hugetlbfs-style
  static reservation);
* listener hooks so :class:`repro.mem.regions.RegionTracker` can maintain the
  per-large-region counters smart compaction selects sources/targets by;
* node partitioning for NUMA machines: node ``i`` owns frames
  ``[i * frames_per_node, (i + 1) * frames_per_node)``, each free list keeps
  one heap per node, and :meth:`BuddyAllocator.alloc` places blocks on a
  preferred node first, spilling to the others deterministically.  Node
  bounds are aligned to the max block size, so no buddy pair ever straddles
  two nodes and a 1-node allocator is the flat allocator.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Protocol

from repro.mem.frames import FrameState, new_frame_array


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation cannot be satisfied at any order."""


class AllocationListener(Protocol):
    """Observer notified of every allocation and free."""

    def on_alloc(self, pfn: int, order: int, movable: bool) -> None: ...

    def on_free(self, pfn: int, order: int, movable: bool) -> None: ...


class _OrderFreeList:
    """Free blocks of one order: per-node min-heaps plus one membership set.

    Each node's heap gives lowest-address-first allocation on that node
    (deterministic and Linux-like); the set gives O(1) membership tests for
    buddy coalescing.  Heap entries whose start is no longer in the set are
    stale and skipped.
    """

    __slots__ = ("_heaps", "_members", "_frames_per_node")

    def __init__(self, nodes: int, frames_per_node: int) -> None:
        self._heaps: list[list[int]] = [[] for _ in range(nodes)]
        self._members: set[int] = set()
        self._frames_per_node = frames_per_node

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, pfn: int) -> bool:
        return pfn in self._members

    def add(self, pfn: int) -> None:
        self._members.add(pfn)
        heapq.heappush(self._heaps[pfn // self._frames_per_node], pfn)

    def discard(self, pfn: int) -> None:
        self._members.discard(pfn)

    def has_block(self, node: int) -> bool:
        """True if ``node`` holds a free block (drops stale heap tops)."""
        heap = self._heaps[node]
        while heap and heap[0] not in self._members:
            heapq.heappop(heap)
        return bool(heap)

    def pop_lowest(self, node: int) -> int:
        heap = self._heaps[node]
        while heap:
            pfn = heapq.heappop(heap)
            if pfn in self._members:
                self._members.remove(pfn)
                return pfn
        raise KeyError(f"free list of node {node} is empty")

    def members(self) -> Iterable[int]:
        return iter(self._members)

    def node_members(self, node: int) -> list[int]:
        """Live starts in ``node``'s heap, lowest first."""
        return sorted({pfn for pfn in self._heaps[node] if pfn in self._members})


class BuddyAllocator:
    """Buddy allocator over ``total_frames`` base frames on ``nodes`` nodes.

    ``max_order`` is the largest tracked order; Trident configures it to the
    geometry's large order (1GB), stock Linux to 10 (4MB).  Every node holds
    the same whole number of max-order blocks.
    """

    def __init__(
        self,
        total_frames: int,
        max_order: int,
        nodes: int = 1,
        listeners: tuple[AllocationListener, ...] = (),
        obs=None,
    ) -> None:
        if max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {max_order}")
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        if total_frames <= 0 or total_frames % (nodes << max_order):
            raise ValueError(
                f"total_frames ({total_frames}) must split into {nodes} "
                f"node(s) of whole max-order blocks "
                f"({nodes} * {1 << max_order} frames)"
            )
        self.total_frames = total_frames
        self.max_order = max_order
        self.nodes = nodes
        self.frames_per_node = per = total_frames // nodes
        self.frame_state = new_frame_array(total_frames)
        self._free_lists = [
            _OrderFreeList(nodes, per) for _ in range(max_order + 1)
        ]
        #: start pfn -> (order, movable) for every live allocation
        self._allocated: dict[int, tuple[int, bool]] = {}
        self._listeners = list(listeners)
        self._free_frames = total_frames
        self._node_free = [per] * nodes
        #: node tried first by :meth:`alloc`; ``System`` points it at the
        #: faulting process's home node for the duration of the fault
        self._preferred: int | None = None
        self._tracer = None
        self._c_alloc = self._c_free = None
        self._c_split = self._c_coalesce = None
        self._c_local = self._c_remote = None
        if obs is not None:
            # Hot paths hold direct counter references.  The gauges are
            # collector-mirrored: the allocator already maintains the
            # authoritative values, so they are copied into the registry
            # at snapshot time and the hot paths carry no gauge writes.
            m = obs.metrics
            self._tracer = obs.tracer
            orders = range(max_order + 1)
            self._c_alloc = [m.counter("buddy_alloc_total", order=o) for o in orders]
            self._c_free = [m.counter("buddy_free_total", order=o) for o in orders]
            self._c_split = m.counter("buddy_split_total")
            self._c_coalesce = m.counter("buddy_coalesce_total")
            if nodes > 1:
                self._c_local = m.counter("numa_alloc_local_total")
                self._c_remote = m.counter("numa_alloc_remote_total")
            m.add_collector(self._collect)
        top = 1 << max_order
        for start in range(0, total_frames, top):
            self._free_lists[max_order].add(start)

    def _collect(self, metrics) -> None:
        metrics.gauge("buddy_free_frames").value = self._free_frames
        for order in range(self.max_order + 1):
            metrics.gauge("buddy_free_blocks", order=order).value = len(
                self._free_lists[order]
            )
        if self.nodes > 1:
            for node in range(self.nodes):
                metrics.gauge(
                    "numa_node_free_frames", node=node
                ).value = self._node_free[node]
                metrics.gauge("numa_node_fmfi", node=node).value = (
                    self.node_fmfi(node)
                )

    def add_listener(self, listener: AllocationListener) -> None:
        """Register a listener after construction (e.g. an audit hook)."""
        self._listeners.append(listener)

    # -- introspection ---------------------------------------------------
    @property
    def free_frames(self) -> int:
        """Total number of free base frames."""
        return self._free_frames

    @property
    def used_frames(self) -> int:
        return self.total_frames - self._free_frames

    def free_blocks(self, order: int) -> int:
        """Number of free blocks exactly at ``order``."""
        return len(self._free_lists[order])

    def free_block_starts(self, order: int) -> list[int]:
        """Starts of free blocks exactly at ``order`` (unsorted)."""
        return list(self._free_lists[order].members())

    def has_free_block(self, order: int) -> bool:
        """True if an allocation of ``order`` would succeed right now."""
        return any(len(self._free_lists[o]) for o in range(order, self.max_order + 1))

    def free_frames_at_or_above(self, order: int) -> int:
        """Free frames sitting in blocks of order >= ``order``.

        This is the numerator of "suitable" free memory in the FMFI metric.
        """
        return sum(
            len(self._free_lists[o]) << o for o in range(order, self.max_order + 1)
        )

    def allocation_at(self, pfn: int) -> tuple[int, bool] | None:
        """(order, movable) of the allocation starting at ``pfn``, if any."""
        return self._allocated.get(pfn)

    def iter_allocations(self) -> Iterable[tuple[int, int, bool]]:
        """Yield (start_pfn, order, movable) for every live allocation."""
        for pfn, (order, movable) in self._allocated.items():
            yield pfn, order, movable

    # -- nodes -------------------------------------------------------------
    def node_of(self, pfn: int) -> int:
        """The node owning frame ``pfn``."""
        if not 0 <= pfn < self.total_frames:
            raise ValueError(f"pfn {pfn} out of bounds")
        return pfn // self.frames_per_node

    def node_bounds(self, node: int) -> tuple[int, int]:
        """``[lo, hi)`` frame range of ``node``."""
        per = self.frames_per_node
        return node * per, (node + 1) * per

    def node_free_frames(self, node: int) -> int:
        return self._node_free[node]

    def node_free_block_starts(self, order: int, node: int) -> list[int]:
        """Starts of free blocks at ``order`` queued on ``node``'s heap."""
        return self._free_lists[order].node_members(node)

    def node_fmfi(self, node: int) -> float:
        """Fragmentation index of ``node`` at the max order.

        :func:`repro.mem.fragmentation.fmfi` over the node's free frames
        only: the free frames not in a max-order block, as a fraction.
        """
        free = self._node_free[node]
        if free == 0:
            return 0.0
        top = self._free_lists[self.max_order].node_members(node)
        suitable = len(top) << self.max_order
        return 1.0 - suitable / free

    def set_alloc_preference(self, node: int | None) -> None:
        """Steer subsequent allocations toward ``node`` (None clears)."""
        if node is not None and not 0 <= node < self.nodes:
            raise ValueError(f"node {node} out of range [0, {self.nodes})")
        self._preferred = node

    # -- allocation -------------------------------------------------------
    def alloc(self, order: int, movable: bool = True) -> int:
        """Allocate a block of 2**order frames; returns its start PFN.

        Raises :class:`OutOfMemoryError` when no node has a block at or
        above ``order`` free.  Splits a larger block when necessary, always
        taking the lowest-addressed candidate on the chosen node (see
        :meth:`_place` for how a multi-node allocator picks the node).
        """
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order {order} out of range [0, {self.max_order}]")
        if self.nodes == 1:
            node, source = 0, None
            for o in range(order, self.max_order + 1):
                if len(self._free_lists[o]):
                    source = o
                    break
        else:
            node, source = self._place(order)
        if source is None:
            where = f" on any of {self.nodes} nodes" if self.nodes > 1 else ""
            raise OutOfMemoryError(f"no free block at order >= {order}{where}")
        pfn = self._free_lists[source].pop_lowest(node)
        if self._c_split is not None and source > order:
            self._c_split.inc(source - order)
        while source > order:
            source -= 1
            self._free_lists[source].add(pfn + (1 << source))
        self._commit_alloc(pfn, order, movable)
        return pfn

    def _source_order(self, node: int, order: int) -> int | None:
        """Smallest order >= ``order`` with a free block on ``node``."""
        for o in range(order, self.max_order + 1):
            if self._free_lists[o].has_block(node):
                return o
        return None

    def _place(self, order: int) -> tuple[int, int | None]:
        """``(node, source order)`` for a multi-node allocation.

        The preferred node goes first, then the other nodes by descending
        free frames with the node index as the tie-break: a pure function
        of allocator state, so runs replay byte-for-byte at any
        parallelism.  The local/remote counters record whether a
        preferred allocation landed home or spilled; allocations without
        a preference count as local wherever they land.
        """
        preferred = self._preferred
        if preferred is not None:
            source = self._source_order(preferred, order)
            if source is not None:
                if self._c_local is not None:
                    self._c_local.inc()
                return preferred, source
        free = self._node_free
        for node in sorted(range(self.nodes), key=lambda n: (-free[n], n)):
            if node == preferred:
                continue
            source = self._source_order(node, order)
            if source is not None:
                if self._c_local is not None:
                    (self._c_local if preferred is None else self._c_remote).inc()
                return node, source
        return 0, None

    def try_alloc(self, order: int, movable: bool = True) -> int | None:
        """Like :meth:`alloc` but returns None instead of raising on OOM."""
        try:
            return self.alloc(order, movable)
        except OutOfMemoryError:
            return None

    def alloc_at(self, pfn: int, order: int, movable: bool = True) -> None:
        """Claim the specific free block [pfn, pfn + 2**order).

        The range must be aligned to ``order`` and currently free.  Splits
        enclosing free blocks as needed.  Raises ValueError if the range is
        misaligned or not fully free.
        """
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order {order} out of range [0, {self.max_order}]")
        if pfn + (1 << order) > self.total_frames:
            raise ValueError(f"block [{pfn}, {pfn + (1 << order)}) out of bounds")
        if pfn % (1 << order):
            raise ValueError(f"pfn {pfn} not aligned to order {order}")
        enclosing = self._find_enclosing_free_block(pfn)
        if enclosing is None:
            raise ValueError(f"frames at pfn {pfn} are not free")
        encl_pfn, encl_order = enclosing
        if encl_order < order or pfn + (1 << order) > encl_pfn + (1 << encl_order):
            raise ValueError(
                f"free block at {encl_pfn} (order {encl_order}) does not "
                f"cover requested [{pfn}, {pfn + (1 << order)})"
            )
        self._free_lists[encl_order].discard(encl_pfn)
        if self._c_split is not None and encl_order > order:
            self._c_split.inc(encl_order - order)
        # Split the enclosing block down until the target block is isolated.
        cur_pfn, cur_order = encl_pfn, encl_order
        while cur_order > order:
            cur_order -= 1
            half = 1 << cur_order
            if pfn < cur_pfn + half:
                self._free_lists[cur_order].add(cur_pfn + half)
            else:
                self._free_lists[cur_order].add(cur_pfn)
                cur_pfn += half
        self._commit_alloc(pfn, order, movable)

    def _find_enclosing_free_block(self, pfn: int) -> tuple[int, int] | None:
        for order in range(self.max_order + 1):
            candidate = pfn & ~((1 << order) - 1)
            if candidate in self._free_lists[order]:
                return candidate, order
        return None

    def is_free(self, pfn: int) -> bool:
        """True if the single frame ``pfn`` is free."""
        return self.frame_state[pfn] == FrameState.FREE

    def _commit_alloc(self, pfn: int, order: int, movable: bool) -> None:
        n = 1 << order
        self.frame_state[pfn : pfn + n] = (
            FrameState.MOVABLE if movable else FrameState.UNMOVABLE
        )
        self._allocated[pfn] = (order, movable)
        self._free_frames -= n
        self._node_free[pfn // self.frames_per_node] -= n
        if self._c_alloc is not None:
            self._c_alloc[order].inc()
            tr = self._tracer
            if tr.active:
                tr.emit("buddy", "alloc", pfn=pfn, order=order, movable=movable)
        for listener in self._listeners:
            listener.on_alloc(pfn, order, movable)

    # -- free --------------------------------------------------------------
    def free(self, pfn: int) -> None:
        """Free the allocation that starts at ``pfn``; coalesces eagerly."""
        try:
            order, movable = self._allocated.pop(pfn)
        except KeyError:
            raise ValueError(f"no allocation starts at pfn {pfn}") from None
        n = 1 << order
        self.frame_state[pfn : pfn + n] = FrameState.FREE
        self._free_frames += n
        self._node_free[pfn // self.frames_per_node] += n
        if self._c_free is not None:
            self._c_free[order].inc()
            tr = self._tracer
            if tr.active:
                tr.emit("buddy", "free", pfn=pfn, order=order, movable=movable)
        for listener in self._listeners:
            listener.on_free(pfn, order, movable)
        self._insert_and_coalesce(pfn, order)

    def _insert_and_coalesce(self, pfn: int, order: int) -> None:
        merges = 0
        while order < self.max_order:
            buddy = pfn ^ (1 << order)
            if buddy not in self._free_lists[order]:
                break
            self._free_lists[order].discard(buddy)
            pfn = min(pfn, buddy)
            order += 1
            merges += 1
        if merges and self._c_coalesce is not None:
            self._c_coalesce.inc(merges)
        self._free_lists[order].add(pfn)

    # -- verification (tests and the --audit layer) -------------------------
    def check_invariants(self) -> None:
        """Assert internal consistency; O(total_frames).

        Delegates to :func:`repro.lint.invariants.check_buddy`, the
        canonical checker the ``--audit`` runtime layer also uses, so
        tests and audited runs enforce the identical invariant set.
        """
        from repro.lint.invariants import check_buddy

        check_buddy(self)
