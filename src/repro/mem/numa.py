"""NUMA topology: node count and the remote-access latency model.

Trident's evaluation runs one socket; the fleet north-star is a large
multi-socket machine where physical contiguity is a *per-node* resource
(Cichlid) and page-table placement is itself a NUMA decision (Mitosis).
:class:`NumaTopology` is the machine's shape: how many nodes physical
memory splits into, what a remote DRAM access costs, and what fraction
of data accesses reach DRAM at all.  Every ``System`` has one; the
default is a single node, the flat machine.

The partition itself lives in :class:`repro.mem.buddy.BuddyAllocator`,
whose ``nodes`` argument splits physical memory into equal, max-order
aligned node ranges with per-node free lists.  ``System`` builds its
allocator with ``topology.nodes`` nodes and steers fault-time
allocations to the faulting process's home node.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumaTopology:
    """The machine's NUMA shape and access-latency model.

    ``remote_multiplier`` scales one DRAM access that crosses the
    interconnect (~1.4x on two-socket Skylake, higher on larger meshes).
    ``data_dram_fraction`` is the fraction of application accesses that
    miss the cache hierarchy and pay DRAM latency at all; page-walk
    accesses always pay it (page-table entries of big working sets miss
    the data caches — the same assumption WalkConfig.mem_access_cycles
    already makes).
    """

    nodes: int = 1
    remote_multiplier: float = 1.4
    data_dram_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.remote_multiplier < 1.0:
            raise ValueError(
                "remote_multiplier must be >= 1.0 (remote is never faster), "
                f"got {self.remote_multiplier}"
            )
        if not 0.0 <= self.data_dram_fraction <= 1.0:
            raise ValueError(
                f"data_dram_fraction must be in [0, 1], got "
                f"{self.data_dram_fraction}"
            )
