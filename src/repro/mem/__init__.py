"""Physical-memory substrate: frames, buddy allocator, regions, fragmentation.

This package is the analogue of Linux's page allocator layer.  The paper's
first Trident change lives here: the buddy allocator tracks free chunks all
the way up to the large-page (1GB) order instead of stopping at 4MB, and two
per-large-region counters (free frames, unmovable frames) feed Trident's
smart compaction.
"""

from repro.mem.buddy import BuddyAllocator, OutOfMemoryError
from repro.mem.frames import FrameState
from repro.mem.numa import NumaTopology
from repro.mem.regions import RegionTracker
from repro.mem.fragmentation import FragmentationInjector, fmfi
from repro.mem.zerofill import ZeroFillEngine

__all__ = [
    "BuddyAllocator",
    "OutOfMemoryError",
    "FrameState",
    "NumaTopology",
    "RegionTracker",
    "FragmentationInjector",
    "fmfi",
    "ZeroFillEngine",
]
