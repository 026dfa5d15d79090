"""Simulated memory substrate.

This package stands in for the real x86 memory hierarchies the paper measures
(repro band 1/5: Python cannot express real cache occupancy). It provides:

* :mod:`~repro.mem.layout` -- cache-line address arithmetic.
* :mod:`~repro.mem.alloc` -- simulated allocators controlling *spatial
  locality*: a contiguous bump allocator, a slab/pool allocator (used by the
  LLA node pools and the hot-cache element pool), and a fragmented heap that
  emulates a long-running ``malloc`` arena (used by the baseline linked
  list).
* :mod:`~repro.mem.cache` -- set-associative caches with LRU / tree-PLRU /
  random eviction and way-partition support (the "semi-permanent occupancy"
  proposal): the simulator's one cache kernel, a dict per set plus a
  recency list.
* :mod:`~repro.mem.kernel` -- the name of that kernel, for run reports.
* :mod:`~repro.mem.prefetch` -- the prefetchers the paper's analysis leans
  on: L1 next-line (DCU), L2 adjacent-line pair ("spatial"), and the L2
  streamer — plus the hypothetical pointer-chase unit the ``prefetch-chase``
  ablation evaluates against LLA spatial packing.
* :mod:`~repro.mem.hierarchy` -- a multi-core socket: private L1/L2 per
  core, a shared L3, DRAM, plus the dedicated network cache the paper
  proposes in section 3.2/4.6.
"""

from repro.mem.alloc import (
    Allocation,
    BumpAllocator,
    FragmentedHeap,
    SequentialHeap,
    SlabPool,
)
from repro.mem.cache import (
    CLS_DEFAULT,
    CLS_NETWORK,
    CacheStats,
    EvictionPolicy,
    SetAssociativeCache,
    WayPartition,
)
from repro.mem.hierarchy import Core, MemoryHierarchy, NetworkCacheConfig
from repro.mem.kernel import KERNEL_REFERENCE, resolve_kernel
from repro.mem.layout import LINE_SIZE, line_of, line_span, lines_touched
from repro.mem.result import AccessResult, LevelStats
from repro.mem.prefetch import (
    AdjacentPairPrefetcher,
    NextLinePrefetcher,
    PointerChasePrefetcher,
    Prefetcher,
    StreamerPrefetcher,
)

__all__ = [
    "AccessResult",
    "KERNEL_REFERENCE",
    "resolve_kernel",
    "Allocation",
    "AdjacentPairPrefetcher",
    "BumpAllocator",
    "CLS_DEFAULT",
    "CLS_NETWORK",
    "CacheStats",
    "Core",
    "EvictionPolicy",
    "FragmentedHeap",
    "LINE_SIZE",
    "LevelStats",
    "MemoryHierarchy",
    "NetworkCacheConfig",
    "NextLinePrefetcher",
    "PointerChasePrefetcher",
    "Prefetcher",
    "SequentialHeap",
    "SetAssociativeCache",
    "SlabPool",
    "StreamerPrefetcher",
    "WayPartition",
    "line_of",
    "line_span",
    "lines_touched",
]
