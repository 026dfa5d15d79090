"""Zounmevo & Afsahi's 4-dimensional match queue (related work, section 5).

    "This approach decomposes ranks to multiple dimensions to reduce the
    number of MPI queue operations. The main goal of this data structure is
    to skip portions of the match list for where no match can be found. This
    data structure decomposes ranks into a 4D lookup."

A rank ``r`` is decomposed into four digits base ``b = ceil(N^(1/4))``; the
structure is a four-level radix tree whose leaves hold per-rank FIFO lists.
Concrete probes descend in O(1) per level; wildcard-source probes fall back
to a global FIFO scan (skipping empty subtrees is the structure's win; a
wildcard must consider all of them, and FIFO across leaves requires a merged
order).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.matching.base import MatchQueue
from repro.matching.entry import LL_NODE_POINTERS, MatchItem
from repro.matching.envelope import items_match
from repro.matching.port import MemoryPort, emit_node_runs
from repro.mem.alloc import Allocation, SequentialHeap

_PTR_BYTES = 8


def rank_digits(rank: int, base: int) -> Tuple[int, int, int, int]:
    """Decompose *rank* into four base-*base* digits (most significant first)."""
    d0, rem = divmod(rank, base**3)
    d1, rem = divmod(rem, base**2)
    d2, d3 = divmod(rem, base)
    return d0, d1, d2, d3


@dataclass
class _Cell:
    item: MatchItem
    alloc: Allocation
    key: Optional[Tuple[int, int, int, int]]  # None for wildcard-posted


class FourDimensionalQueue(MatchQueue):
    """Four-level rank-radix structure with per-leaf FIFO lists."""

    family = "fourd"

    DEFAULT_BASE = 0xB000_0000
    DEFAULT_CAPACITY = 1 << 30

    def __init__(
        self,
        nranks: int = 65536,
        *,
        entry_bytes: int = 24,
        port: Optional[MemoryPort] = None,
        heap=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if nranks < 1:
            raise ConfigurationError(f"nranks must be >= 1, got {nranks}")
        super().__init__(entry_bytes=entry_bytes, port=port)
        if heap is None:
            heap = SequentialHeap(
                self.DEFAULT_BASE,
                self.DEFAULT_CAPACITY,
                rng if rng is not None else np.random.default_rng(0),
            )
        self.heap = heap
        self.nranks = nranks
        self.base = max(2, int(np.ceil(nranks ** 0.25)))
        self.node_bytes = LL_NODE_POINTERS + entry_bytes
        # Level tables are small pointer arrays; we charge one pointer load
        # per level descended. Leaf lists are keyed by the digit tuple.
        self._level_array = heap.alloc(4 * self.base * _PTR_BYTES)
        self._leaves: Dict[Tuple[int, int, int, int], Deque[_Cell]] = {}
        self._wild: Deque[_Cell] = deque()
        self._all: "OrderedDict[int, _Cell]" = OrderedDict()

    # -- posting ------------------------------------------------------------

    def post(self, item: MatchItem) -> None:
        """Append *item*; its FIFO position is its posting order."""
        alloc = self.heap.alloc(self.node_bytes)
        item.addr = alloc.addr + LL_NODE_POINTERS
        self.port.store(alloc.addr, self.node_bytes)
        if item.wildcard_source:
            cell = _Cell(item, alloc, None)
            self._wild.append(cell)
        else:
            key = rank_digits(item.src % self.nranks, self.base)
            for level, digit in enumerate(key):
                self.port.store(
                    self._level_array.addr + (level * self.base + digit) * _PTR_BYTES,
                    _PTR_BYTES,
                )
            cell = _Cell(item, alloc, key)
            self._leaves.setdefault(key, deque()).append(cell)
        self._all[item.seq] = cell
        self.stats.posts += 1

    # -- searching ------------------------------------------------------------

    def match_remove(self, probe: MatchItem) -> Optional[MatchItem]:
        """Find, remove and return the earliest item matching *probe*, or None."""
        if probe.wildcard_source:
            return self._match_remove_scan(probe)
        return self._match_remove_descent(probe)

    def _match_remove_descent(self, probe: MatchItem) -> Optional[MatchItem]:
        """Concrete probe: level descent stays per-pointer (non-contiguous),
        leaf and wildcard traversals are charged as contiguous runs."""
        port = self.port
        key = rank_digits(probe.src % self.nranks, self.base)
        for level, digit in enumerate(key):
            port.load(
                self._level_array.addr + (level * self.base + digit) * _PTR_BYTES,
                _PTR_BYTES,
            )
        best: Optional[_Cell] = None
        leaf_addrs = []
        for cell in self._leaves.get(key, ()):
            leaf_addrs.append(cell.alloc.addr)
            if items_match(cell.item, probe):
                best = cell
                break
        emit_node_runs(port, leaf_addrs, self.node_bytes)
        probes = len(leaf_addrs)
        wild_addrs = []
        for cell in self._wild:
            if best is not None and cell.item.seq >= best.item.seq:
                break
            wild_addrs.append(cell.alloc.addr)
            if items_match(cell.item, probe):
                best = cell
                break
        emit_node_runs(port, wild_addrs, self.node_bytes)
        probes += len(wild_addrs)
        if best is None:
            self.stats.record_search(probes, False)
            return None
        self._remove_cell(best)
        self.stats.record_search(probes, True)
        return best.item

    def _match_remove_scan(self, probe: MatchItem) -> Optional[MatchItem]:
        """Wildcard probe: the global FIFO scan, charged as runs."""
        addrs = []
        found: Optional[_Cell] = None
        for cell in self._all.values():
            addrs.append(cell.alloc.addr)
            if items_match(cell.item, probe):
                found = cell
                break
        emit_node_runs(self.port, addrs, self.node_bytes)
        if found is None:
            self.stats.record_search(len(addrs), False)
            return None
        self._remove_cell(found)
        self.stats.record_search(len(addrs), True)
        return found.item

    def _remove_cell(self, cell: _Cell) -> None:
        if cell.key is None:
            self._wild.remove(cell)
        else:
            self._leaves[cell.key].remove(cell)
        del self._all[cell.item.seq]
        self.heap.free(cell.alloc)
        self.port.store(cell.alloc.addr, _PTR_BYTES)

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._all)

    def iter_items(self) -> Iterator[MatchItem]:
        """Yield live items in FIFO (posting) order, without memory charges."""
        for cell in self._all.values():
            yield cell.item

    def regions(self) -> list[Allocation]:
        """Simulated memory regions backing this structure (heater targets)."""
        regions = [self._level_array]
        regions.extend(cell.alloc for cell in self._all.values())
        return regions

    def footprint_bytes(self) -> int:
        """Total simulated bytes currently backing the structure."""
        return self._level_array.size + len(self._all) * self.node_bytes
