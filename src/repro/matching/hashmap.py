"""Flajslik et al.'s binned hash-map matching (related work, section 5).

    "The match lists are replaced by a fixed hash map that maps matching data
    to separate linked lists. The number of linked lists and the hash
    function are configurable parameters. ... the proposed design with 256
    bins reduce the number of match attempts per message significantly.
    Moreover, this data structure has a constant overhead in queue selection,
    which slows down the most common case of a very short list traversal."

Wildcard receives cannot be binned; they live in a dedicated wildcard list.
When the probe itself carries wildcards (a UMQ search for a wildcard recv),
the structure degrades to a FIFO scan over all live items — the slow path
the original paper also pays.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.matching.base import MatchQueue
from repro.matching.entry import LL_NODE_POINTERS, MatchItem
from repro.matching.envelope import items_match
from repro.matching.port import MemoryPort, emit_node_runs
from repro.mem.alloc import Allocation, SequentialHeap

_PTR_BYTES = 8


def bin_index(src: int, tag: int, cid: int, nbins: int) -> int:
    """Deterministic multiplicative hash over the full matching criteria."""
    h = (src * 1_000_003) ^ (tag * 10_007) ^ (cid * 97)
    return (h & 0x7FFF_FFFF) % nbins


@dataclass
class _Cell:
    item: MatchItem
    alloc: Allocation
    bin: int  # -1 for the wildcard list


class BinnedHashQueue(MatchQueue):
    """Fixed-size hash bins keyed on (src, tag, cid) + a wildcard list."""

    family = "hashmap"

    DEFAULT_BASE = 0x9000_0000
    DEFAULT_CAPACITY = 1 << 30

    def __init__(
        self,
        nbins: int = 256,
        *,
        entry_bytes: int = 24,
        port: Optional[MemoryPort] = None,
        heap=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if nbins < 1:
            raise ConfigurationError(f"nbins must be >= 1, got {nbins}")
        super().__init__(entry_bytes=entry_bytes, port=port)
        if heap is None:
            heap = SequentialHeap(
                self.DEFAULT_BASE,
                self.DEFAULT_CAPACITY,
                rng if rng is not None else np.random.default_rng(0),
            )
        self.heap = heap
        self.nbins = nbins
        self.node_bytes = LL_NODE_POINTERS + entry_bytes
        self._bin_array = heap.alloc(nbins * _PTR_BYTES)
        self._bins: Dict[int, Deque[_Cell]] = {}
        self._wild: Deque[_Cell] = deque()
        # Global FIFO index (seq -> cell) for wildcard probes and iteration.
        self._all: "OrderedDict[int, _Cell]" = OrderedDict()

    # -- posting --------------------------------------------------------------

    def post(self, item: MatchItem) -> None:
        """Append *item*; its FIFO position is its posting order."""
        alloc = self.heap.alloc(self.node_bytes)
        item.addr = alloc.addr + LL_NODE_POINTERS
        self.port.store(alloc.addr, self.node_bytes)
        if item.wildcard_source or item.wildcard_tag:
            cell = _Cell(item, alloc, -1)
            self._wild.append(cell)
        else:
            b = bin_index(item.src, item.tag, item.cid, self.nbins)
            self.port.store(self._bin_array.addr + b * _PTR_BYTES, _PTR_BYTES)
            cell = _Cell(item, alloc, b)
            self._bins.setdefault(b, deque()).append(cell)
        self._all[item.seq] = cell
        self.stats.posts += 1

    # -- searching ---------------------------------------------------------------

    def match_remove(self, probe: MatchItem) -> Optional[MatchItem]:
        """Find, remove and return the earliest item matching *probe*, or None."""
        if probe.wildcard_source or probe.wildcard_tag:
            return self._match_remove_slow(probe)
        return self._match_remove_binned(probe)

    def _match_remove_binned(self, probe: MatchItem) -> Optional[MatchItem]:
        """Concrete probe: bin traversal then wildcard traversal, as runs."""
        port = self.port
        b = bin_index(probe.src, probe.tag, probe.cid, self.nbins)
        # The constant queue-selection overhead: hashing + bin head load.
        port.load(self._bin_array.addr + b * _PTR_BYTES, _PTR_BYTES)
        best: Optional[_Cell] = None
        bin_addrs = []
        for cell in self._bins.get(b, ()):  # FIFO within the bin
            bin_addrs.append(cell.alloc.addr)
            if items_match(cell.item, probe):
                best = cell
                break
        emit_node_runs(port, bin_addrs, self.node_bytes)
        probes = len(bin_addrs)
        # The wildcard list may hold an earlier-posted match; the seq guard
        # ends the traversal before the later cell is loaded.
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

    def _match_remove_slow(self, probe: MatchItem) -> Optional[MatchItem]:
        """Wildcard probe: FIFO scan over every live item, charged as runs."""
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
        if cell.bin < 0:
            self._wild.remove(cell)
        else:
            self._bins[cell.bin].remove(cell)
        del self._all[cell.item.seq]
        self.heap.free(cell.alloc)
        self.port.store(cell.alloc.addr, _PTR_BYTES)

    # -- introspection -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._all)

    def iter_items(self) -> Iterator[MatchItem]:
        """Yield live items in FIFO (posting) order, without memory charges."""
        for cell in self._all.values():
            yield cell.item

    def regions(self) -> list[Allocation]:
        """Simulated memory regions backing this structure (heater targets)."""
        regions = [self._bin_array]
        regions.extend(cell.alloc for cell in self._all.values())
        return regions

    def footprint_bytes(self) -> int:
        """Total simulated bytes currently backing the structure."""
        return self._bin_array.size + len(self._all) * self.node_bytes

    def bin_load_factor(self) -> float:
        """Mean live entries per non-empty bin (diagnostics)."""
        sizes = [len(d) for d in self._bins.values() if d]
        return float(np.mean(sizes)) if sizes else 0.0
