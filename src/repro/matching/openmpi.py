"""Open MPI's hierarchical match queue (paper section 2.2).

    "Open MPI has the most complex match list, a hierarchical list with the
    communicator as the first level and source as the second level. Each
    communicator has an array of linked lists for searching the ranks and
    tags. ... This allows the short list for a particular communicator/source
    to be reached in O(1) time. The Open MPI approach, however, is not
    scalable in terms of memory consumption, since for a communicator
    comprising N processes, each process must maintain an array of size N."

Wildcard-source receives cannot live in a per-source list; they are kept in a
per-communicator wildcard list, and correctness requires comparing sequence
numbers between the per-source candidate and the wildcard candidate so the
earliest-posted one wins (MPI FIFO ordering).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, Optional

import numpy as np

from repro.matching.base import MatchQueue
from repro.matching.entry import LL_NODE_POINTERS, MatchItem
from repro.matching.envelope import items_match
from repro.matching.port import MemoryPort, emit_node_runs
from repro.mem.alloc import Allocation, SequentialHeap

_PTR_BYTES = 8


@dataclass
class _Cell:
    item: MatchItem
    alloc: Allocation


@dataclass
class _CommState:
    array_alloc: Allocation
    nranks: int
    by_src: Dict[int, Deque[_Cell]] = field(default_factory=dict)
    wild: Deque[_Cell] = field(default_factory=deque)


class OpenMpiHierarchicalQueue(MatchQueue):
    """Per-communicator array of per-source lists plus a wildcard list."""

    family = "openmpi"

    DEFAULT_BASE = 0x7000_0000
    DEFAULT_CAPACITY = 1 << 30

    def __init__(
        self,
        *,
        entry_bytes: int = 24,
        port: Optional[MemoryPort] = None,
        heap=None,
        rng: Optional[np.random.Generator] = None,
        default_nranks: int = 1024,
    ) -> None:
        super().__init__(entry_bytes=entry_bytes, port=port)
        if heap is None:
            heap = SequentialHeap(
                self.DEFAULT_BASE,
                self.DEFAULT_CAPACITY,
                rng if rng is not None else np.random.default_rng(0),
            )
        self.heap = heap
        self.default_nranks = default_nranks
        self.node_bytes = LL_NODE_POINTERS + entry_bytes
        self._comms: Dict[int, _CommState] = {}
        self._live = 0

    # -- structure maintenance ---------------------------------------------

    def _comm(self, cid: int) -> _CommState:
        state = self._comms.get(cid)
        if state is None:
            # The O(N) per-communicator pointer array the paper calls out as
            # the memory-scalability problem (O(N^2) across N processes).
            array_alloc = self.heap.alloc(self.default_nranks * _PTR_BYTES)
            state = _CommState(array_alloc, self.default_nranks)
            self._comms[cid] = state
        return state

    def post(self, item: MatchItem) -> None:
        """Append *item*; its FIFO position is its posting order."""
        state = self._comm(item.cid)
        alloc = self.heap.alloc(self.node_bytes)
        item.addr = alloc.addr + LL_NODE_POINTERS
        cell = _Cell(item, alloc)
        self.port.store(alloc.addr, self.node_bytes)
        if item.wildcard_source:
            state.wild.append(cell)
        else:
            slot = item.src % state.nranks
            self.port.store(state.array_alloc.addr + slot * _PTR_BYTES, _PTR_BYTES)
            state.by_src.setdefault(item.src, deque()).append(cell)
        self._live += 1
        self.stats.posts += 1

    # -- searching --------------------------------------------------------------

    def _scan_list(
        self, cells: Deque[_Cell], probe: MatchItem, stop_before_seq: Optional[int]
    ) -> tuple[Optional[_Cell], int]:
        """First match in FIFO order and the number of cells inspected;
        stops early once seq >= stop_before_seq (a better candidate from
        another list already exists). The match/early-stop decision is made
        host-side, then the inspected cells are charged with heap-adjacent
        stretches coalesced into runs."""
        addrs = []
        found: Optional[_Cell] = None
        for cell in cells:
            if stop_before_seq is not None and cell.item.seq >= stop_before_seq:
                break
            addrs.append(cell.alloc.addr)
            if items_match(cell.item, probe):
                found = cell
                break
        emit_node_runs(self.port, addrs, self.node_bytes)
        return found, len(addrs)

    def match_remove(self, probe: MatchItem) -> Optional[MatchItem]:
        """Find, remove and return the earliest item matching *probe*, or None."""
        state = self._comms.get(probe.cid)
        if state is None:
            self.stats.record_search(0, False)
            return None
        probes = 0
        best: Optional[_Cell] = None
        best_list: Optional[Deque[_Cell]] = None
        if probe.wildcard_source:
            # Must consider every per-source list (plus the wildcard list).
            candidates = list(state.by_src.values())
        else:
            slot_addr = state.array_alloc.addr + (probe.src % state.nranks) * _PTR_BYTES
            self.port.load(slot_addr, _PTR_BYTES)
            lst = state.by_src.get(probe.src)
            candidates = [lst] if lst is not None else []
        for cells in candidates:
            cell, p = self._scan_list(
                cells, probe, best.item.seq if best is not None else None
            )
            probes += p
            if cell is not None and (best is None or cell.item.seq < best.item.seq):
                best, best_list = cell, cells
        cell, p = self._scan_list(
            state.wild, probe, best.item.seq if best is not None else None
        )
        probes += p
        if cell is not None and (best is None or cell.item.seq < best.item.seq):
            best, best_list = cell, state.wild
        if best is None:
            self.stats.record_search(probes, False)
            return None
        best_list.remove(best)
        self.heap.free(best.alloc)
        self.port.store(best.alloc.addr, _PTR_BYTES)
        self._live -= 1
        self.stats.record_search(probes, True)
        return best.item

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def iter_items(self) -> Iterator[MatchItem]:
        """Yield live items in FIFO (posting) order, without memory charges."""
        cells: list[_Cell] = []
        for state in self._comms.values():
            for lst in state.by_src.values():
                cells.extend(lst)
            cells.extend(state.wild)
        for cell in sorted(cells, key=lambda c: c.item.seq):
            yield cell.item

    def regions(self) -> list[Allocation]:
        """Simulated memory regions backing this structure (heater targets)."""
        regions = [state.array_alloc for state in self._comms.values()]
        for state in self._comms.values():
            for lst in state.by_src.values():
                regions.extend(c.alloc for c in lst)
            regions.extend(c.alloc for c in state.wild)
        return regions

    def footprint_bytes(self) -> int:
        """Total simulated bytes currently backing the structure."""
        total = sum(s.array_alloc.size for s in self._comms.values())
        return total + self._live * self.node_bytes
