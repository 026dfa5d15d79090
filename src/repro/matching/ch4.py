"""MPICH CH4-style per-communicator queues (paper section 2.2).

    "Implementations based on the open source MPICH implementation typically
    use a single linked list for all communicators. Newer approaches like
    CH4 in MPICH, however, use more than one list."

CH4 splits the single global list into one list per communicator context id,
removing cross-communicator interference while keeping the simple FIFO scan
within each communicator. Wildcards still work naturally because MPI
wildcards never span communicators — a receive always names its
communicator, so a probe touches exactly one list.

Structurally this is a dict of per-cid baseline lists; each per-cid list
allocates from the shared heap, so spatial locality matches the baseline's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from repro.matching.base import MatchQueue
from repro.matching.entry import LL_NODE_POINTERS, MatchItem
from repro.matching.envelope import items_match
from repro.matching.port import MemoryPort, emit_node_runs
from repro.mem.alloc import Allocation, SequentialHeap

_PTR_BYTES = 8


@dataclass
class _Node:
    item: MatchItem
    alloc: Allocation


class Ch4PerCommunicatorQueue(MatchQueue):
    """One FIFO linked list per communicator context id."""

    family = "ch4"

    DEFAULT_BASE = 0xD000_0000
    DEFAULT_CAPACITY = 1 << 30

    def __init__(
        self,
        *,
        entry_bytes: int = 24,
        port: Optional[MemoryPort] = None,
        heap=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(entry_bytes=entry_bytes, port=port)
        if heap is None:
            heap = SequentialHeap(
                self.DEFAULT_BASE,
                self.DEFAULT_CAPACITY,
                rng if rng is not None else np.random.default_rng(0),
            )
        self.heap = heap
        self.node_bytes = LL_NODE_POINTERS + entry_bytes
        # cid -> list head; the communicator table itself is a small
        # pointer structure we charge one load for per operation.
        self._table_alloc = heap.alloc(64 * _PTR_BYTES)
        self._lists: Dict[int, list] = {}
        self._live = 0

    def _table_slot(self, cid: int) -> int:
        return self._table_alloc.addr + (cid % 64) * _PTR_BYTES

    def post(self, item: MatchItem) -> None:
        """Append *item*; its FIFO position is its posting order."""
        alloc = self.heap.alloc(self.node_bytes)
        item.addr = alloc.addr + LL_NODE_POINTERS
        self.port.store(alloc.addr, self.node_bytes)
        self.port.load(self._table_slot(item.cid), _PTR_BYTES)
        lst = self._lists.setdefault(item.cid, [])
        if lst:
            self.port.store(lst[-1].alloc.addr, _PTR_BYTES)
        lst.append(_Node(item, alloc))
        self._live += 1
        self.stats.posts += 1

    def match_remove(self, probe: MatchItem) -> Optional[MatchItem]:
        """Find, remove and return the earliest item matching *probe*, or None.

        The communicator's list is charged as constant-stride runs up to
        and including the match.
        """
        port = self.port
        port.load(self._table_slot(probe.cid), _PTR_BYTES)
        lst = self._lists.get(probe.cid)
        if not lst:
            self.stats.record_search(0, False)
            return None
        found = -1
        for idx, node in enumerate(lst):
            if items_match(node.item, probe):
                found = idx
                break
        stop = found if found >= 0 else len(lst) - 1
        emit_node_runs(
            port, [lst[i].alloc.addr for i in range(stop + 1)], self.node_bytes
        )
        if found >= 0:
            node = lst.pop(found)
            if found > 0:
                port.store(lst[found - 1].alloc.addr, _PTR_BYTES)
            self.heap.free(node.alloc)
            self._live -= 1
            self.stats.record_search(found + 1, True)
            return node.item
        self.stats.record_search(len(lst), False)
        return None

    def __len__(self) -> int:
        return self._live

    def iter_items(self) -> Iterator[MatchItem]:
        """Yield live items in FIFO (posting) order, without memory charges."""
        nodes = [node for lst in self._lists.values() for node in lst]
        for node in sorted(nodes, key=lambda n: n.item.seq):
            yield node.item

    def regions(self) -> list:
        """Simulated memory regions backing this structure (heater targets)."""
        regions = [self._table_alloc]
        for lst in self._lists.values():
            regions.extend(node.alloc for node in lst)
        return regions

    def footprint_bytes(self) -> int:
        """Total simulated bytes currently backing the structure."""
        return self._table_alloc.size + self._live * self.node_bytes

    def communicator_count(self) -> int:
        """Number of communicators with live entries."""
        return sum(1 for lst in self._lists.values() if lst)
