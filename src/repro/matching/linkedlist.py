"""The baseline single linked-list match queue (MPICH lineage).

Paper section 2.2: "Implementations based on the open source MPICH
implementation typically use a single linked list for all communicators."

Each element lives in its own heap node: two pointers plus the entry, behind
a malloc-style header. Nodes come from a :class:`SequentialHeap` by default —
consecutive posts are *usually* adjacent in memory but each entry costs more
than a cache line and the stream is irregular, which is exactly the layout
the paper's baseline measurements reflect ("the unmodified baseline requires
more than a cache line for a single entry", section 4.2). A
:class:`FragmentedHeap` can be supplied instead to model a long-running,
churned arena (used by the FDS study, whose lists are long-lived).

NullPort search index
---------------------

Against a :class:`~repro.matching.port.NullPort` a search charges nothing,
so all a search decides is *where* its match sits: the walk's loads and
hints follow from that position alone. A list built on a NullPort
therefore keeps an index beside ``_nodes`` and answers concrete probes
without walking:

* **Key FIFOs.** Every item whose masks are all-or-nothing has an envelope
  key ``(cid, src or ANY, tag or ANY)``; items sharing a key are linked
  oldest-first through ``_Node.next_same``, with ``_heads``/``_tails``
  holding each chain's ends. Whether an item matches a probe depends only
  on its key, so the earliest match of a concrete probe is the oldest of at
  most four chain heads, and every removal takes its chain's head.
* **Insertion slots.** ``_slots`` holds each live node's posting slot in
  list order (it is sorted), so a match's position is one ``bisect``.

The port is then charged arithmetically with exactly what the walk would
have counted; the unlink stores still go through the port. Wildcard probes,
searches while an item with a partial mask (neither 0 nor full) is live,
and every port other than an exact ``NullPort`` keep the linear walk: an
engine port must see each node it would have loaded, so the index would
only cost memory there.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional

import numpy as np

from repro.matching.base import MatchQueue
from repro.matching.entry import LL_NODE_POINTERS, MatchItem
from repro.matching.envelope import FULL_MASK, items_match
from repro.matching.port import MemoryPort, NullPort, emit_node_runs
from repro.mem.alloc import Allocation, SequentialHeap

#: Key component of a wildcarded (zero-mask) field.
_ANY = None


def _index_key(item: MatchItem):
    """The item's envelope key, or None when a mask is partial."""
    mask = item.src_mask
    if mask == FULL_MASK:
        src = item.src & FULL_MASK
    elif mask == 0:
        src = _ANY
    else:
        return None
    mask = item.tag_mask
    if mask == FULL_MASK:
        tag = item.tag & FULL_MASK
    elif mask == 0:
        tag = _ANY
    else:
        return None
    return (item.cid, src, tag)


class _Node:
    __slots__ = ("item", "alloc", "slot", "next_same")

    def __init__(self, item: MatchItem, alloc: Allocation) -> None:
        self.item = item
        self.alloc = alloc
        self.slot = 0
        self.next_same: Optional[_Node] = None


class BaselineLinkedList(MatchQueue):
    """Single FIFO linked list; O(n) search, one heap node per entry."""

    family = "baseline"

    #: Default arena placement for stand-alone construction.
    DEFAULT_BASE = 0x1000_0000
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
        self._nodes: list[_Node] = []
        # The search index (module docstring) exists only on a NullPort.
        self._indexed = type(self.port) is NullPort
        if self._indexed:
            self._heads: dict = {}
            self._tails: dict = {}
            self._slots: list[int] = []
            self._next_slot = 0
            self._partial = 0  # live items with a partial mask (no key)
            self._wild = 0  # live keyed items with a wildcarded field

    def post(self, item: MatchItem) -> None:
        """Append *item*; its FIFO position is its posting order."""
        alloc = self.heap.alloc(self.node_bytes)
        item.addr = alloc.addr + LL_NODE_POINTERS
        node = _Node(item, alloc)
        # Writing the new node and patching the old tail's next pointer.
        self.port.store(alloc.addr, self.node_bytes)
        if self._nodes:
            self.port.store(self._nodes[-1].alloc.addr, 8)
        self._nodes.append(node)
        if self._indexed:
            self._index_append(node)
        self.stats.posts += 1

    #: How far ahead of the scan middleware prefetch hints are issued. The
    #: software knows the pointer-chase targets the hardware cannot guess.
    SW_PREFETCH_LOOKAHEAD = 4

    def match_remove(self, probe: MatchItem) -> Optional[MatchItem]:
        """Find, remove and return the earliest item matching *probe*, or None."""
        if (
            self._indexed
            and not self._partial
            and probe.src_mask == FULL_MASK
            and probe.tag_mask == FULL_MASK
        ):
            return self._match_remove_indexed(probe)
        return self._match_remove_walk(probe)

    def _match_remove_walk(self, probe: MatchItem) -> Optional[MatchItem]:
        """Walk the list: one node load (pointers plus entry) per node up to
        and including the match, the whole list on a miss.

        The match is decided host-side first. On a port where hints act,
        each hint goes out right before the load of the node
        ``SW_PREFETCH_LOOKAHEAD`` behind its target — the order of a real
        pointer chase, which decides what the prefetch covers — so the
        loads stay one per node. Otherwise the loads are coalesced into
        constant-stride runs.
        """
        nodes = self._nodes
        n = len(nodes)
        port = self.port
        node_bytes = self.node_bytes
        found = -1
        for idx, node in enumerate(nodes):
            if items_match(node.item, probe):
                found = idx
                break
        stop = found if found >= 0 else n - 1
        if port.hint_is_noop:
            emit_node_runs(port, [nodes[i].alloc.addr for i in range(stop + 1)], node_bytes)
        else:
            lookahead = self.SW_PREFETCH_LOOKAHEAD
            hint = port.hint
            load = port.load
            for idx in range(stop + 1):
                if idx + lookahead < n:
                    hint(nodes[idx + lookahead].alloc.addr, node_bytes)
                load(nodes[idx].alloc.addr, node_bytes)
        if found >= 0:
            node = nodes[found]
            self._unlink(found)
            self.stats.record_search(found + 1, True)
            return node.item
        self.stats.record_search(n, False)
        return None

    def _match_remove_indexed(self, probe: MatchItem) -> Optional[MatchItem]:
        """NullPort search of a concrete probe through the index.

        Charges the port exactly what the walk above would have: one load
        and byte count per node up to the match (the whole list on a miss)
        and the walk's hint count.
        """
        cid = probe.cid
        src = probe.src & FULL_MASK
        tag = probe.tag & FULL_MASK
        heads = self._heads
        node = heads.get((cid, src, tag))
        if self._wild:
            for key in ((cid, _ANY, tag), (cid, src, _ANY), (cid, _ANY, _ANY)):
                head = heads.get(key)
                if head is not None and (node is None or head.slot < node.slot):
                    node = head
        n = len(self._nodes)
        inspected = n if node is None else bisect_left(self._slots, node.slot) + 1
        port = self.port
        port.loads += inspected
        port.bytes_loaded += inspected * self.node_bytes
        hints = min(inspected, n - self.SW_PREFETCH_LOOKAHEAD)
        if hints > 0:
            port.hints += hints
        if node is None:
            self.stats.record_search(n, False)
            return None
        self._unlink(inspected - 1)
        self.stats.record_search(inspected, True)
        return node.item

    def _unlink(self, idx: int) -> None:
        node = self._nodes.pop(idx)
        # Patch neighbours' pointers.
        if idx > 0:
            self.port.store(self._nodes[idx - 1].alloc.addr, 8)
        if idx < len(self._nodes):
            self.port.store(self._nodes[idx].alloc.addr + 8, 8)
        self.heap.free(node.alloc)
        if self._indexed:
            self._index_remove(node, idx)

    # -- NullPort index maintenance --------------------------------------------

    def _index_append(self, node: _Node) -> None:
        node.slot = self._next_slot
        self._next_slot += 1
        self._slots.append(node.slot)
        key = _index_key(node.item)
        if key is None:
            self._partial += 1
        else:
            tail = self._tails.get(key)
            if tail is None:
                self._heads[key] = node
            else:
                tail.next_same = node
            self._tails[key] = node
            if key[1] is _ANY or key[2] is _ANY:
                self._wild += 1

    def _index_remove(self, node: _Node, idx: int) -> None:
        del self._slots[idx]
        key = _index_key(node.item)
        if key is None:
            self._partial -= 1
        else:
            # A removed item is always the oldest of its key: items sharing
            # a key match exactly the same probes.
            nxt = node.next_same
            if nxt is None:
                del self._heads[key]
                del self._tails[key]
            else:
                self._heads[key] = nxt
            if key[1] is _ANY or key[2] is _ANY:
                self._wild -= 1

    def __len__(self) -> int:
        return len(self._nodes)

    def iter_items(self) -> Iterator[MatchItem]:
        """Yield live items in FIFO (posting) order, without memory charges."""
        for node in self._nodes:
            yield node.item

    def regions(self) -> list[Allocation]:
        """One region per live node — the heater's worst case: the region
        list is long and churns on every post/remove (section 3.2's lock
        contention problem)."""
        return [n.alloc for n in self._nodes]

    def footprint_bytes(self) -> int:
        """Total simulated bytes currently backing the structure."""
        return len(self._nodes) * self.node_bytes
