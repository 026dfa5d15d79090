"""The linked list of arrays (LLA) — the paper's spatial-locality tool.

Section 3.1: an LLA node stores ``k`` match entries contiguously, preceded by
4+4-byte head/tail indexes and followed by the 8-byte next pointer. With
24-byte PRQ entries, k=2 fills one 64-byte cache line exactly (Figure 2); the
experiments sweep k over {2, 4, 8, 16, 32} ("from there we increase spacial
locality by doubling the number of elements to perform an exponential
sweep"). "LLA-Large" (Figure 10) is the same structure with a much larger k.

Hole management follows the paper: "We manage holes in the array (from
deletions in the middle of the list) by ensuring tags and sources are invalid
and all bitmask fields are set" — i.e. a removal marks the slot invalid in
place; later searches still walk over it (it is in the contiguous scan), but
it can never match. Appends always go to the tail slot of the tail node.
Fully-drained nodes are unlinked and returned to the node pool.

Nodes come from a :class:`~repro.mem.alloc.SlabPool`: contiguous, line
aligned, with a *stable* region set — which is what lets the hot-cache
heater register the pool's slabs once instead of tracking every node
(section 4.3's "dedicated element pool" that reduces locking overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.matching.base import MatchQueue
from repro.matching.entry import MatchItem, lla_node_bytes
from repro.matching.port import MemoryPort
from repro.mem.alloc import Allocation, BumpAllocator, SlabPool

#: Byte offset of slot *i* inside a node: past the 8-byte head/tail indexes.
_SLOT_BASE = 8


@dataclass
class _LlaNode:
    alloc: Allocation
    slots: List[Optional[MatchItem]]
    start: int = 0  # first potentially-live slot
    end: int = 0  # one past the last used slot
    live: int = 0

    def slot_addr(self, idx: int, entry_bytes: int) -> int:
        """Byte address of slot *idx* within this node."""
        return self.alloc.addr + _SLOT_BASE + idx * entry_bytes


class LinkedListOfArrays(MatchQueue):
    """Linked list of k-entry arrays with invalidation-based holes."""

    family = "lla"

    DEFAULT_BASE = 0x4000_0000
    DEFAULT_CAPACITY = 1 << 30

    def __init__(
        self,
        entries_per_node: int = 2,
        *,
        entry_bytes: int = 24,
        port: Optional[MemoryPort] = None,
        pool: Optional[SlabPool] = None,
        arena: Optional[BumpAllocator] = None,
    ) -> None:
        if entries_per_node < 1:
            raise ConfigurationError(
                f"entries_per_node must be >= 1, got {entries_per_node}"
            )
        super().__init__(entry_bytes=entry_bytes, port=port)
        self.entries_per_node = entries_per_node
        self.node_bytes = lla_node_bytes(entries_per_node, entry_bytes)
        if pool is None:
            if arena is None:
                arena = BumpAllocator(self.DEFAULT_BASE, self.DEFAULT_CAPACITY)
            pool = SlabPool(self.node_bytes, arena=arena)
        self.pool = pool
        self._nodes: list[_LlaNode] = []
        self._live = 0
        self.hole_probes = 0  # invalidated slots walked over during searches

    # -- posting ---------------------------------------------------------

    def _new_node(self) -> _LlaNode:
        alloc = self.pool.alloc()
        node = _LlaNode(alloc, [None] * self.entries_per_node)
        # Initialize head/tail indexes and patch the previous tail's next
        # pointer (it sits in the last 8 bytes of that node).
        self.port.store(alloc.addr, _SLOT_BASE)
        if self._nodes:
            prev = self._nodes[-1]
            self.port.store(prev.alloc.addr + self.node_bytes - 8, 8)
        self._nodes.append(node)
        return node

    def post(self, item: MatchItem) -> None:
        """Append *item*; its FIFO position is its posting order."""
        node = self._nodes[-1] if self._nodes else None
        if node is None or node.end >= self.entries_per_node:
            node = self._new_node()
        idx = node.end
        node.end += 1
        node.live += 1
        node.slots[idx] = item
        item.addr = node.slot_addr(idx, self.entry_bytes)
        self.port.store(item.addr, self.entry_bytes)
        self.port.store(node.alloc.addr, _SLOT_BASE)  # update tail index
        self._live += 1
        self.stats.posts += 1

    # -- searching ---------------------------------------------------------

    #: Middleware prefetch hints run this many *nodes* ahead of the scan.
    SW_PREFETCH_LOOKAHEAD = 2

    def match_remove(self, probe: MatchItem) -> Optional[MatchItem]:
        """Find, remove and return the earliest item matching *probe*, or None.

        Each node is charged as one run: its header plus the slots from
        ``start`` up to and including the match (or the whole used window),
        decided host-side first (slot contents are simulator state, not
        simulated memory). Holes inside the window are loaded and counted in
        ``hole_probes`` but never match.
        """
        probes = 0
        port = self.port
        eb = self.entry_bytes
        # A port that provably ignores hints lets the scan skip emitting them.
        lookahead = -1 if port.hint_is_noop else self.SW_PREFETCH_LOOKAHEAD
        # The match rule inlined with the probe's fields hoisted (keep in
        # sync with repro.matching.envelope.items_match): the host-side scan
        # is the walk's whole per-slot cost, so it must not pay a call per
        # slot.
        p_cid = probe.cid
        p_src = probe.src
        p_tag = probe.tag
        p_sm = probe.src_mask
        p_tm = probe.tag_mask
        for node_idx, node in enumerate(self._nodes):
            if 0 <= lookahead and node_idx + lookahead < len(self._nodes):
                ahead = self._nodes[node_idx + lookahead]
                port.hint(ahead.alloc.addr, self.node_bytes)
            slots = node.slots
            found = -1
            for idx in range(node.start, node.end):
                item = slots[idx]
                if item is None:
                    # A hole: invalid tag/source, all mask bits set — it is
                    # inspected but can never match.
                    self.hole_probes += 1
                    continue
                probes += 1
                if (
                    item.cid == p_cid
                    and not ((item.src ^ p_src) & item.src_mask & p_sm)
                    and not ((item.tag ^ p_tag) & item.tag_mask & p_tm)
                ):
                    found = idx
                    break
            stop = found if found >= 0 else node.end - 1
            start = node.start
            nprobes = stop - start + 1
            base = node.alloc.addr
            if nprobes <= 0:
                port.load(base, _SLOT_BASE)
            elif start == 0:
                # Header + slots in one run (the header's _SLOT_BASE bytes
                # end exactly at slot 0).
                port.load_run(base + _SLOT_BASE, nprobes * eb, nprobes, None, _SLOT_BASE)
            else:
                # The window no longer starts at the header boundary (front
                # holes were tightened away): the header is charged alone,
                # ahead of the slots.
                port.load(base, _SLOT_BASE)
                port.load_run(base + _SLOT_BASE + start * eb, nprobes * eb, nprobes)
            if found >= 0:
                item = slots[found]
                self._remove_at(node, found, node_idx)
                self.stats.record_search(probes, True)
                return item
        self.stats.record_search(probes, False)
        return None

    def _remove_at(self, node: _LlaNode, idx: int, node_idx: int) -> None:
        item = node.slots[idx]
        node.slots[idx] = None
        node.live -= 1
        self._live -= 1
        # Invalidate the entry in place (write the poisoned tag/masks).
        self.port.store(item.addr, self.entry_bytes)
        # Tighten the used window over boundary holes.
        while node.start < node.end and node.slots[node.start] is None:
            node.start += 1
        while node.end > node.start and node.slots[node.end - 1] is None:
            node.end -= 1
        if node.live == 0:
            self._unlink(node, node_idx)
        else:
            self.port.store(node.alloc.addr, _SLOT_BASE)  # head/tail update

    def _unlink(self, node: _LlaNode, idx: int) -> None:
        assert self._nodes[idx] is node
        self._nodes.pop(idx)
        if idx > 0:
            # Patch the predecessor's next pointer.
            prev = self._nodes[idx - 1]
            self.port.store(prev.alloc.addr + self.node_bytes - 8, 8)
        self.pool.free(node.alloc)

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def iter_items(self) -> Iterator[MatchItem]:
        """Yield live items in FIFO (posting) order, without memory charges."""
        for node in self._nodes:
            for idx in range(node.start, node.end):
                item = node.slots[idx]
                if item is not None:
                    yield item

    def regions(self) -> list[Allocation]:
        """The pool's slabs: a short, stable region set (heater friendly)."""
        return self.pool.regions()

    def footprint_bytes(self) -> int:
        """Total simulated bytes currently backing the structure."""
        return len(self._nodes) * self.node_bytes

    @property
    def node_count(self) -> int:
        """Live LLA nodes."""
        return len(self._nodes)

    def hole_count(self) -> int:
        """Number of invalidated slots still inside used windows."""
        return sum(
            1
            for node in self._nodes
            for idx in range(node.start, node.end)
            if node.slots[idx] is None
        )
