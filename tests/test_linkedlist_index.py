"""Differential test of the baseline list's NullPort search index.

On a ``NullPort`` the baseline linked list answers concrete probes through
per-key FIFOs and a slot list instead of walking its nodes. The oracle
below is a copy of the plain linear list, in two walk spellings (per-node
loads, or runs coalesced through ``emit_node_runs``), and must agree with it
after every operation of a random interleaving: the returned item, the
queue statistics, the FIFO order and all five NullPort counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matching.adaptive import AdaptiveHybridQueue
from repro.matching.bounded import BoundedQueue
from repro.matching.entry import LL_NODE_POINTERS, MatchItem
from repro.matching.envelope import FULL_MASK, items_match
from repro.matching.linkedlist import BaselineLinkedList
from repro.matching.port import NullPort, emit_node_runs
from repro.mem.alloc import Allocation, BumpAllocator, FragmentedHeap, SequentialHeap

BASE = 0x1000_0000
COUNTERS = ("loads", "stores", "hints", "bytes_loaded", "bytes_stored")


class _LinearList(BaselineLinkedList):
    """The baseline list as a plain linear walk: the index's oracle.

    Construction and accessors are inherited; posting, searching and
    unlinking are walk-only, so no index state is touched. With *batch*
    the walk charges its nodes in runs through ``emit_node_runs``, hints
    first; otherwise it issues each hint just before the load of the node
    it runs ahead of. A NullPort's counters cannot tell the two apart.
    """

    def __init__(self, *, entry_bytes, port, heap, batch):
        super().__init__(entry_bytes=entry_bytes, port=port, heap=heap)
        self._indexed = False
        self._batch = batch

    def post(self, item):
        alloc = self.heap.alloc(self.node_bytes)
        item.addr = alloc.addr + LL_NODE_POINTERS
        self.port.store(alloc.addr, self.node_bytes)
        if self._nodes:
            self.port.store(self._nodes[-1].alloc.addr, 8)
        self._nodes.append(_Plain(item, alloc))
        self.stats.posts += 1

    def match_remove(self, probe):
        if self._batch:
            return self._linear_runs(probe)
        return self._linear_slots(probe)

    def _linear_slots(self, probe):
        probes = 0
        nodes = self._nodes
        lookahead = self.SW_PREFETCH_LOOKAHEAD
        for idx, node in enumerate(nodes):
            if idx + lookahead < len(nodes):
                self.port.hint(nodes[idx + lookahead].alloc.addr, self.node_bytes)
            self.port.load(node.alloc.addr, self.node_bytes)
            probes += 1
            if items_match(node.item, probe):
                self._linear_unlink(idx)
                self.stats.record_search(probes, True)
                return node.item
        self.stats.record_search(probes, False)
        return None

    def _linear_runs(self, probe):
        nodes = self._nodes
        n = len(nodes)
        port = self.port
        found = -1
        for idx, node in enumerate(nodes):
            if items_match(node.item, probe):
                found = idx
                break
        stop = found if found >= 0 else n - 1
        lookahead = self.SW_PREFETCH_LOOKAHEAD
        for idx in range(max(0, min(stop + 1, n - lookahead))):
            port.hint(nodes[idx + lookahead].alloc.addr, self.node_bytes)
        emit_node_runs(port, [nodes[i].alloc.addr for i in range(stop + 1)], self.node_bytes)
        if found >= 0:
            node = nodes[found]
            self._linear_unlink(found)
            self.stats.record_search(found + 1, True)
            return node.item
        self.stats.record_search(n, False)
        return None

    def _linear_unlink(self, idx):
        node = self._nodes.pop(idx)
        if idx > 0:
            self.port.store(self._nodes[idx - 1].alloc.addr, 8)
        if idx < len(self._nodes):
            self.port.store(self._nodes[idx].alloc.addr + 8, 8)
        self.heap.free(node.alloc)


class _Plain:
    __slots__ = ("item", "alloc")

    def __init__(self, item, alloc):
        self.item = item
        self.alloc = alloc


class _StrideHeap:
    """Strides from a small set, plus LIFO reuse of freed nodes.

    A few distinct strides make coincidences common (a gap left by a
    removal equal to a neighbouring stride); reuse adds backward jumps.
    """

    STRIDES = (40, 48, 80, 88, 96)

    def __init__(self, rng):
        self.rng = rng
        self._next = BASE
        self._free = []

    def alloc(self, size):
        if self._free and self.rng.random() < 0.3:
            return self._free.pop()
        addr = self._next
        self._next += int(self.rng.choice(self.STRIDES))
        return Allocation(addr, size)

    def free(self, allocation):
        self._free.append(allocation)


def _heap(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "sequential":
        return SequentialHeap(BASE, 1 << 30, rng)
    if kind == "fragmented":
        return FragmentedHeap(BASE, 1 << 30, rng)
    if kind == "stride":
        return _StrideHeap(rng)
    return BumpAllocator(BASE, 1 << 30)


# Field values: small so keys collide; 2**32 + 1 aliases 1 under the mask.
VALUES = st.sampled_from([0, 1, 2, 3, (1 << 32) + 1])
# (src_mask, tag_mask): concrete, ANY_SOURCE, ANY_TAG, both, and partial.
MASKS = st.sampled_from(
    [
        (FULL_MASK, FULL_MASK),
        (0, FULL_MASK),
        (FULL_MASK, 0),
        (0, 0),
        (FULL_MASK, 0xF0),
        (0x3, FULL_MASK),
    ]
)
OP = st.tuples(
    st.sampled_from(["post", "match", "match"]),
    st.integers(min_value=0, max_value=1),  # cid
    VALUES,
    VALUES,
    MASKS,
    st.booleans(),  # full masks when True, else the drawn ones
)
OPS = st.lists(OP, max_size=70)


def _item(seq, cid, src, tag, masks, concrete):
    src_mask, tag_mask = (FULL_MASK, FULL_MASK) if concrete else masks
    return MatchItem(
        seq=seq, src=src, tag=tag, cid=cid, src_mask=src_mask, tag_mask=tag_mask
    )


def _snapshot(queue, port):
    return (
        queue.stats,
        [item.seq for item in queue.iter_items()],
        tuple(getattr(port, name) for name in COUNTERS),
    )


def _drive(indexed, oracle, ops, inner=None):
    """Apply *ops* to both queues, comparing after every operation."""
    for seq, (kind, cid, src, tag, masks, concrete) in enumerate(ops):
        if kind == "post":
            indexed.post(_item(seq, cid, src, tag, masks, concrete))
            oracle.post(_item(seq, cid, src, tag, masks, concrete))
            got = want = None
        else:
            got = indexed.match_remove(_item(-1, cid, src, tag, masks, concrete))
            want = oracle.match_remove(_item(-1, cid, src, tag, masks, concrete))
        assert (got is None) == (want is None)
        if got is not None:
            assert got.seq == want.seq
        assert _snapshot(indexed, indexed.port) == _snapshot(oracle, oracle.port)
        if inner is not None and inner._indexed:
            assert inner._slots == sorted(inner._slots)
            assert len(inner._slots) == len(inner._nodes)


HEAPS = ("sequential", "fragmented", "bump", "stride")

#: The oracle's walk spellings: coalesced runs, or one load per node.
WALKS = pytest.mark.parametrize("batch", [True, False], ids=["batch", "slots"])


@WALKS
@pytest.mark.parametrize("heap", HEAPS)
class TestIndexMatchesLinearWalk:
    @given(ops=OPS, seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_plain_list(self, heap, batch, ops, seed):
        indexed = BaselineLinkedList(port=NullPort(), heap=_heap(heap, seed))
        oracle = _LinearList(
            entry_bytes=24, port=NullPort(), heap=_heap(heap, seed), batch=batch
        )
        assert indexed._indexed
        _drive(indexed, oracle, ops, inner=indexed)
        # Draining empties both through exact probes, in FIFO order.
        assert [i.seq for i in indexed.drain()] == [i.seq for i in oracle.drain()]
        assert _snapshot(indexed, indexed.port) == _snapshot(oracle, oracle.port)
        assert not indexed._heads and not indexed._tails and not indexed._slots

    @given(
        ops=OPS,
        seed=st.integers(min_value=0, max_value=50),
        capacity=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounded_drop_head(self, heap, batch, ops, seed, capacity):
        inner = BaselineLinkedList(port=NullPort(), heap=_heap(heap, seed))
        indexed = BoundedQueue(inner, capacity, policy="drop-head")
        oracle = BoundedQueue(
            _LinearList(
                entry_bytes=24, port=NullPort(), heap=_heap(heap, seed), batch=batch
            ),
            capacity,
            policy="drop-head",
        )
        _drive(indexed, oracle, ops, inner=inner)
        assert indexed.admission == oracle.admission


@WALKS
@given(ops=OPS, seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_adaptive_hybrid(batch, ops, seed):
    def build():
        return AdaptiveHybridQueue(
            port=NullPort(),
            rng=np.random.default_rng(seed),
            promote_at=8,
            demote_at=3,
        )

    indexed = build()
    oracle = build()
    # Swap in the linear list over the same (still unused) heap, so both
    # queues share one rng draw order with their hash bins.
    oracle._list = _LinearList(
        entry_bytes=24, port=oracle.port, heap=oracle._list.heap, batch=batch
    )
    _drive(indexed, oracle, ops, inner=indexed._list)
    assert indexed.migrations == oracle.migrations


def test_engine_ports_keep_the_walk():
    """Only an exact NullPort builds the index."""

    class CountingPort(NullPort):
        __slots__ = ()

    assert BaselineLinkedList(port=NullPort())._indexed
    assert not BaselineLinkedList(port=CountingPort())._indexed
