"""Batched scan transactions vs per-slot loads: bit-identical, by lockstep.

The scan-transaction port API (:meth:`~repro.matching.port.MemoryPort.load_run`
plus the ``begin_scan``/``end_scan`` bracket) lets queues charge a contiguous
run of probes in one engine call. Its contract is strict equivalence with the
retained per-slot spelling: same ``clock.now`` to the last float bit, same
``LevelStats``, same per-cache recency state, same RNG consumption. This
suite drives twin engine+queue stacks — one per scan mode — through an
identical seeded post/match workload across every queue family ×
{heated, unheated} and compares everything.

Also covered here: the ``REPRO_SCAN_BATCH`` resolution chain, NullPort's
O(1) run counters, the default per-slot fallback loop, LLA hole accounting
under both spellings (interior holes vs boundary-window tightening), and
repr-identity of reduced fig4/fig6 panels under both env values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import SANDY_BRIDGE
from repro.bench.figures import plan_spatial_search_length, plan_temporal_msg_size
from repro.errors import ConfigurationError
from repro.exp import Runner
from repro.hotcache.heater import Heater, HeaterConfig
from repro.matching.ch4 import Ch4PerCommunicatorQueue
from repro.matching.engine import MatchEngine
from repro.matching.entry import MatchItem
from repro.matching.fourd import FourDimensionalQueue
from repro.matching.hashmap import BinnedHashQueue
from repro.matching.linkedlist import BaselineLinkedList
from repro.matching.lla import LinkedListOfArrays
from repro.matching.openmpi import OpenMpiHierarchicalQueue
from repro.matching.port import (
    SCAN_BATCH_ENV,
    MemoryPort,
    NullPort,
    emit_node_runs,
    resolve_scan_batch,
)
from repro.mem.cache import CLS_DEFAULT, CLS_NETWORK, EvictionPolicy
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.clock import Clock

FAMILIES = {
    "lla-2": lambda port: LinkedListOfArrays(2, port=port),
    "lla-8": lambda port: LinkedListOfArrays(8, port=port),
    "baseline": lambda port: BaselineLinkedList(port=port),
    "ch4": lambda port: Ch4PerCommunicatorQueue(port=port),
    "hashmap": lambda port: BinnedHashQueue(port=port),
    "fourd": lambda port: FourDimensionalQueue(port=port),
    "openmpi": lambda port: OpenMpiHierarchicalQueue(port=port),
}

#: Small geometry so the workload overflows the L1 and the run fast path
#: has to coexist with misses, evictions and per-probe replays.
GEOMETRY = dict(
    n_cores=2,
    l1_size=4096,
    l1_assoc=4,
    l1_latency=4.0,
    l2_size=16384,
    l2_assoc=4,
    l2_latency=12.0,
    l3_size=65536,
    l3_assoc=8,
    l3_latency=30.0,
    dram_latency=200.0,
)


def _mk_item(rng, seq, wild=False):
    ws = wild and rng.random() < 0.3
    wt = wild and rng.random() < 0.2
    return MatchItem(
        seq=seq,
        src=int(rng.integers(0, 8)),
        tag=int(rng.integers(0, 4)),
        cid=0,
        src_mask=0 if ws else 0xFFFFFFFF,
        tag_mask=0 if wt else 0xFFFFFFFF,
    )


def build_stack(family, scan_batch, heated, *, policy=EvictionPolicy.LRU):
    hier = MemoryHierarchy(
        policy=policy,
        rng=np.random.default_rng(1234),
        **GEOMETRY,
    )
    clock = Clock()
    engine = MatchEngine(hier, clock=clock, scan_batch=scan_batch)
    queue = FAMILIES[family](engine)
    heater = None
    if heated:
        heater = Heater(
            hier, 2.0, HeaterConfig(period_ns=500.0), region_provider=queue.regions
        )
        engine.attach_heater(heater)
    return hier, clock, engine, queue, heater


def drive(queue, *, seed=42, posts=250, ops=350):
    rng = np.random.default_rng(seed)
    seq = 0
    for _ in range(posts):
        queue.post(_mk_item(rng, seq))
        seq += 1
    for _ in range(ops):
        queue.match_remove(_mk_item(rng, 10**9, wild=True))
        if rng.random() < 0.5:
            queue.post(_mk_item(rng, seq))
            seq += 1


def signature(hier, clock, engine, queue, heater):
    """Every observable the equivalence contract covers, repr-encoded."""
    ls = engine.level_stats
    recency = []
    for cache in [hier.l3] + [c for core in hier.cores for c in (core.l1, core.l2)]:
        for idx in range(cache.nsets):
            recency.append(tuple(cache.recency(idx)))
    sig = {
        "clock": repr(clock.now),
        "loads": engine.loads,
        "stores": engine.stores,
        "load_cycles": repr(engine.load_cycles),
        "store_cycles": repr(engine.store_cycles_total),
        "level_stats": ls.snapshot() if hasattr(ls, "snapshot") else repr(vars(ls)),
        "level_cycles": repr(ls.cycles),
        "hier_stats": repr(hier.stats()),
        "recency": tuple(recency),
        "searches": queue.stats.searches,
        "probes": queue.stats.probes,
        "matches": queue.stats.matches,
        "live": len(queue),
        "items": tuple(i.seq for i in queue.iter_items()),
        "rng": repr(hier.l3._rng.bit_generator.state) if hier.l3._rng is not None else None,
    }
    if heater is not None:
        sig["heater"] = (heater.passes, repr(heater.busy_cycles), heater.lines_touched)
    return sig


@pytest.mark.parametrize("heated", (False, True), ids=["cold", "heated"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scan_modes_bit_identical(heated, family):
    slot_stack = build_stack(family, False, heated)
    run_stack = build_stack(family, True, heated)
    drive(slot_stack[3])
    drive(run_stack[3])
    assert run_stack[2].scan_batch and not slot_stack[2].scan_batch
    assert signature(*slot_stack) == signature(*run_stack)
    # The batched stack genuinely batched (every family coalesces runs on
    # these layouts) and the fast path actually fired.
    assert run_stack[2].runs > 0
    assert run_stack[2].fast_runs > 0
    assert slot_stack[2].runs == 0


def test_scan_modes_bit_identical_random_policy():
    """RANDOM eviction consumes RNG on every miss fill: identical draws in
    identical order under both spellings, or recency/rng signatures split."""
    slot_stack = build_stack(
        "lla-8", False, False, policy=EvictionPolicy.RANDOM
    )
    run_stack = build_stack(
        "lla-8", True, False, policy=EvictionPolicy.RANDOM
    )
    drive(slot_stack[3], posts=400, ops=300)
    drive(run_stack[3], posts=400, ops=300)
    sig_slot = signature(*slot_stack)
    sig_run = signature(*run_stack)
    assert sig_slot["rng"] is not None
    assert sig_slot == sig_run


def test_scan_modes_bit_identical_saturated_heater():
    """A saturated heater charges interference per probe and can force the
    per-probe replay mid-run; both spellings must still agree exactly."""
    slot_stack = build_stack("lla-8", False, False)
    run_stack = build_stack("lla-8", True, False)
    for _, _, engine, queue, _ in (slot_stack, run_stack):
        heater = Heater(
            queue.port.hierarchy,
            2.0,
            # Tiny period: passes outrun it and the heater saturates.
            HeaterConfig(period_ns=1.0, interference_cycles=3.0),
            region_provider=queue.regions,
        )
        engine.attach_heater(heater)
        drive(queue, posts=120, ops=150)
    a = signature(slot_stack[0], slot_stack[1], slot_stack[2], slot_stack[3], None)
    b = signature(run_stack[0], run_stack[1], run_stack[2], run_stack[3], None)
    assert a == b


# -- mode resolution ---------------------------------------------------------


def test_resolve_default_is_on(monkeypatch):
    monkeypatch.delenv(SCAN_BATCH_ENV, raising=False)
    assert resolve_scan_batch() is True


def test_env_selects_off(monkeypatch):
    monkeypatch.setenv(SCAN_BATCH_ENV, "off")
    assert resolve_scan_batch() is False
    hier = MemoryHierarchy(**GEOMETRY)
    assert MatchEngine(hier).scan_batch is False


def test_argument_beats_environment(monkeypatch):
    monkeypatch.setenv(SCAN_BATCH_ENV, "off")
    assert resolve_scan_batch("on") is True
    assert resolve_scan_batch(True) is True
    hier = MemoryHierarchy(**GEOMETRY)
    assert MatchEngine(hier, scan_batch="on").scan_batch is True


def test_unknown_mode_rejected():
    with pytest.raises(ConfigurationError):
        resolve_scan_batch("sideways")


def test_software_prefetch_disables_batching(monkeypatch):
    """Batched scans reorder middleware hints ahead of the coalesced loads,
    so a live prefetcher forces the per-slot spelling regardless of mode."""
    monkeypatch.delenv(SCAN_BATCH_ENV, raising=False)
    hier = MemoryHierarchy(**GEOMETRY)
    engine = MatchEngine(hier, software_prefetch=True, scan_batch=True)
    assert engine.scan_batch is False


# -- port-level semantics ----------------------------------------------------


class _RecordingPort(MemoryPort):
    """Inherits the default load_run loop; records the loads it decays to."""

    scan_batch = True

    def __init__(self):
        self.calls = []

    def load(self, addr, nbytes):
        self.calls.append((addr, nbytes))

    def store(self, addr, nbytes):  # pragma: no cover - unused
        self.calls.append(("store", addr, nbytes))


def test_default_load_run_is_the_per_slot_loop():
    port = _RecordingPort()
    port.load_run(1000, 120, 3)
    assert port.calls == [(1000, 40), (1040, 40), (1080, 40)]


def test_default_load_run_with_spacing():
    port = _RecordingPort()
    port.load_run(1000, 120, 3, 56)
    assert port.calls == [(1000, 40), (1056, 40), (1112, 40)]


def test_load_run_rejects_uneven_split():
    port = _RecordingPort()
    with pytest.raises(ConfigurationError):
        port.load_run(1000, 100, 3)


def test_load_run_rejects_overlapping_spacing():
    port = _RecordingPort()
    with pytest.raises(ConfigurationError):
        port.load_run(1000, 120, 3, 39)


def test_load_run_zero_probes_is_noop():
    port = _RecordingPort()
    port.load_run(1000, 0, 0)
    assert port.calls == []


def test_nullport_run_counters_match_slot_loads():
    slot, run = NullPort(scan_batch=False), NullPort(scan_batch=True)
    for _ in range(4):
        slot.load(0x1000, 40)
    slot.load(0x2000, 64)
    run.load_run(0x1000, 160, 4)
    run.load(0x2000, 64)
    assert (run.loads, run.bytes_loaded) == (slot.loads, slot.bytes_loaded)
    assert (run.runs, run.run_probes) == (1, 4)
    assert (slot.runs, slot.run_probes) == (0, 0)
    run.reset()
    assert (run.runs, run.run_probes, run.loads) == (0, 0, 0)


def test_nullport_rejects_uneven_run():
    with pytest.raises(ConfigurationError):
        NullPort().load_run(0, 100, 3)


def test_emit_node_runs_coalesces_constant_stride():
    port = NullPort()
    # Two stride-56 stretches split by a gap, plus an isolated node.
    addrs = [0, 56, 112, 500, 556, 10_000]
    emit_node_runs(port, addrs, 40)
    assert port.loads == 6
    assert port.bytes_loaded == 6 * 40
    assert port.runs == 2
    assert port.run_probes == 5


def test_emit_node_runs_rejects_nothing_on_overlap():
    """Stride below the node size (recycled holes) stays per-slot loads."""
    port = NullPort()
    emit_node_runs(port, [0, 24, 48], 40)
    assert (port.loads, port.runs) == (3, 0)


def test_engine_run_counters(monkeypatch):
    monkeypatch.delenv(SCAN_BATCH_ENV, raising=False)
    hier = MemoryHierarchy(**GEOMETRY)
    engine = MatchEngine(hier)
    engine.load_run(0x1000, 160, 4)
    assert engine.loads == 4
    assert engine.runs == 1
    assert engine.run_probes == 4
    engine.reset_counters()
    assert (engine.runs, engine.run_probes, engine.fast_runs) == (0, 0, 0)


def test_scan_bracket_flushes_unmerged_header():
    """A pending header that is not contiguous with the run (or is followed
    by a store) must flush through the ordinary load path, in order."""
    hier_a = MemoryHierarchy(**GEOMETRY)
    hier_b = MemoryHierarchy(**GEOMETRY)
    a = MatchEngine(hier_a, scan_batch=True)
    b = MatchEngine(hier_b, scan_batch=False)
    # Non-contiguous header + run.
    a.begin_scan()
    a.load(0x8000, 8)
    a.load_run(0x9000, 120, 3)
    a.end_scan()
    b.load(0x8000, 8)
    for i in range(3):
        b.load(0x9000 + 40 * i, 40)
    # Header then store: the store must see the header already charged.
    a.begin_scan()
    a.load(0xA000, 8)
    a.store(0xA008, 24)
    a.end_scan()
    b.load(0xA000, 8)
    b.store(0xA008, 24)
    # Bracket closed with a pending header and no run at all.
    a.begin_scan()
    a.load(0xB000, 8)
    a.end_scan()
    b.load(0xB000, 8)
    assert repr(a.clock.now) == repr(b.clock.now)
    assert a.loads == b.loads and a.stores == b.stores
    assert repr(a.load_cycles) == repr(b.load_cycles)


# -- LLA hole accounting (both spellings) ------------------------------------


def _exact(item):
    return MatchItem(
        seq=item.seq, src=item.src, tag=item.tag, cid=item.cid,
        src_mask=0xFFFFFFFF, tag_mask=0xFFFFFFFF,
    )


@pytest.mark.parametrize("scan_batch", (False, True), ids=["slots", "runs"])
def test_lla_interior_hole_accounting(scan_batch):
    """Removing from the middle leaves a hole that later searches walk over
    (hole_probes) and hole_count reports, until window tightening or node
    drain reclaims it."""
    q = LinkedListOfArrays(8, port=NullPort(scan_batch=scan_batch))
    items = [MatchItem(seq=i, src=i, tag=0, cid=0) for i in range(8)]
    for item in items:
        q.post(item)
    assert q.hole_count() == 0
    # Interior removal: slots 3 stays inside the [0, 8) used window.
    assert q.match_remove(_exact(items[3])) is items[3]
    assert q.hole_count() == 1
    assert q.hole_probes == 0
    # A failed full scan walks over the hole exactly once.
    probe = MatchItem(seq=10**9, src=77, tag=0, cid=0)
    assert q.match_remove(probe) is None
    assert q.hole_probes == 1
    assert q.stats.last_probes == 7  # live slots only
    # A search that stops before the hole does not count it.
    assert q.match_remove(_exact(items[1])) is items[1]
    assert q.hole_probes == 1


@pytest.mark.parametrize("scan_batch", (False, True), ids=["slots", "runs"])
def test_lla_boundary_holes_tighten_window(scan_batch):
    """Holes at the window edges are reclaimed by start/end tightening, so
    they are neither counted nor walked."""
    q = LinkedListOfArrays(8, port=NullPort(scan_batch=scan_batch))
    items = [MatchItem(seq=i, src=i, tag=0, cid=0) for i in range(4)]
    for item in items:
        q.post(item)
    # Head removal tightens start past the hole immediately.
    assert q.match_remove(_exact(items[0])) is items[0]
    assert q.hole_count() == 0
    # Tail removal tightens end.
    assert q.match_remove(_exact(items[3])) is items[3]
    assert q.hole_count() == 0
    probe = MatchItem(seq=10**9, src=77, tag=0, cid=0)
    assert q.match_remove(probe) is None
    assert q.hole_probes == 0
    assert q.stats.last_probes == 2


@pytest.mark.parametrize("scan_batch", (False, True), ids=["slots", "runs"])
def test_lla_interior_then_boundary_reclaim(scan_batch):
    """An interior hole becomes a boundary hole once its neighbour leaves;
    tightening then reclaims both at once."""
    q = LinkedListOfArrays(8, port=NullPort(scan_batch=scan_batch))
    items = [MatchItem(seq=i, src=i, tag=0, cid=0) for i in range(3)]
    for item in items:
        q.post(item)
    assert q.match_remove(_exact(items[1])) is items[1]  # interior
    assert q.hole_count() == 1
    assert q.match_remove(_exact(items[0])) is items[0]  # head: both reclaimed
    assert q.hole_count() == 0
    assert len(q) == 1


def test_lla_hole_bookkeeping_identical_across_modes():
    """hole_probes/hole_count trajectories agree between the spellings on a
    churned workload."""
    qa = LinkedListOfArrays(4, port=NullPort(scan_batch=False))
    qb = LinkedListOfArrays(4, port=NullPort(scan_batch=True))
    for q in (qa, qb):
        rng = np.random.default_rng(7)
        seq = 0
        for _ in range(60):
            q.post(_mk_item(rng, seq))
            seq += 1
        for _ in range(120):
            q.match_remove(_mk_item(rng, 10**9, wild=True))
            if rng.random() < 0.4:
                q.post(_mk_item(rng, seq))
                seq += 1
    assert qa.hole_probes == qb.hole_probes
    assert qa.hole_count() == qb.hole_count()
    assert qa.port.loads == qb.port.loads
    assert qa.port.bytes_loaded == qb.port.bytes_loaded
    assert qb.port.runs > 0


# -- figure panels -----------------------------------------------------------


def _panel_reprs(monkeypatch, mode):
    monkeypatch.setenv(SCAN_BATCH_ENV, mode)
    fig4 = Runner(jobs=1).run_sweep(
        plan_spatial_search_length(
            SANDY_BRIDGE, msg_bytes=1, depths=(1, 16, 64), iterations=2, seed=0
        )
    )
    fig6 = Runner(jobs=1).run_sweep(
        plan_temporal_msg_size(
            SANDY_BRIDGE, depth=64, msg_sizes=(8, 1024), iterations=2, seed=0
        )
    )
    return repr(fig4), repr(fig6)


def test_fig_panels_repr_identical_across_scan_modes(monkeypatch):
    on4, on6 = _panel_reprs(monkeypatch, "on")
    off4, off6 = _panel_reprs(monkeypatch, "off")
    assert on4 == off4
    assert on6 == off6
