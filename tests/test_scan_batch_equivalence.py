"""Golden digests for the queue scans, and the oracle behind ``load_run``.

Every queue family has one search walk: it decides the match host-side and
charges the nodes it inspected through
:meth:`~repro.matching.port.MemoryPort.load_run` runs. Each drive below
runs a seeded post/match workload through one family on a
:class:`~repro.matching.engine.MatchEngine` and hashes everything it leaves
observable into one digest (:func:`signature`): the clock and cycle totals
to the last float bit, the load/store/prefetch counters, ``LevelStats``,
``hier.stats()``, the recency order of every set of every cache, the RANDOM
policy's RNG state and the heater's progress.

The digests in :data:`GOLDEN` were captured while each family still had a
second, per-slot walk (one ``load`` per inspected slot):

* ``<family>-<regime>`` and ``lla-8-random`` drives returned the same
  signature under both walks;
* ``swpf-*`` drives run the paper's section 6 middleware software prefetch,
  which used to force the per-slot walk; their digests come from that walk,
  so the one walk must issue hints and loads in exactly its order;
* ``panel-*`` digests pin reduced fig4/fig6 panel reprs.

Any change to a digest is a change to the simulated run. Equivalence of
``MatchEngine.load_run`` with the per-probe default loop it replaces is
checked separately, by a Hypothesis differential test on twin engines.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import BROADWELL, SANDY_BRIDGE
from repro.bench.figures import plan_spatial_search_length, plan_temporal_msg_size
from repro.errors import ConfigurationError
from repro.exp import Runner
from repro.hotcache.heater import Heater, HeaterConfig
from repro.matching import Envelope, make_pattern, make_queue
from repro.matching.ch4 import Ch4PerCommunicatorQueue
from repro.matching.engine import MatchEngine
from repro.matching.entry import MatchItem
from repro.matching.fourd import FourDimensionalQueue
from repro.matching.hashmap import BinnedHashQueue
from repro.matching.linkedlist import BaselineLinkedList
from repro.matching.lla import LinkedListOfArrays
from repro.matching.openmpi import OpenMpiHierarchicalQueue
from repro.matching.port import MemoryPort, NullPort, emit_node_runs, resolve_scan_batch
from repro.mem.alloc import Allocation
from repro.mem.cache import EvictionPolicy
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

#: Heater configuration per regime: none, a heater that mostly sleeps
#: between passes, and one whose tiny period makes it saturate, charging
#: interference per probe and forcing per-probe replays mid-run.
REGIMES = {
    "cold": None,
    "heated": HeaterConfig(period_ns=500.0),
    "saturated": HeaterConfig(period_ns=1.0, interference_cycles=3.0),
}

#: (posts, match operations) per drive; "deep" runs without a heater.
DRIVE = {"cold": (250, 350), "heated": (250, 350), "saturated": (120, 150), "deep": (1000, 60)}

#: Depth of the cold single-search drives (the section 6 ablation's).
COLD_DEPTH = 1024

#: Digest of :func:`signature` per drive (see the module doc).
GOLDEN = {
    "baseline-cold": "2df0bfc76e7dca3a",
    "baseline-heated": "ba2c8151df075059",
    "baseline-saturated": "9a3566dafa196d00",
    "ch4-cold": "be04baf9dd97598b",
    "ch4-heated": "8b24acf0d73bc4d9",
    "ch4-saturated": "053283d779a4693b",
    "fourd-cold": "e0f7e9bf1ad927cf",
    "fourd-heated": "84fa788b28cd4185",
    "fourd-saturated": "2d9f2f0ab003e235",
    "hashmap-cold": "c7be444ddbd0a3ac",
    "hashmap-heated": "beee2432a3130248",
    "hashmap-saturated": "7e6212200a0002f4",
    "lla-2-cold": "a926fc7cf1e70b82",
    "lla-2-heated": "6fb1879ffb338def",
    "lla-2-saturated": "361fb52c14cc0af9",
    "lla-8-cold": "ee103f0ed901a17a",
    "lla-8-heated": "4183517854aaf8e7",
    "lla-8-saturated": "c937ba89724441fa",
    "openmpi-cold": "f014e33a5e47496f",
    "openmpi-heated": "9ba1e31754923d93",
    "openmpi-saturated": "2ff65b3f65519a6e",
    "lla-8-random": "0f6da856fbe43787",
    "swpf-baseline-cold": "66d06cbc62a5e347",
    "swpf-baseline-heated": "d52eeb4fd3e6a7cb",
    "swpf-baseline-deep": "4c71fa0c55b4c6cc",
    "swpf-ch4-cold": "be04baf9dd97598b",
    "swpf-ch4-heated": "8b24acf0d73bc4d9",
    "swpf-ch4-deep": "6f9542b18098633e",
    "swpf-fourd-cold": "e0f7e9bf1ad927cf",
    "swpf-fourd-heated": "84fa788b28cd4185",
    "swpf-fourd-deep": "0288d3d49cc0a64d",
    "swpf-hashmap-cold": "c7be444ddbd0a3ac",
    "swpf-hashmap-heated": "beee2432a3130248",
    "swpf-hashmap-deep": "aa122c5ac57e4c7b",
    "swpf-lla-2-cold": "a926fc7cf1e70b82",
    "swpf-lla-2-heated": "6fb1879ffb338def",
    "swpf-lla-2-deep": "f63863e554dcbd44",
    "swpf-lla-8-cold": "ee103f0ed901a17a",
    "swpf-lla-8-heated": "4183517854aaf8e7",
    "swpf-lla-8-deep": "4c2224c2fc7c54cd",
    "swpf-openmpi-cold": "f014e33a5e47496f",
    "swpf-openmpi-heated": "9ba1e31754923d93",
    "swpf-openmpi-deep": "1012f034537f2999",
    "swpf-cold1024-sandy-bridge-baseline": "7a8f5938af687f48",
    "swpf-cold1024-sandy-bridge-baseline-frag": "771eb4bf8847cb37",
    "swpf-cold1024-broadwell-baseline": "d336e5c16c386eb3",
    "swpf-cold1024-broadwell-baseline-frag": "59f22dd7cdd57087",
    "swpf-cold1024-sandy-bridge-ch4": "39e5b89a3c4d645e",
    "swpf-cold1024-sandy-bridge-ch4-frag": "7478a7cddb2a279b",
    "swpf-cold1024-broadwell-ch4": "03305c517f085edd",
    "swpf-cold1024-broadwell-ch4-frag": "6b9aeaacd7673e2e",
    "swpf-cold1024-sandy-bridge-fourd": "844d27e362820d7d",
    "swpf-cold1024-sandy-bridge-fourd-frag": "7a8a9485c1163e8d",
    "swpf-cold1024-broadwell-fourd": "ccf498bdf557c49b",
    "swpf-cold1024-broadwell-fourd-frag": "c099b931d6da27a7",
    "swpf-cold1024-sandy-bridge-hashmap": "8dc38f714505d26f",
    "swpf-cold1024-sandy-bridge-hashmap-frag": "e861180dae25d8fe",
    "swpf-cold1024-broadwell-hashmap": "911c16ddf38e635c",
    "swpf-cold1024-broadwell-hashmap-frag": "f1a7ecc5adb5d530",
    "swpf-cold1024-sandy-bridge-lla-2": "9e81033cfc72817b",
    "swpf-cold1024-sandy-bridge-lla-2-frag": "9e81033cfc72817b",
    "swpf-cold1024-broadwell-lla-2": "8e815e5ae8e0bdd5",
    "swpf-cold1024-broadwell-lla-2-frag": "8e815e5ae8e0bdd5",
    "swpf-cold1024-sandy-bridge-lla-8": "89f82f792f0bc18f",
    "swpf-cold1024-sandy-bridge-lla-8-frag": "89f82f792f0bc18f",
    "swpf-cold1024-broadwell-lla-8": "78ef8981e5952f1a",
    "swpf-cold1024-broadwell-lla-8-frag": "78ef8981e5952f1a",
    "swpf-cold1024-sandy-bridge-openmpi": "322f68335f7180a4",
    "swpf-cold1024-sandy-bridge-openmpi-frag": "5c9e4e223a2ac46d",
    "swpf-cold1024-broadwell-openmpi": "8e481ae95876c4c3",
    "swpf-cold1024-broadwell-openmpi-frag": "52ee49d68e03e69c",
    "panel-fig4": "140d3a3cde321c41",
    "panel-fig6": "8e9f9b4837ceee83",
}


def build_stack(family, regime="cold", *, policy=EvictionPolicy.LRU, software_prefetch=False):
    hier = MemoryHierarchy(
        policy=policy,
        rng=np.random.default_rng(1234),
        **GEOMETRY,
    )
    clock = Clock()
    engine = MatchEngine(hier, clock=clock, software_prefetch=software_prefetch)
    queue = FAMILIES[family](engine)
    heater = None
    config = REGIMES.get(regime)
    if config is not None:
        heater = Heater(hier, 2.0, config, region_provider=queue.regions)
        engine.attach_heater(heater)
    return hier, clock, engine, queue, heater


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


def recency(hier):
    """The recency order of every set of every cache."""
    out = []
    for cache in [hier.l3] + [c for core in hier.cores for c in (core.l1, core.l2)]:
        for idx in range(cache.nsets):
            out.append(tuple(cache.recency(idx)))
    return tuple(out)


def heater_progress(heater):
    return (heater.passes, repr(heater.busy_cycles), heater.lines_touched)


def signature(hier, clock, engine, queue, heater):
    """Every observable a queue scan can change, repr-encoded."""
    ls = engine.level_stats
    sig = {
        "clock": repr(clock.now),
        "loads": engine.loads,
        "stores": engine.stores,
        "sw_prefetches": engine.sw_prefetches,
        "load_cycles": repr(engine.load_cycles),
        "store_cycles": repr(engine.store_cycles_total),
        "level_stats": repr(ls.snapshot()),
        "hier_stats": repr(hier.stats()),
        "recency": recency(hier),
        "searches": queue.stats.searches,
        "probes": queue.stats.probes,
        "matches": queue.stats.matches,
        "live": len(queue),
        "items": tuple(i.seq for i in queue.iter_items()),
        "rng": repr(hier.l3._rng.bit_generator.state) if hier.l3._rng is not None else None,
    }
    if heater is not None:
        sig["heater"] = heater_progress(heater)
    return sig


def digest(sig) -> str:
    return hashlib.sha256(repr(sorted(sig.items())).encode()).hexdigest()[:16]


def drive_digest(family, regime, *, software_prefetch=False):
    """Drive one family and return ``(digest, engine)``; the engine's run
    counters show whether the walk coalesced runs and took the fast path."""
    stack = build_stack(family, regime, software_prefetch=software_prefetch)
    posts, ops = DRIVE[regime]
    drive(stack[3], posts=posts, ops=ops)
    return digest(signature(*stack)), stack[2]


def cold_search_digest(arch, family, fragmented):
    """One depth-1024 search from flushed caches, software prefetch on."""
    hier = arch.build_hierarchy(rng=np.random.default_rng(2))
    engine = MatchEngine(hier, software_prefetch=True)
    queue = make_queue(family, port=engine, rng=np.random.default_rng(1), fragmented=fragmented)
    for i in range(COLD_DEPTH):
        queue.post(make_pattern(0, 10_000 + i, 0, seq=i))
    queue.post(make_pattern(1, 7, 0, seq=COLD_DEPTH + 5))
    hier.flush()
    probe = MatchItem.from_envelope(Envelope(1, 7, 0), seq=999_999)
    _, cycles = engine.timed(lambda: queue.match_remove(probe))
    sig = signature(hier, engine.clock, engine, queue, None)
    sig["cycles"] = repr(cycles)
    return digest(sig)


def panel_reprs():
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


# -- golden digests ------------------------------------------------------------


@pytest.mark.parametrize("heated", ("cold", "heated"))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scan_modes_bit_identical(heated, family):
    digest_, engine = drive_digest(family, heated)
    assert digest_ == GOLDEN[f"{family}-{heated}"]
    # The walk genuinely coalesced runs (every family does on these layouts)
    # and the engine's fast path fired: per-node loads alone would reproduce
    # the same digest, so the counters are what show the one walk is run-based.
    assert engine.runs > 0
    assert engine.fast_runs > 0


def test_scan_modes_bit_identical_saturated_heater():
    """A saturated heater charges interference per probe and can force the
    per-probe replay mid-run, in every family."""
    for family in sorted(FAMILIES):
        digest_, engine = drive_digest(family, "saturated")
        assert digest_ == GOLDEN[f"{family}-saturated"], family
        assert engine.runs > 0 and engine.fast_runs > 0, family


def test_scan_modes_bit_identical_random_policy():
    """RANDOM eviction consumes RNG on every miss fill: one extra or missing
    draw changes every later victim and the pinned RNG state."""
    stack = build_stack("lla-8", policy=EvictionPolicy.RANDOM)
    drive(stack[3], posts=400, ops=300)
    sig = signature(*stack)
    assert sig["rng"] is not None
    assert digest(sig) == GOLDEN["lla-8-random"]


@pytest.mark.parametrize("regime", ("cold", "heated", "deep"))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_software_prefetch_walk_pinned(family, regime):
    digest_, engine = drive_digest(family, regime, software_prefetch=True)
    assert digest_ == GOLDEN[f"swpf-{family}-{regime}"]
    if family == "baseline":
        # Hints act: one load per node, each right after its node's hint.
        assert engine.runs == 0
    else:
        assert engine.runs > 0 and engine.fast_runs > 0


@pytest.mark.parametrize("fragmented", (False, True), ids=["sequential", "fragmented"])
@pytest.mark.parametrize("arch", (SANDY_BRIDGE, BROADWELL), ids=lambda a: a.name)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_software_prefetch_cold_search_pinned(family, arch, fragmented):
    key = f"swpf-cold{COLD_DEPTH}-{arch.name}-{family}" + ("-frag" if fragmented else "")
    assert cold_search_digest(arch, family, fragmented) == GOLDEN[key]


def test_fig_panels_repr_identical_across_scan_modes():
    fig4, fig6 = panel_reprs()
    assert hashlib.sha256(fig4.encode()).hexdigest()[:16] == GOLDEN["panel-fig4"]
    assert hashlib.sha256(fig6.encode()).hexdigest()[:16] == GOLDEN["panel-fig6"]


# -- the load_run oracle ---------------------------------------------------------


class PerProbeEngine(MatchEngine):
    """A MatchEngine that charges every run probe by probe, through the
    :class:`MemoryPort` default loop: the oracle for ``load_run``."""

    load_run = MemoryPort.load_run


#: Addresses the drawn runs fall in: 8 KiB, twice the oracle geometry's L1.
ARENA = Allocation(0x10_0000, 8192)

RUNS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ARENA.size - 2048),  # offset
        st.integers(min_value=1, max_value=96),  # probe size
        st.integers(min_value=1, max_value=8),  # probes
        st.integers(min_value=0, max_value=64),  # spacing - size
        st.sampled_from([0, 0, 8, 3, 24]),  # header bytes
        st.booleans(),  # repeat the run at once (warm lines)
    ),
    min_size=1,
    max_size=6,
)


#: Heater beside the twins: none, one that passes once and then sleeps far
#: past the drawn runs, and a saturated one.
ORACLE_HEATERS = {
    "none": None,
    "quiescent": HeaterConfig(period_ns=1e6),
    "saturated": REGIMES["saturated"],
}


def _twins(warm, heater_kind, compare_cycles, start=0.0):
    stacks = []
    for cls in (MatchEngine, PerProbeEngine):
        hier = MemoryHierarchy(rng=np.random.default_rng(7), **GEOMETRY)
        engine = cls(hier, compare_cycles=compare_cycles)
        engine.charge(start)
        if warm:
            # Through the plain load path on both twins: identical state.
            for addr in range(ARENA.addr, ARENA.addr + 4096, 64):
                engine.load(addr, 8)
        heater = None
        config = ORACLE_HEATERS[heater_kind]
        if config is not None:
            heater = Heater(hier, 2.0, config, region_provider=lambda: [ARENA])
            engine.attach_heater(heater)
        stacks.append((hier, engine, heater))
    return stacks


def _oracle_signature(hier, engine, heater):
    ls = engine.level_stats
    return (
        repr(engine.clock.now),
        repr(engine.load_cycles),
        engine.loads,
        repr(ls.snapshot()),
        repr(hier.stats()),
        recency(hier),
        heater_progress(heater) if heater is not None else None,
    )


@given(
    runs=RUNS,
    warm=st.booleans(),
    heater_kind=st.sampled_from(["none", "quiescent", "saturated"]),
    compare_cycles=st.sampled_from([2.0, 1.0, 0.0, 0.5, 2.25, 0.1, 1.0 / 3.0]),
    # A non-integral clock also sends integral compare costs down the
    # per-probe float replay, where the rounding order shows.
    start=st.sampled_from([0.0, 1e3 / 3.0]),
)
@settings(max_examples=150, deadline=None)
def test_load_run_matches_per_probe_oracle(runs, warm, heater_kind, compare_cycles, start):
    fast, oracle = _twins(warm, heater_kind, compare_cycles, start)
    for offset, size, probes, extra, header, repeat in runs:
        addr = ARENA.addr + 64 + offset
        spacing = size + extra
        for _ in range(2 if repeat else 1):
            for _, engine, _ in (fast, oracle):
                engine.load_run(addr, size * probes, probes, spacing, header)
        assert _oracle_signature(*fast) == _oracle_signature(*oracle)
    assert oracle[1].runs == 0


def test_load_run_oracle_reaches_both_charge_branches():
    """The fast path's one-shot fold (integral compare cost) and its
    per-probe float replay (fractional compare cost) both run and agree."""
    for cc in (2.0, 0.5):
        fast, oracle = _twins(True, "none", cc)
        for _, engine, _ in (fast, oracle):
            engine.load_run(ARENA.addr + 64, 120, 3, 56, 8)
        assert fast[1].fast_runs == 1
        assert _oracle_signature(*fast) == _oracle_signature(*oracle)


# -- the one scan spelling -------------------------------------------------------


def test_resolve_default_is_on():
    assert resolve_scan_batch() is True
    assert resolve_scan_batch(None) is True


def test_unknown_mode_rejected():
    for value in ("sideways", "on", "off", True, False):
        with pytest.raises(ConfigurationError):
            resolve_scan_batch(value)


# -- port-level semantics ----------------------------------------------------


class _RecordingPort(MemoryPort):
    """Inherits the default load_run loop; records the loads it decays to."""

    def __init__(self):
        self.calls = []

    def load(self, addr, nbytes):
        self.calls.append((addr, nbytes))

    def store(self, addr, nbytes):  # pragma: no cover - unused
        self.calls.append(("store", addr, nbytes))


class _RunRecordingPort(_RecordingPort):
    """Records runs as runs, to see how a walk was coalesced."""

    def load_run(self, addr, nbytes, probes, spacing=None, header_nbytes=0):
        self.calls.append(("run", addr, nbytes, probes, spacing, header_nbytes))


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


@pytest.mark.parametrize(
    "args", [(0x1000, 64, 4, 8), (0x1000, 0, 4)], ids=["overlapping", "zero-bytes"]
)
def test_every_port_rejects_the_same_runs(args):
    """NullPort, the engine and the default loop reject the same runs, and
    none of them charges anything for the rejected run."""
    null = NullPort()
    engine = MatchEngine(MemoryHierarchy(**GEOMETRY))
    default = _RecordingPort()
    for port in (null, engine, default):
        with pytest.raises(ConfigurationError):
            port.load_run(*args)
    assert (null.loads, null.bytes_loaded) == (0, 0)
    assert engine.loads == 0 and engine.clock.now == 0.0
    assert default.calls == []


def test_nullport_run_counters_match_slot_loads():
    slot, run = NullPort(), NullPort()
    for _ in range(4):
        slot.load(0x1000, 40)
    slot.load(0x2000, 64)
    run.load_run(0x1000, 160, 4)
    run.load(0x2000, 64)
    assert (run.loads, run.bytes_loaded) == (slot.loads, slot.bytes_loaded)
    slot.load(0x0FF8, 8)
    for i in range(2):
        slot.load(0x1000 + 56 * i, 40)
    run.load_run(0x1000, 80, 2, 56, 8)
    assert (run.loads, run.bytes_loaded) == (slot.loads, slot.bytes_loaded)
    run.reset()
    assert (run.loads, run.bytes_loaded) == (0, 0)


def test_nullport_rejects_uneven_run():
    with pytest.raises(ConfigurationError):
        NullPort().load_run(0, 100, 3)


def test_emit_node_runs_coalesces_constant_stride():
    port = _RunRecordingPort()
    # Two stride-56 stretches split by a gap, plus an isolated node.
    addrs = [0, 56, 112, 500, 556, 10_000]
    emit_node_runs(port, addrs, 40)
    assert port.calls == [
        ("run", 0, 120, 3, 56, 0),
        ("run", 500, 80, 2, 56, 0),
        (10_000, 40),
    ]


def test_emit_node_runs_rejects_nothing_on_overlap():
    """Stride below the node size (recycled holes) stays per-slot loads."""
    port = _RunRecordingPort()
    emit_node_runs(port, [0, 24, 48], 40)
    assert port.calls == [(0, 40), (24, 40), (48, 40)]


def test_engine_run_counters():
    hier = MemoryHierarchy(**GEOMETRY)
    engine = MatchEngine(hier)
    engine.load_run(0x1000, 160, 4)
    assert engine.loads == 4
    assert engine.runs == 1
    assert engine.run_probes == 4
    engine.reset_counters()
    assert (engine.runs, engine.run_probes, engine.fast_runs) == (0, 0, 0)


class _HintRecordingPort(_RunRecordingPort):
    hint_is_noop = False

    def hint(self, addr, nbytes):
        self.calls.append(("hint", addr, nbytes))


def test_baseline_walk_interleaves_hints_when_they_act():
    """Each hint goes out just before the load of the node it runs ahead of."""
    port = _HintRecordingPort()
    queue = BaselineLinkedList(port=port)
    for i in range(8):
        queue.post(MatchItem(seq=i, src=i, tag=0, cid=0))
    addrs = [node.alloc.addr for node in queue._nodes]
    port.calls.clear()
    queue.match_remove(MatchItem(seq=10**9, src=5, tag=0, cid=0))
    nb = queue.node_bytes
    ahead = queue.SW_PREFETCH_LOOKAHEAD
    expect = []
    for idx in range(6):
        if idx + ahead < 8:
            expect.append(("hint", addrs[idx + ahead], nb))
        expect.append((addrs[idx], nb))
    assert [c for c in port.calls if c[0] != "store"] == expect


# -- LLA hole accounting -------------------------------------------------------


def _exact(item):
    return MatchItem(
        seq=item.seq, src=item.src, tag=item.tag, cid=item.cid,
        src_mask=0xFFFFFFFF, tag_mask=0xFFFFFFFF,
    )


class PerProbeNullPort(NullPort):
    """A NullPort that counts every run probe by probe, through the
    :class:`MemoryPort` default loop."""

    __slots__ = ()
    load_run = MemoryPort.load_run


#: The ports the LLA hole tests run on: run counts charged per probe
#: (``slots``) or in one step (``runs``). Hole bookkeeping is the queue's and
#: must not depend on how the port charges the runs.
LLA_PORTS = pytest.mark.parametrize(
    "port_cls", (PerProbeNullPort, NullPort), ids=["slots", "runs"]
)


@LLA_PORTS
def test_lla_interior_hole_accounting(port_cls):
    """Removing from the middle leaves a hole that later searches walk over
    (hole_probes) and hole_count reports, until window tightening or node
    drain reclaims it."""
    q = LinkedListOfArrays(8, port=port_cls())
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


@LLA_PORTS
def test_lla_boundary_holes_tighten_window(port_cls):
    """Holes at the window edges are reclaimed by start/end tightening, so
    they are neither counted nor walked."""
    q = LinkedListOfArrays(8, port=port_cls())
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


@LLA_PORTS
def test_lla_interior_then_boundary_reclaim(port_cls):
    """An interior hole becomes a boundary hole once its neighbour leaves;
    tightening then reclaims both at once."""
    q = LinkedListOfArrays(8, port=port_cls())
    items = [MatchItem(seq=i, src=i, tag=0, cid=0) for i in range(3)]
    for item in items:
        q.post(item)
    assert q.match_remove(_exact(items[1])) is items[1]  # interior
    assert q.hole_count() == 1
    assert q.match_remove(_exact(items[0])) is items[0]  # head: both reclaimed
    assert q.hole_count() == 0
    assert len(q) == 1


#: (hole_probes, hole_count, loads, bytes_loaded) of the churned LLA(4)
#: drive below, identical under both walks when captured.
LLA_HOLE_TRAJECTORY = (273, 3, 3158, 62304)


def test_lla_hole_bookkeeping_identical_across_modes():
    """hole_probes/hole_count on a churned workload, pinned."""
    q = LinkedListOfArrays(4, port=NullPort())
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
    got = (q.hole_probes, q.hole_count(), q.port.loads, q.port.bytes_loaded)
    assert got == LLA_HOLE_TRAJECTORY
