"""Differential test: the heater pass loop against a per-line oracle.

``MemoryHierarchy.touch_shared_pass`` walks every line of every region of
one heater pass in a single bound loop, with the hit paths inlined and the
L3 counters batched. The oracle below is the plain per-line protocol the
loop must reproduce, written with the cache methods themselves: an
``l3.lookup`` that falls back to ``l3.fill`` on a miss, then ``l2.fill``
and ``l1.fill`` of the heater core. Hypothesis draws region layouts
(overlapping, adjacent, zero-size, multi-line, unaligned), the eviction
policy (RANDOM with a seeded rng), an optional way partition and network
cache, and a demand warm-up that leaves prefetched lines (with residual
penalties) in every level. Equivalence covers every observable: the
returned transaction, ``hier.stats()``, the recency order of every set at
every level, each resident line's metadata, the set bookkeeping and the
shared rng's state.

The heater-level test drives the same passes through a test-side copy of
the per-region pass the heater made before the loop existed, and checks
``pass_stats()`` and the lock-hold windows, for periodic passes and for
the collaborative heater's budgeted partial pass.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hotcache import CollaborativeHeater, Heater, HeaterConfig
from repro.mem.alloc import Allocation
from repro.mem.cache import CLS_DEFAULT, CLS_NETWORK, EvictionPolicy, WayPartition
from repro.mem.hierarchy import MemoryHierarchy, NetworkCacheConfig
from repro.mem.layout import LINE_SHIFT, line_span
from repro.mem.result import AccessResult

GHZ = 2.0


# -- the oracle ----------------------------------------------------------------


def oracle_touch(hier, core_id, regions, cls=CLS_NETWORK):
    """One heater pass, line by line, through the cache methods."""
    core = hier.cores[core_id]
    l3, l2, l1 = hier.l3, core.l2, core.l1
    res = AccessResult()
    for region in regions:
        if region.size <= 0:
            continue
        first = region.addr >> LINE_SHIFT
        last = (region.addr + region.size - 1) >> LINE_SHIFT
        for line in range(first, last + 1):
            if l3.lookup(line) is None:
                l3.fill(line, cls)
                res.dram_fills += 1
            else:
                res.l3_hits += 1
            l2.fill(line, cls)
            l1.fill(line, cls)
            res.lines += 1
    return res


class OracleHeater(Heater):
    """The per-region pass, each region one oracle touch."""

    def _run_pass(self, start):
        cfg = self.config
        if self.region_provider is not None:
            self.regions.replace_all(self.region_provider())
        duration = 0.0
        lines = refreshed = installed = 0
        for region in self.regions:
            duration += cfg.region_admin_cycles
            tx = oracle_touch(self.hierarchy, cfg.core_id, [region], self.mem_class)
            lines += tx.lines
            refreshed += tx.l3_hits
            installed += tx.dram_fills
        duration += lines * cfg.touch_cycles_per_line
        if cfg.locked:
            self.lock.hold(start, duration)
        self.passes += 1
        self.lines_touched += lines
        self.lines_refreshed += refreshed
        self.lines_installed += installed
        self.busy_cycles += duration
        self.last_pass_duration = duration
        self.last_pass_lines = lines
        self.last_pass_refreshed = refreshed
        self.next_pass_start = start + max(self.period_cycles, duration)


class OracleCollaborativeHeater(CollaborativeHeater, OracleHeater):
    """The budgeted partial pass, touching each region as it is picked;
    periodic passes are :class:`OracleHeater`'s."""

    def resume_before_phase(self, phase_start, lead_ns):
        self.paused = False
        lead_cycles = lead_ns * self.ghz
        cfg = self.config
        budget = lead_cycles
        warmed_lines = total_lines = refreshed = installed = 0
        duration = 0.0
        for region in self.regions:
            lines = line_span(region.addr, region.size)
            total_lines += lines
            cost = cfg.region_admin_cycles + lines * cfg.touch_cycles_per_line
            if budget >= cost:
                tx = oracle_touch(self.hierarchy, cfg.core_id, [region], self.mem_class)
                refreshed += tx.l3_hits
                installed += tx.dram_fills
                warmed_lines += lines
                budget -= cost
                duration += cost
        if cfg.locked and duration > 0:
            self.lock.hold(phase_start - lead_cycles, duration)
        self.partial_passes += 1
        self.lines_touched += warmed_lines
        self.lines_refreshed += refreshed
        self.lines_installed += installed
        self.busy_cycles += duration
        self.last_pass_duration = duration
        self.last_pass_lines = warmed_lines
        self.last_pass_refreshed = refreshed
        self.next_pass_start = max(self.next_pass_start, phase_start)
        return warmed_lines / total_lines if total_lines else 1.0


# -- strategies ------------------------------------------------------------------


@st.composite
def region_layouts(draw):
    """Regions chained by a signed gap: negative overlaps the previous
    region, zero abuts it, positive leaves a hole; sizes include zero,
    sub-line and multi-line spans at unaligned addresses."""
    regions = []
    addr = draw(st.integers(0, 64 * 64))
    for _ in range(draw(st.integers(0, 12))):
        size = draw(st.one_of(st.just(0), st.integers(1, 64), st.integers(65, 6 * 64)))
        regions.append(Allocation(addr, size))
        gap = draw(st.one_of(st.just(0), st.integers(-3 * 64, -1), st.integers(1, 8 * 64)))
        addr = max(0, addr + size + gap)
    return regions


@st.composite
def machines(draw):
    """Small caches so passes evict at every level."""
    policy = draw(st.sampled_from(EvictionPolicy.ALL))
    seed = draw(st.integers(0, 2**16))
    ways = draw(st.one_of(st.none(), st.integers(1, 3)))
    netc = draw(st.booleans())
    return dict(policy=policy, seed=seed, ways=ways, netc=netc)


warmups = st.lists(
    st.tuples(
        st.integers(0, 1),  # core: the heater's own core too
        st.integers(0, 96 * 64),  # addr
        st.integers(1, 6 * 64),  # nbytes
        st.sampled_from((CLS_DEFAULT, CLS_NETWORK)),
    ),
    max_size=24,
)


def build(machine):
    return MemoryHierarchy(
        n_cores=2,
        l1_size=1024, l1_assoc=2,
        l2_size=2048, l2_assoc=4,
        l3_size=4096, l3_assoc=4,
        policy=machine["policy"],
        partition=WayPartition(machine["ways"]) if machine["ways"] else None,
        network_cache=NetworkCacheConfig(size_bytes=256) if machine["netc"] else None,
        rng=np.random.default_rng(machine["seed"]),
    )


def warm(hier, warmup):
    for core, addr, nbytes, cls in warmup:
        hier.access_tx(core, addr, nbytes, cls)


def state(hier):
    """Every observable of the hierarchy."""
    caches = [hier.l3]
    for core in hier.cores:
        caches += [core.l1, core.l2]
        if core.netcache is not None:
            caches.append(core.netcache)
    sets = []
    for cache in caches:
        for i in range(cache.nsets):
            resident = cache._sets[i]
            sets.append([
                (line, resident[line].cls, resident[line].prefetched, resident[line].penalty)
                for line in cache.recency(i)
            ])
        sets.append(sorted(cache._dirty))
    rng = hier.l3._rng
    return hier.stats(), sets, (rng.bit_generator.state if rng is not None else None)


def tx_fields(tx):
    return {name: getattr(tx, name) for name in AccessResult.__slots__}


# -- the tests -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(machine=machines(), warmup=warmups, passes=st.lists(region_layouts(), min_size=1, max_size=3),
       cls=st.sampled_from((CLS_DEFAULT, CLS_NETWORK)))
def test_pass_loop_matches_per_line_oracle(machine, warmup, passes, cls):
    fast, ref = build(machine), build(machine)
    warm(fast, warmup)
    warm(ref, warmup)
    assert state(fast) == state(ref)
    out = AccessResult()
    out.cycles = 99.0  # a reused transaction: every field is overwritten
    for regions in passes:
        got = fast.touch_shared_pass(1, regions, cls, out)
        want = oracle_touch(ref, 1, regions, cls)
        assert got is out
        assert tx_fields(got) == tx_fields(want)
        assert state(fast) == state(ref)
        # Demand traffic between passes reads what the pass left behind.
        warm(fast, warmup[:4])
        warm(ref, warmup[:4])
        assert state(fast) == state(ref)


@settings(max_examples=150, deadline=None)
@given(machine=machines(), warmup=warmups, regions=region_layouts())
def test_one_region_tx_matches_oracle(machine, warmup, regions):
    fast, ref = build(machine), build(machine)
    warm(fast, warmup)
    warm(ref, warmup)
    for region in regions:
        got = fast.touch_shared_tx(1, region.addr, region.size)
        want = oracle_touch(ref, 1, [region])
        assert tx_fields(got) == tx_fields(want)
    assert state(fast) == state(ref)


@settings(max_examples=80, deadline=None)
@given(machine=machines(), warmup=warmups, regions=region_layouts(),
       locked=st.booleans(), steps=st.lists(st.integers(0, 4000), min_size=1, max_size=8))
def test_heater_passes_match_oracle_heater(machine, warmup, regions, locked, steps):
    config = HeaterConfig(period_ns=400.0, locked=locked, region_admin_cycles=12.5,
                          touch_cycles_per_line=2.25)
    fast_hier, ref_hier = build(machine), build(machine)
    fast = Heater(fast_hier, GHZ, config)
    ref = OracleHeater(ref_hier, GHZ, config)
    for region in regions:
        fast.regions.add(region)
        ref.regions.add(region)
    warm(fast_hier, warmup)
    warm(ref_hier, warmup)
    now = 0.0
    for k, step in enumerate(steps):
        now += step
        fast.catch_up(now)
        ref.catch_up(now)
        if k % 3 == 2:
            fast.force_pass(now)
            ref.force_pass(now)
        if regions:
            region = regions[k % len(regions)]
            waits = (fast.on_deregister(region, now), ref.on_deregister(region, now))
            assert waits[0] == waits[1]
            waits = (fast.on_register(region, now), ref.on_register(region, now))
            assert waits[0] == waits[1]
        assert fast.pass_stats() == ref.pass_stats()
        assert fast.next_pass_start == ref.next_pass_start
        assert (fast.lock._window_start, fast.lock._window_end) == (
            ref.lock._window_start, ref.lock._window_end)
        assert state(fast_hier) == state(ref_hier)
        warm(fast_hier, warmup[k:k + 2])
        warm(ref_hier, warmup[k:k + 2])


@settings(max_examples=80, deadline=None)
@given(machine=machines(), warmup=warmups, regions=region_layouts(),
       leads=st.lists(st.floats(0.0, 400.0), min_size=1, max_size=4))
def test_collaborative_partial_pass_matches_oracle(machine, warmup, regions, leads):
    config = HeaterConfig(period_ns=400.0, locked=True)
    fast_hier, ref_hier = build(machine), build(machine)
    fast = CollaborativeHeater(fast_hier, GHZ, config)
    ref = OracleCollaborativeHeater(ref_hier, GHZ, config)
    for region in regions:
        fast.regions.add(region)
        ref.regions.add(region)
    warm(fast_hier, warmup)
    warm(ref_hier, warmup)
    phase = 0.0
    for lead in leads:
        phase += 5000.0
        fast.pause()
        ref.pause()
        assert fast.resume_before_phase(phase, lead) == ref.resume_before_phase(phase, lead)
        assert fast.pass_stats() == ref.pass_stats()
        assert fast.partial_passes == ref.partial_passes
        assert (fast.lock._window_start, fast.lock._window_end) == (
            ref.lock._window_start, ref.lock._window_end)
        assert state(fast_hier) == state(ref_hier)
        fast.catch_up(phase + 1000.0)
        ref.catch_up(phase + 1000.0)
        assert fast.pass_stats() == ref.pass_stats()
        assert state(fast_hier) == state(ref_hier)
