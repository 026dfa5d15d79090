"""Tests for the set-associative cache: LRU semantics, partitioning, stats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.mem.cache import (
    CLS_DEFAULT,
    CLS_NETWORK,
    EvictionPolicy,
    SetAssociativeCache,
    WayPartition,
)


def small_cache(assoc=4, nsets=4, **kw):
    return SetAssociativeCache("t", nsets * assoc * 64, assoc, 10.0, **kw)


def policy_cache(assoc=4, nsets=4, *, policy=EvictionPolicy.LRU, **kw):
    """A small cache under *policy*; RANDOM gets a seeded rng implicitly."""
    if policy == EvictionPolicy.RANDOM and "rng" not in kw:
        kw["rng"] = np.random.default_rng(42)
    return small_cache(assoc, nsets, policy=policy, **kw)


class TestConstruction:
    def test_geometry(self):
        c = small_cache(assoc=4, nsets=8)
        assert c.nsets == 8
        assert c.capacity_lines == 32

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache("t", 3 * 4 * 64, 4, 10.0)

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            small_cache(policy="clock")

    def test_random_needs_rng(self):
        with pytest.raises(ConfigurationError):
            small_cache(policy=EvictionPolicy.RANDOM)

    def test_bad_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            small_cache(partition=WayPartition(network_ways=4), assoc=4)


class TestHitMiss:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(5) is None
        c.fill(5)
        assert c.lookup(5) is not None

    def test_stats(self):
        c = small_cache()
        c.lookup(1)
        c.fill(1)
        c.lookup(1)
        assert c.stats.misses == 1
        assert c.stats.hits == 1
        assert c.stats.hit_rate == pytest.approx(0.5)

    def test_contains_does_not_touch_stats(self):
        c = small_cache()
        c.fill(1)
        c.contains(1)
        c.contains(2)
        assert c.stats.accesses == 0


class TestLru:
    def test_lru_eviction_order(self):
        c = small_cache(assoc=2, nsets=1)
        c.fill(0)
        c.fill(1)
        c.fill(2)  # evicts 0
        assert not c.contains(0)
        assert c.contains(1) and c.contains(2)

    def test_hit_refreshes_recency(self):
        c = small_cache(assoc=2, nsets=1)
        c.fill(0)
        c.fill(1)
        c.lookup(0)  # 0 now MRU
        c.fill(2)  # evicts 1
        assert c.contains(0)
        assert not c.contains(1)

    def test_set_isolation(self):
        c = small_cache(assoc=1, nsets=4)
        for line in range(4):
            c.fill(line)
        assert all(c.contains(line) for line in range(4))

    def test_same_set_conflict(self):
        c = small_cache(assoc=1, nsets=4)
        c.fill(0)
        c.fill(4)  # maps to same set
        assert not c.contains(0)

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_lru_matches_reference_model(self, accesses):
        """Exact-LRU cache must agree with an explicit recency-list model."""
        c = small_cache(assoc=4, nsets=1)
        reference = []  # MRU at the end
        for line in accesses:
            meta = c.lookup(line)
            if meta is None:
                c.fill(line)
                if line in reference:
                    reference.remove(line)
                reference.append(line)
                if len(reference) > 4:
                    reference.pop(0)
            else:
                reference.remove(line)
                reference.append(line)
            assert sorted(reference) == sorted(
                line for line in range(8) if c.contains(line)
            )


class TestPrefetchedLines:
    def test_prefetch_hit_counted_once(self):
        c = small_cache()
        c.fill(3, prefetched=True)
        c.lookup(3)
        c.lookup(3)
        assert c.stats.prefetch_fills == 1
        assert c.stats.prefetch_hits == 1

    def test_penalty_exposed_then_cleared(self):
        c = small_cache()
        c.fill(3, prefetched=True, penalty=50.0)
        meta = c.lookup(3)
        assert meta.penalty == 50.0
        meta.penalty = 0.0  # caller consumes it
        assert c.lookup(3).penalty == 0.0

    def test_demand_refill_clears_prefetch_state(self):
        c = small_cache()
        c.fill(3, prefetched=True, penalty=50.0)
        c.fill(3)  # demand fill
        meta = c.lookup(3)
        assert meta.penalty == 0.0
        assert c.stats.prefetch_hits == 0


class TestPartition:
    def _cache(self):
        return small_cache(assoc=4, nsets=1, partition=WayPartition(network_ways=2))

    def test_default_fill_cannot_evict_protected_network(self):
        c = self._cache()
        c.fill(0, CLS_NETWORK)
        c.fill(1, CLS_NETWORK)
        for line in range(2, 8):
            c.fill(line, CLS_DEFAULT)
        assert c.contains(0) and c.contains(1)
        assert c.occupancy(CLS_NETWORK) == 2

    def test_network_fill_can_evict_anything(self):
        c = self._cache()
        for line in range(4):
            c.fill(line, CLS_DEFAULT)
        c.fill(10, CLS_NETWORK)
        assert c.contains(10)
        assert c.occupancy() == 4

    def test_network_beyond_share_is_evictable(self):
        c = self._cache()
        for line in range(4):
            c.fill(line, CLS_NETWORK)  # network over-occupies all ways
        c.fill(10, CLS_DEFAULT)  # may evict the excess network line
        assert c.contains(10)

    def test_all_network_set_default_fill_evicts_oldest(self):
        # When network data over-occupies the whole set (beyond its reserved
        # share), a default-class fill falls through to plain recency: the
        # *oldest* network line is the victim, not an arbitrary one.
        c = self._cache()
        for line in range(4):
            c.fill(line, CLS_NETWORK)
        c.fill(10, CLS_DEFAULT)
        assert not c.contains(0)  # oldest network line went
        assert c.contains(1) and c.contains(2) and c.contains(3)
        assert c.recency(0) == [1, 2, 3, 10]


class TestFlushInvalidate:
    def test_flush_empties(self):
        c = small_cache()
        for line in range(10):
            c.fill(line)
        c.flush()
        assert c.occupancy() == 0
        assert c.stats.flushes == 1

    def test_fill_after_flush_works(self):
        c = small_cache()
        c.fill(1)
        c.flush()
        c.fill(2)
        assert c.contains(2) and not c.contains(1)

    def test_invalidate(self):
        c = small_cache()
        c.fill(1)
        assert c.invalidate(1) is True
        assert c.invalidate(1) is False
        assert not c.contains(1)

    def test_snapshot_roundtrips_flushes(self):
        c = small_cache()
        c.fill(1)
        c.flush()
        c.flush()
        snap = c.stats.snapshot()
        assert snap["flushes"] == 2
        # snapshot covers every counter reset() clears.
        c.stats.reset()
        cleared = c.stats.snapshot()
        assert cleared["flushes"] == 0
        assert set(snap) == set(cleared)


class TestPolicies:
    def test_plru_approximates_recency(self):
        c = small_cache(assoc=4, nsets=1, policy=EvictionPolicy.PLRU)
        for line in range(4):
            c.fill(line)
        c.lookup(0)  # protect 0
        c.fill(4)
        assert c.contains(0)

    def test_plru_hit_promotes_to_middle(self):
        # Tree-PLRU approximation: a hit protects the line without making it
        # strictly MRU — it moves to the *middle* of the recency order.
        c = small_cache(assoc=4, nsets=1, policy=EvictionPolicy.PLRU)
        for line in range(4):
            c.fill(line)
        assert c.recency(0) == [0, 1, 2, 3]
        c.lookup(0)
        assert c.recency(0) == [1, 0, 2, 3]

    def test_lru_hit_promotes_to_mru(self):
        c = small_cache(assoc=4, nsets=1, policy=EvictionPolicy.LRU)
        for line in range(4):
            c.fill(line)
        c.lookup(0)
        assert c.recency(0) == [1, 2, 3, 0]

    def test_random_policy_runs(self):
        c = small_cache(
            assoc=2, nsets=1, policy=EvictionPolicy.RANDOM, rng=np.random.default_rng(0)
        )
        for line in range(10):
            c.fill(line)
        assert c.occupancy() == 2

    def test_random_policy_deterministic_with_seed(self):
        def run(seed):
            c = small_cache(
                assoc=2, nsets=1, policy=EvictionPolicy.RANDOM,
                rng=np.random.default_rng(seed),
            )
            for line in range(20):
                c.fill(line)
            return sorted(line for line in range(20) if c.contains(line))

        assert run(7) == run(7)

ALL_POLICIES = (EvictionPolicy.LRU, EvictionPolicy.PLRU, EvictionPolicy.RANDOM)


class TestPartitionFallbackAllNetwork:
    """The way-partition eviction *fallback*: a default-class fill into a set
    whose every way holds network-class data beyond the reserved share must
    fall back to the plain policy victim (no non-network candidate exists)
    under every eviction policy.
    """

    def _overfilled(self, policy):
        c = policy_cache(
            assoc=4, nsets=1, policy=policy,
            partition=WayPartition(network_ways=2),
        )
        for line in range(4):
            c.fill(line, CLS_NETWORK)  # network over-occupies the whole set
        return c

    @pytest.mark.parametrize("policy", (EvictionPolicy.LRU, EvictionPolicy.PLRU))
    def test_fallback_evicts_recency_head(self, policy):
        c = self._overfilled(policy)
        c.fill(10, CLS_DEFAULT)
        assert c.contains(10)
        assert not c.contains(0)  # head of recency order, not an arbitrary line
        assert c.recency(0) == [1, 2, 3, 10]
        assert c.occupancy(CLS_NETWORK) == 3
        assert c.stats.evictions == 1

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_fallback_always_admits_the_fill(self, policy):
        c = self._overfilled(policy)
        c.fill(10, CLS_DEFAULT)
        assert c.contains(10)
        assert c.occupancy() == 4
        assert c.occupancy(CLS_NETWORK) == 3
        assert c.occupancy(CLS_DEFAULT) == 1

    def test_fallback_random_is_seed_deterministic(self):
        def survivors():
            c = self._overfilled(EvictionPolicy.RANDOM)
            c.fill(10, CLS_DEFAULT)
            return sorted(line for line in range(11) if c.contains(line))

        assert survivors() == survivors()

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_within_share_network_stays_protected(self, policy):
        # Contrast case: while the network share is *not* exceeded, the scan
        # must keep skipping network lines no matter the policy.
        c = policy_cache(
            assoc=4, nsets=1, policy=policy,
            partition=WayPartition(network_ways=2),
        )
        c.fill(0, CLS_NETWORK)
        c.fill(1, CLS_NETWORK)
        for line in range(2, 8):
            c.fill(line, CLS_DEFAULT)
        assert c.contains(0) and c.contains(1)
        assert c.occupancy(CLS_NETWORK) == 2

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_one_excess_network_line_is_fair_game(self, policy):
        # Exactly one network line beyond the share: the protected scan no
        # longer applies, so the policy victim may be (and under LRU/PLRU,
        # is) a network line even though default lines are present.
        c = policy_cache(
            assoc=4, nsets=1, policy=policy,
            partition=WayPartition(network_ways=2),
        )
        for line in range(3):
            c.fill(line, CLS_NETWORK)  # one over the 2-way share
        c.fill(3, CLS_DEFAULT)
        evictions_before = c.stats.evictions
        c.fill(10, CLS_DEFAULT)
        assert c.contains(10)
        assert c.stats.evictions == evictions_before + 1
        assert c.occupancy() == 4


class TestOccupancyDirtyTracking:
    """Satellite: occupancy scans only dirty (non-empty) sets, and the dirty
    index is pruned when invalidation empties a set."""

    def test_invalidate_prunes_emptied_set(self):
        c = policy_cache(assoc=2, nsets=4)
        c.fill(0)  # set 0
        c.fill(1)  # set 1
        c.fill(5)  # set 1 again
        assert c._dirty == {0, 1}
        assert c.invalidate(0) is True
        assert c._dirty == {1}  # set 0 emptied -> pruned
        assert c.invalidate(1) is True
        assert c._dirty == {1}  # set 1 still holds line 5
        assert c.occupancy() == 1

    def test_occupancy_correct_after_pruning(self):
        c = policy_cache(assoc=2, nsets=4)
        for line in range(8):
            c.fill(line, CLS_NETWORK if line % 2 else CLS_DEFAULT)
        for line in range(4):
            c.invalidate(line)
        assert c.occupancy() == 4
        assert c.occupancy(CLS_NETWORK) == 2
        assert c.occupancy(CLS_DEFAULT) == 2

    def test_flush_clears_dirty_index(self):
        c = policy_cache(assoc=2, nsets=4)
        for line in range(8):
            c.fill(line)
        assert c._dirty
        c.flush()
        assert c._dirty == set()
        assert c.occupancy() == 0

    def test_eviction_keeps_replaced_set_dirty(self):
        # A fill that evicts replaces rather than empties: the set must stay
        # dirty and occupancy must still count it.
        c = policy_cache(assoc=1, nsets=2)
        c.fill(0)
        c.fill(2)  # same set, evicts 0
        assert c._dirty == {0}
        assert c.occupancy() == 1
