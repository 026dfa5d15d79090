"""Set-associative cache model with partitioning support.

Eviction classes
----------------
Every resident line carries a small integer *class*. ``CLS_DEFAULT`` is
ordinary application data; ``CLS_NETWORK`` marks lines belonging to the MPI
matching state. Classes exist so we can model the paper's proposal (section
4.6): *semi-permanent occupancy* via way partitioning (Intel CAT style),
where ordinary fills may not evict network lines beyond their share of ways.

Eviction policies
-----------------
``lru`` (exact, via an ordered dict), ``plru`` (tree pseudo-LRU
approximation) and ``random`` (seeded). The hot-caching technique works by
refreshing recency under (P)LRU; the random policy is included as an ablation
showing hot caching *requires* a recency-based policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.layout import LINE_SIZE

CLS_DEFAULT = 0
CLS_NETWORK = 1


class CacheStats:
    """Demand/prefetch counters for one cache level.

    A ``__slots__`` class, not a dataclass: these counters are bumped on
    every simulated line access, and slot attribute access keeps that cheap.
    """

    __slots__ = ("hits", "misses", "prefetch_fills", "prefetch_hits", "evictions", "flushes")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0  # demand hits on prefetched lines
        self.evictions = 0
        self.flushes = 0

    @property
    def accesses(self) -> int:
        """Total demand lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Demand hit fraction (0 when no accesses)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Clear accumulated state/counters."""
        self.hits = 0
        self.misses = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0
        self.evictions = 0
        self.flushes = 0

    def snapshot(self) -> dict:
        """Counters as a plain dict (round-trips everything reset() clears)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "prefetch_fills": self.prefetch_fills,
            "prefetch_hits": self.prefetch_hits,
            "evictions": self.evictions,
            "flushes": self.flushes,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class WayPartition:
    """CAT-style way reservation for the network class.

    ``network_ways`` ways per set are reserved: ordinary (``CLS_DEFAULT``)
    fills may never push network-class occupancy in a set below its current
    level once it is within the reserved share, i.e. a default-class fill
    must victimize a default-class line while network occupancy <= reserved
    ways. Network fills may evict anything.
    """

    network_ways: int

    def validate(self, assoc: int) -> None:
        """Raise ConfigurationError if the reservation exceeds the ways."""
        if not 0 < self.network_ways < assoc:
            raise ConfigurationError(
                f"network_ways must be in (0, {assoc}), got {self.network_ways}"
            )


def validate_geometry(
    name: str,
    size_bytes: int,
    assoc: int,
    policy: str,
    partition: Optional[WayPartition],
    rng: Optional[np.random.Generator],
) -> int:
    """Validate a cache geometry; returns the number of sets.

    Raises :class:`ConfigurationError` for a size that is not a whole
    number of ``assoc``-way sets, a set count that is not a power of two,
    an unknown policy, RANDOM without an rng, or an oversized partition.
    """
    if size_bytes % (assoc * LINE_SIZE):
        raise ConfigurationError(
            f"{name}: size {size_bytes} not divisible by assoc*line ({assoc}*{LINE_SIZE})"
        )
    nsets = size_bytes // (assoc * LINE_SIZE)
    if nsets & (nsets - 1):
        raise ConfigurationError(
            f"{name}: number of sets must be a power of two, got {nsets}"
        )
    if policy not in EvictionPolicy.ALL:
        raise ConfigurationError(f"unknown eviction policy {policy!r}")
    if policy == EvictionPolicy.RANDOM and rng is None:
        raise ConfigurationError("random eviction policy requires an rng")
    if partition is not None:
        partition.validate(assoc)
    return nsets


class _LineMeta:
    __slots__ = ("cls", "prefetched", "penalty")

    def __init__(self, cls: int, prefetched: bool, penalty: float = 0.0) -> None:
        self.cls = cls
        self.prefetched = prefetched
        # Residual latency a demand access still pays on its first hit to a
        # prefetched line (the prefetch was issued too late to hide
        # everything).
        self.penalty = penalty


class EvictionPolicy:
    """Names of the supported eviction policies."""

    LRU = "lru"
    PLRU = "plru"
    RANDOM = "random"
    ALL = (LRU, PLRU, RANDOM)


class SetAssociativeCache:
    """One cache level.

    Each set is a plain dict from line index to :class:`_LineMeta` plus an
    array-backed recency list of line indices (oldest first). Keeping the
    recency order in a list instead of an :class:`OrderedDict` makes the
    PLRU mid-queue promotion two C-level list operations instead of a full
    dict rebuild, and lets eviction scan candidates without copying — this
    ``lookup``/``fill`` pair is the hottest call in the repository. For
    RANDOM, the list degenerates to insertion order and is ignored by
    victim selection.
    """

    __slots__ = (
        "name",
        "size_bytes",
        "assoc",
        "latency",
        "nsets",
        "_set_mask",
        "_sets",
        "_order",
        "_dirty",
        "policy",
        "partition",
        "stats",
        "_rng",
    )

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        latency: float,
        *,
        policy: str = EvictionPolicy.LRU,
        partition: Optional[WayPartition] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        nsets = validate_geometry(name, size_bytes, assoc, policy, partition, rng)
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.latency = latency
        self.nsets = nsets
        self._set_mask = nsets - 1
        self._sets: list[dict] = [{} for _ in range(nsets)]
        self._order: list[list] = [[] for _ in range(nsets)]  # recency, oldest first
        self._dirty: set = set()  # indices of sets that may hold lines
        self.policy = policy
        self.partition = partition
        self.stats = CacheStats()
        self._rng = rng

    # -- lookup / fill ----------------------------------------------------

    def lookup(self, line: int) -> Optional[_LineMeta]:
        """Demand lookup. Updates recency and hit/miss statistics.

        Returns the line's metadata on a hit (truthy) or ``None`` on a miss.
        A first demand hit on a prefetched line exposes any residual
        ``penalty`` exactly once: the caller reads it off the returned meta,
        and this method clears it.
        """
        idx = line & self._set_mask
        meta = self._sets[idx].get(line)
        if meta is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if meta.prefetched:
            self.stats.prefetch_hits += 1
            meta.prefetched = False
        self._promote(self._order[idx], line)
        return meta

    def contains(self, line: int) -> bool:
        """Presence check without touching recency or statistics."""
        return line in self._sets[line & self._set_mask]

    def _promote(self, order: list, line: int) -> None:
        policy = self.policy
        if policy == EvictionPolicy.LRU:
            if order[-1] != line:
                order.remove(line)
                order.append(line)
        elif policy == EvictionPolicy.PLRU:
            # Tree-PLRU approximation: a hit protects the line but does not
            # make it strictly MRU; emulate by moving it to the middle of the
            # recency order.
            order.remove(line)
            order.insert(len(order) // 2, line)
        # RANDOM: recency is irrelevant.

    def fill(
        self,
        line: int,
        cls: int = CLS_DEFAULT,
        *,
        prefetched: bool = False,
        penalty: float = 0.0,
    ) -> None:
        """Insert *line*; evicts a victim if the set is full."""
        idx = line & self._set_mask
        s = self._sets[idx]
        meta = s.get(line)
        if meta is not None:
            # Refill of a resident line (e.g. prefetch racing demand).
            meta.cls = cls
            if not prefetched:
                meta.prefetched = False
                meta.penalty = 0.0
            self._promote(self._order[idx], line)
            return
        if len(s) >= self.assoc:
            self._evict(s, self._order[idx], filling_cls=cls)
        elif not s:
            self._dirty.add(idx)
        s[line] = _LineMeta(cls, prefetched, penalty if prefetched else 0.0)
        self._order[idx].append(line)
        if prefetched:
            self.stats.prefetch_fills += 1

    def _evict(self, s: dict, order: list, filling_cls: int) -> None:
        random = self.policy == EvictionPolicy.RANDOM
        if self.partition is not None and filling_cls == CLS_DEFAULT:
            # Only the partition scan needs a full candidate ordering; RANDOM
            # draws one permutation here; its variates are part of the seeded
            # victim sequence the golden tests pin.
            if random:
                candidates = [order[i] for i in self._rng.permutation(len(order))]
            else:
                candidates = order  # oldest first; scanned in place, never copied
            victim = candidates[0]
            network_lines = sum(1 for m in s.values() if m.cls == CLS_NETWORK)
            if network_lines <= self.partition.network_ways:
                # Network share is protected: victimize the first default
                # candidate. When the whole set is network data the guarantee
                # only extends to network_ways, so the scan falls back to the
                # pre-seeded candidates[0].
                for cand in candidates:
                    if s[cand].cls != CLS_NETWORK:
                        victim = cand
                        break
        elif random:
            # No partition scan: one uniform draw replaces the permutation
            # (same victim distribution, one variate instead of assoc).
            victim = order[int(self._rng.integers(len(order)))]
        else:
            victim = order[0]
        del s[victim]
        order.remove(victim)
        self.stats.evictions += 1

    def invalidate(self, line: int) -> bool:
        """Drop *line* if resident; returns whether it was present."""
        idx = line & self._set_mask
        s = self._sets[idx]
        if line in s:
            del s[line]
            self._order[idx].remove(line)
            if not s:
                self._dirty.discard(idx)
            return True
        return False

    def flush(self) -> None:
        """Drop every line (the benchmarks' inter-iteration cache clear)."""
        sets = self._sets
        orders = self._order
        for idx in self._dirty:
            sets[idx].clear()
            orders[idx].clear()
        self._dirty.clear()
        self.stats.flushes += 1

    def flush_keep_network(self, reserved: int) -> None:
        """Flush, preserving up to *reserved* network lines per set.

        The way-partition flush: at most the partition's way share of
        network-class lines survives, keeping the most recently used ones
        (recency order is preserved among survivors). Counts as one flush.
        """
        sets = self._sets
        orders = self._order
        still_dirty = set()
        for idx in self._dirty:
            s = sets[idx]
            order = orders[idx]
            network = [k for k in order if s[k].cls == CLS_NETWORK]
            keep = network[-reserved:] if reserved > 0 else []
            kept = {k: s[k] for k in keep}
            s.clear()
            order.clear()
            s.update(kept)
            order.extend(keep)
            if s:
                still_dirty.add(idx)
        self._dirty.clear()
        self._dirty.update(still_dirty)
        self.stats.flushes += 1

    # -- introspection -----------------------------------------------------

    def occupancy(self, cls: Optional[int] = None) -> int:
        """Resident line count, optionally restricted to one class.

        Scans only sets known to hold lines (``_dirty``), so introspection
        on a mostly-empty multi-MiB L3 does not walk thousands of empty
        dicts; ``invalidate`` prunes a set's entry when it empties.
        """
        sets = self._sets
        if cls is None:
            return sum(len(sets[idx]) for idx in self._dirty)
        return sum(1 for idx in self._dirty for m in sets[idx].values() if m.cls == cls)

    def recency(self, set_index: int) -> list:
        """Resident lines of one set in recency order (oldest first).

        For RANDOM the order is insertion order (recency is never updated).
        """
        return list(self._order[set_index])

    @property
    def capacity_lines(self) -> int:
        """Total line capacity (sets x ways)."""
        return self.nsets * self.assoc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SetAssociativeCache({self.name}, {self.size_bytes >> 10}KiB, "
            f"{self.assoc}-way, {self.policy})"
        )
