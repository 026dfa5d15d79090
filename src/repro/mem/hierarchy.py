"""A multi-core socket: private L1/L2, shared L3, DRAM.

This is the stage on which the whole study plays out:

* The *matching core* runs the MPI matching engine; its queue traversals are
  demand accesses here.
* The *heater core* (hot caching, section 3.2) periodically touches the match
  regions; its accesses fill the **shared** L3, which is exactly why the
  matching core later finds the data close by ("Compute core fetches data
  from shared cache instead of DRAM", Figure 3). One heater pass is one
  hierarchy transaction, :meth:`MemoryHierarchy.touch_shared_pass`, over
  every region of the pass.
* ``flush()`` models the cache-destroying compute phase between benchmark
  iterations (section 4.1: "we cleared the cache between each iteration").
  When a way partition or a dedicated network cache is configured, flush
  leaves the protected network lines alone — that is the *semi-permanent
  occupancy* the paper argues for.

Simplifications (documented, deliberate):

* Prefetched fills are free and instantaneous; realism comes from the
  bounded prefetch distance and stream-detection rules instead.
* No back-invalidation between levels (treated as non-inclusive); the
  benchmarks' flushes reset all levels anyway.
* Latency is charged per touched line with no memory-level parallelism; MPI
  list traversal is serial pointer-chasing, which is the regime the paper
  identifies as latency-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.alloc import Allocation
from repro.mem.cache import (
    CLS_DEFAULT,
    CLS_NETWORK,
    EvictionPolicy,
    SetAssociativeCache,
    WayPartition,
)
from repro.mem.layout import LINE_SHIFT
from repro.mem.prefetch import (
    AdjacentPairPrefetcher,
    NextLinePrefetcher,
    Prefetcher,
    StreamerPrefetcher,
)
from repro.mem.result import AccessResult


@dataclass(frozen=True)
class NetworkCacheConfig:
    """The paper's proposed per-core dedicated network cache (section 3.2:
    "a small 1-2KiB network specific cache to the core design")."""

    size_bytes: int = 2048
    latency: float = 4.0

    def build(self, core_id: int) -> SetAssociativeCache:
        """Construct the per-core cache this config describes."""
        # Fully associative within a single set keeps the tiny cache simple.
        nlines = self.size_bytes >> LINE_SHIFT
        if nlines < 1:
            raise ConfigurationError(
                f"network cache too small: {self.size_bytes} bytes"
            )
        return SetAssociativeCache(
            f"netcache{core_id}", self.size_bytes, nlines, self.latency
        )


class Core:
    """Private L1 + L2 and their prefetchers, plus the optional net cache."""

    __slots__ = (
        "core_id", "l1", "l2", "l1_prefetchers", "l2_prefetchers", "netcache", "hot", "hot1",
    )

    def __init__(
        self,
        core_id: int,
        l1: SetAssociativeCache,
        l2: SetAssociativeCache,
        l1_prefetchers: Sequence[Prefetcher],
        l2_prefetchers: Sequence[Prefetcher],
        netcache: Optional[SetAssociativeCache] = None,
    ) -> None:
        self.core_id = core_id
        self.l1 = l1
        self.l2 = l2
        self.l1_prefetchers = list(l1_prefetchers)
        self.l2_prefetchers = list(l2_prefetchers)
        self.netcache = netcache
        # Construction-time invariants of the demand path, prebound so the
        # batched access paths pay one attribute load plus a tuple unpack
        # instead of ~20 chained lookups per call. Everything here is fixed
        # after construction (prefetcher lists are mutated in place by
        # ``reset()``, never replaced; the per-set dicts and recency lists
        # are mutated in place, never rebound).
        lru = l1.policy == EvictionPolicy.LRU
        plru = l1.policy == EvictionPolicy.PLRU
        self.hot = (
            l1,
            l2,
            l1._sets,
            l1._order,
            l1._set_mask,
            lru,
            plru,
            l1.latency,
            l1.stats,
            l2.stats,
            self.l1_prefetchers,
            self.l2_prefetchers,
        )
        # Smaller variant for the leading L1-hit run (the match engine's
        # node loads are almost always exactly this shape).
        self.hot1 = (
            l1._sets,
            l1._order,
            l1._set_mask,
            lru,
            plru,
            l1.latency,
            l1.stats,
        )


def default_l1_prefetchers() -> list[Prefetcher]:
    """The default L1 unit set: next-line (DCU)."""
    return [NextLinePrefetcher()]


def default_l2_prefetchers() -> list[Prefetcher]:
    """The default L2 unit set: adjacent-pair + streamer."""
    return [AdjacentPairPrefetcher(), StreamerPrefetcher()]


class MemoryHierarchy:
    """A socket with *n_cores* cores sharing one L3 and a DRAM behind it."""

    def __init__(
        self,
        *,
        n_cores: int = 2,
        l1_size: int = 32 * 1024,
        l1_assoc: int = 8,
        l1_latency: float = 4.0,
        l2_size: int = 256 * 1024,
        l2_assoc: int = 8,
        l2_latency: float = 12.0,
        l3_size: int = 16 * 1024 * 1024,
        l3_assoc: int = 16,
        l3_latency: float = 30.0,
        dram_latency: float = 200.0,
        policy: str = EvictionPolicy.LRU,
        l1_prefetcher_factory: Callable[[], list] = default_l1_prefetchers,
        l2_prefetcher_factory: Callable[[], list] = default_l2_prefetchers,
        partition: Optional[WayPartition] = None,
        network_cache: Optional[NetworkCacheConfig] = None,
        rng: Optional[np.random.Generator] = None,
        dram_stream_coverage: float = 0.75,
        l3_stream_coverage: float = 0.75,
    ) -> None:
        if n_cores < 1:
            raise ConfigurationError(f"need at least one core, got {n_cores}")
        if not (0.0 <= dram_stream_coverage <= 1.0 and 0.0 <= l3_stream_coverage <= 1.0):
            raise ConfigurationError("stream coverage fractions must be in [0, 1]")
        self.n_cores = n_cores
        self.dram_latency = dram_latency
        self.partition = partition
        # Fraction of the source latency a timely prefetch hides, by where
        # the prefetched line came from. Sandy Bridge's core-clock L3 streams
        # well into L2 (high l3 coverage); Haswell/Broadwell's decoupled,
        # slower LLC does not — but their improved streamer covers DRAM
        # streams better. These two knobs carry the paper's section 4.3
        # architecture contrast.
        self.dram_stream_coverage = dram_stream_coverage
        self.l3_stream_coverage = l3_stream_coverage
        self.l3 = SetAssociativeCache(
            "l3", l3_size, l3_assoc, l3_latency,
            policy=policy, partition=partition, rng=rng,
        )
        self.cores: list[Core] = []
        for cid in range(n_cores):
            l1 = SetAssociativeCache(
                f"l1.{cid}", l1_size, l1_assoc, l1_latency, policy=policy, rng=rng
            )
            l2 = SetAssociativeCache(
                f"l2.{cid}", l2_size, l2_assoc, l2_latency, policy=policy, rng=rng
            )
            netc = (
                network_cache.build(cid)
                if network_cache is not None
                else None
            )
            self.cores.append(
                Core(cid, l1, l2, l1_prefetcher_factory(), l2_prefetcher_factory(), netc)
            )
        self.demand_accesses = 0
        # Scratch transaction reused by the float-returning legacy wrappers,
        # so they stay allocation-free on the hot path.
        self._scratch = AccessResult()
        # Socket-level demand-path invariants, prebound like Core.hot (the
        # bound ``_prefetch_penalty`` in particular is costly to rebuild per
        # call).
        self._hot = (self.l3, self.l3.stats, self.dram_latency, self._prefetch_penalty)

    # -- the demand path ----------------------------------------------------

    def access(self, core_id: int, addr: int, nbytes: int, cls: int = CLS_DEFAULT) -> float:
        """Demand access of *nbytes* at *addr* from *core_id*; returns cycles.

        Thin wrapper over :meth:`access_tx` for call sites that only need
        the total; the batched transaction path underneath is the single
        implementation of the demand protocol.
        """
        if nbytes <= 0:
            return 0.0
        return self.access_lines(
            core_id,
            addr >> LINE_SHIFT,
            (addr + nbytes - 1) >> LINE_SHIFT,
            cls,
            self._scratch,
        ).cycles

    def access_tx(
        self,
        core_id: int,
        addr: int,
        nbytes: int,
        cls: int = CLS_DEFAULT,
        *,
        out: Optional[AccessResult] = None,
    ) -> AccessResult:
        """Demand access returning the full :class:`AccessResult`.

        Pass ``out`` to reuse a transaction object and keep the hot path
        allocation-free; it is reset before use and returned.
        """
        if nbytes <= 0:
            if out is None:
                return AccessResult()
            out.reset()
            return out
        return self.access_lines(
            core_id,
            addr >> LINE_SHIFT,
            (addr + nbytes - 1) >> LINE_SHIFT,
            cls,
            out,
        )

    def _prefetch_penalty(self, l2, line: int) -> float:
        """Residual latency of a prefetch for *line*, by its source level."""
        if l2.contains(line):
            return 0.0  # already close: nothing left to hide
        if self.l3.contains(line):
            return (1.0 - self.l3_stream_coverage) * self.l3.latency
        return (1.0 - self.dram_stream_coverage) * self.dram_latency

    def access_lines(
        self,
        core_id: int,
        first: int,
        last: int,
        cls: int = CLS_DEFAULT,
        out: Optional[AccessResult] = None,
    ) -> AccessResult:
        """Batched demand traversal of the line range [*first*, *last*].

        One call processes a whole node's line span: the per-core cache
        objects, their prefetcher lists and latencies are bound once instead
        of per line, which is where the wall-clock of the scalar loop went
        (see ``benchmarks/bench_access_path.py``). Simulated behaviour is
        bit-identical to :meth:`access_legacy` — same lookup/fill/prefetch
        order per line, same float accumulation order — the batching is
        purely a host-side optimization plus per-level attribution.
        """
        n = last - first + 1
        if n <= 0:
            if out is None:
                return AccessResult()
            out.reset()
            return out
        self.demand_accesses += n
        core = self.cores[core_id]
        netc = core.netcache
        cycles = 0.0
        l1_hits = 0
        l1_covered = 0
        pf_covered = 0
        penalty_cycles = 0.0
        line = first
        if netc is None or cls != CLS_NETWORK:
            # Fast prefix: consume leading L1 hits with minimal setup. Node
            # loads from a warm queue are entirely this shape, and a pure-hit
            # transaction never touches the general machinery below. Counter
            # updates mirror ``SetAssociativeCache.lookup`` exactly, with
            # L1 stats batched into one add per call (nothing reads them
            # mid-transaction); the first missing line breaks out uncounted
            # and the general loop resumes from it.
            l1_sets, l1_order, l1_mask, l1_lru, l1_plru, l1_lat, l1_stats = core.hot1
            while line <= last:
                idx = line & l1_mask
                meta = l1_sets[idx].get(line)
                if meta is None:
                    break
                if meta.prefetched:
                    meta.prefetched = False
                    l1_covered += 1
                if l1_lru:
                    order = l1_order[idx]
                    if order[-1] != line:
                        order.remove(line)
                        order.append(line)
                elif l1_plru:
                    order = l1_order[idx]
                    order.remove(line)
                    order.insert(len(order) // 2, line)
                l1_hits += 1
                pen = meta.penalty
                if pen:
                    meta.penalty = 0.0
                    penalty_cycles += pen
                cycles += l1_lat + pen
                line += 1
            if line > last:
                l1_stats.hits += l1_hits
                if l1_covered:
                    l1_stats.prefetch_hits += l1_covered
                res = out if out is not None else AccessResult()
                res.lines = n
                res.cycles = cycles
                res.netcache_hits = 0
                res.l1_hits = l1_hits
                res.l2_hits = 0
                res.l3_hits = 0
                res.dram_fills = 0
                res.prefetch_covered = l1_covered
                res.penalty_cycles = penalty_cycles
                return res
        # Every field of `res` is overwritten below, so a passed-in `out`
        # needs no reset here.
        res = out if out is not None else AccessResult()
        want_netc = netc is not None and cls == CLS_NETWORK
        (l1, l2, l1_sets, l1_order, l1_mask, l1_lru, l1_plru, l1_lat,
         l1_stats, l2_stats, l1_pf, l2_pf) = core.hot
        l3, l3_stats, dram_lat, penalty_of = self._hot
        l2_hits = l3_hits = netc_hits = dram_fills = 0
        l1_misses = 0
        for line in range(line, last + 1):
            if want_netc and netc.lookup(line):
                netc_hits += 1
                cycles += netc.latency
                continue
            idx = line & l1_mask
            meta = l1_sets[idx].get(line)
            if meta is not None:
                # Inlined ``l1.lookup()`` hit path — must stay bit-identical
                # to it (the equivalence tests pin this against
                # :meth:`access_legacy`); L1 stats are batched below.
                if meta.prefetched:
                    meta.prefetched = False
                    l1_covered += 1
                if l1_lru:
                    order = l1_order[idx]
                    if order[-1] != line:
                        order.remove(line)
                        order.append(line)
                elif l1_plru:
                    order = l1_order[idx]
                    order.remove(line)
                    order.insert(len(order) // 2, line)
                l1_hits += 1
                pen = meta.penalty
                if pen:
                    meta.penalty = 0.0
                    penalty_cycles += pen
                cycles += l1_lat + pen
                continue
            # L1 demand miss, counted exactly as l1.lookup() would have
            # (deferred to the batched update below).
            l1_misses += 1
            # The DCU may fetch ahead.
            for pf in l1_pf:
                for pline in pf.observe(line, False):
                    l1.fill(pline, cls, prefetched=True, penalty=penalty_of(l2, pline))
            covered = l2_stats.prefetch_hits
            meta = l2.lookup(line)
            if meta is not None:
                l2_hits += 1
                if l2_stats.prefetch_hits != covered:
                    pf_covered += 1
                pen = meta.penalty
                if pen:
                    meta.penalty = 0.0
                    penalty_cycles += pen
                cycles += l2.latency + pen
                hit2 = True
            else:
                hit2 = False
                covered = l3_stats.prefetch_hits
                meta = l3.lookup(line)
                if meta is not None:
                    l3_hits += 1
                    if l3_stats.prefetch_hits != covered:
                        pf_covered += 1
                    pen = meta.penalty
                    if pen:
                        meta.penalty = 0.0
                        penalty_cycles += pen
                    cycles += l3.latency + pen
                else:
                    dram_fills += 1
                    cycles += dram_lat
                    l3.fill(line, cls)
                l2.fill(line, cls)
            # L2 prefetchers observe every access that reached L2.
            for pf in l2_pf:
                for pline in pf.observe(line, hit2):
                    pen = penalty_of(l2, pline)
                    l2.fill(pline, cls, prefetched=True, penalty=pen)
                    l3.fill(pline, cls, prefetched=True)
            l1.fill(line, cls)
            if want_netc:
                netc.fill(line, cls)
        if l1_hits:
            l1_stats.hits += l1_hits
        if l1_misses:
            l1_stats.misses += l1_misses
        if l1_covered:
            l1_stats.prefetch_hits += l1_covered
        res.lines = n
        res.cycles = cycles
        res.netcache_hits = netc_hits
        res.l1_hits = l1_hits
        res.l2_hits = l2_hits
        res.l3_hits = l3_hits
        res.dram_fills = dram_fills
        res.prefetch_covered = pf_covered + l1_covered
        res.penalty_cycles = penalty_cycles
        return res

    # -- the scan-run fast path ---------------------------------------------

    def run_latency(self, core_id: int, cls: int = CLS_DEFAULT):
        """Static eligibility of the scan-run fast path; L1 latency or None.

        A scan run (see :meth:`access_run`) can only be charged
        arithmetically when every per-visit side effect is reproducible
        from visit counts alone: the dedicated network cache must not
        intercept the class, the L1 policy must be LRU or RANDOM (PLRU's
        mid-queue promotion is path-dependent), and the L1 latency must be
        integer-valued so ``visits * latency`` is bit-identical to the
        per-visit float adds. Returns the L1 hit latency when eligible,
        ``None`` otherwise. Never mutates state.
        """
        core = self.cores[core_id]
        if core.netcache is not None and cls == CLS_NETWORK:
            return None
        l1 = core.l1
        if l1.policy == EvictionPolicy.PLRU or not float(l1.latency).is_integer():
            return None
        return l1.latency

    def access_run(self, core_id, lines, vis, total):
        """Apply an all-L1-hit scan run over the visited *lines*.

        *lines* holds the ascending absolute line numbers a run's probes
        visit and ``vis[i]`` how many probes visit ``lines[i]`` (each
        probe's line span is contiguous and probe spans ascend, so
        per-line visits are contiguous in the global visit sequence;
        inter-probe gap lines are excluded by the caller — the replay
        never loads them); ``total`` is ``sum(vis)``. If every line is
        L1-resident with no pending prefetch flag or penalty, the method
        applies exactly the state the per-probe replay would have left —
        recency (one move-to-back per distinct line, ascending; repeat
        visits are no-ops because ``order[-1]`` is already the line),
        ``stats.hits`` and ``demand_accesses`` advanced by *total* — and
        returns True. Otherwise returns False with **nothing mutated**,
        and the caller must replay the run probe by probe through
        :meth:`access_lines`. Eligibility by construction (the caller
        checked :meth:`run_latency`): the L1 policy is not PLRU and the
        network cache does not intercept the run's class.
        """
        core = self.cores[core_id]
        l1_sets, l1_order, l1_mask, l1_lru, _l1_plru, _l1_lat, l1_stats = core.hot1
        for line in lines:
            meta = l1_sets[line & l1_mask].get(line)
            if meta is None or meta.prefetched or meta.penalty:
                return False
        if l1_lru:
            for line in lines:
                order = l1_order[line & l1_mask]
                if order[-1] != line:
                    order.remove(line)
                    order.append(line)
        l1_stats.hits += total
        self.demand_accesses += total
        return True

    def access_legacy(self, core_id: int, addr: int, nbytes: int, cls: int = CLS_DEFAULT) -> float:
        """The pre-batching scalar loop, kept as the reference semantics.

        Calls :meth:`_access_line` once per line exactly as the original
        ``access()`` did. Equivalence tests pin ``access_lines`` against it,
        and ``benchmarks/bench_access_path.py`` measures the gap.
        """
        if nbytes <= 0:
            return 0.0
        first = addr >> LINE_SHIFT
        last = (addr + nbytes - 1) >> LINE_SHIFT
        cycles = 0.0
        line = first
        while line <= last:
            cycles += self._access_line(self.cores[core_id], line, cls)
            line += 1
        return cycles

    def _access_line(self, core: Core, line: int, cls: int) -> float:
        self.demand_accesses += 1
        netc = core.netcache
        if netc is not None and cls == CLS_NETWORK and netc.lookup(line):
            return netc.latency
        l1, l2, l3 = core.l1, core.l2, self.l3
        meta1 = l1.lookup(line)
        if meta1 is not None:
            cycles = l1.latency + meta1.penalty
            meta1.penalty = 0.0
            return cycles
        # L1 miss: the DCU may fetch ahead.
        for pf in core.l1_prefetchers:
            for pline in pf.observe(line, False):
                l1.fill(pline, cls, prefetched=True,
                        penalty=self._prefetch_penalty(l2, pline))
        meta2 = l2.lookup(line)
        if meta2 is not None:
            cycles = l2.latency + meta2.penalty
            meta2.penalty = 0.0
            hit2 = True
        else:
            hit2 = False
            meta3 = l3.lookup(line)
            if meta3 is not None:
                cycles = l3.latency + meta3.penalty
                meta3.penalty = 0.0
            else:
                cycles = self.dram_latency
                l3.fill(line, cls)
            l2.fill(line, cls)
        # L2 prefetchers observe every access that reached L2.
        for pf in core.l2_prefetchers:
            for pline in pf.observe(line, hit2):
                pen = self._prefetch_penalty(l2, pline)
                l2.fill(pline, cls, prefetched=True, penalty=pen)
                l3.fill(pline, cls, prefetched=True)
        l1.fill(line, cls)
        if netc is not None and cls == CLS_NETWORK:
            netc.fill(line, cls)
        return cycles

    def write(self, core_id: int, addr: int, nbytes: int, cls: int = CLS_DEFAULT) -> float:
        """A store of *nbytes* at *addr*: write-allocate into the core's
        caches without demand latency (the write buffer absorbs it).

        Returns the number of lines touched; the caller scales this by its
        per-line store cost.
        """
        if nbytes <= 0:
            return 0.0
        return float(self.write_tx(core_id, addr, nbytes, cls, out=self._scratch).lines)

    def write_tx(
        self,
        core_id: int,
        addr: int,
        nbytes: int,
        cls: int = CLS_DEFAULT,
        *,
        out: Optional[AccessResult] = None,
    ) -> AccessResult:
        """Store transaction: write-allocate fills, no demand latency.

        The returned result carries ``lines`` (the caller scales this by its
        per-line store cost); level counters stay zero — stores expose no
        serving level in this model.
        """
        if out is None:
            res = AccessResult()
        else:
            res = out
            res.reset()
        if nbytes <= 0:
            return res
        core = self.cores[core_id]
        first = addr >> LINE_SHIFT
        last = (addr + nbytes - 1) >> LINE_SHIFT
        l1_fill, l2_fill, l3_fill = core.l1.fill, core.l2.fill, self.l3.fill
        netc = core.netcache if cls == CLS_NETWORK else None
        for line in range(first, last + 1):
            l1_fill(line, cls)
            l2_fill(line, cls)
            l3_fill(line, cls)
            if netc is not None:
                netc.fill(line, cls)
        res.lines = last - first + 1
        return res

    # -- the heater path ----------------------------------------------------

    def touch_shared(self, core_id: int, addr: int, nbytes: int, cls: int = CLS_NETWORK) -> int:
        """A heater pass over [addr, addr+nbytes): fills the shared L3 (and
        the heater core's private caches, which nobody else benefits from).

        Returns the number of lines touched, so the caller can charge the
        heater's own time budget (its loads are off the critical path of the
        matching core, but they determine pass duration and lock windows).
        """
        if nbytes <= 0:
            return 0
        return self.touch_shared_tx(core_id, addr, nbytes, cls, out=self._scratch).lines

    def touch_shared_tx(
        self,
        core_id: int,
        addr: int,
        nbytes: int,
        cls: int = CLS_NETWORK,
        *,
        out: Optional[AccessResult] = None,
    ) -> AccessResult:
        """Heater touch transaction over [addr, addr+nbytes).

        ``l3_hits`` counts lines that were already LLC-resident (a recency
        refresh — the heater doing its job), ``dram_fills`` lines it had to
        install; the split is what the heater reports as refreshed-per-pass.
        A one-region :meth:`touch_shared_pass`.
        """
        return self.touch_shared_pass(core_id, (Allocation(addr, nbytes),), cls, out)

    def touch_shared_pass(
        self,
        core_id: int,
        regions: Iterable[Allocation],
        cls: int = CLS_NETWORK,
        out: Optional[AccessResult] = None,
    ) -> AccessResult:
        """One heater pass over every region: a single transaction.

        Touches each line of each region in order (regions in iteration
        order, ascending lines within a region; zero-size regions touch
        nothing, overlapping ones touch their shared lines again): an L3
        lookup that fills on a miss, then a fill of the heater core's L2 and
        L1. ``lines`` is the pass total, ``l3_hits`` the lines found
        LLC-resident (refreshed) and ``dram_fills`` the lines installed; the
        other fields are zero.

        The cache objects are bound once per pass instead of once per
        region. Hits — the steady state of a warm pass — are inlined,
        mirroring ``SetAssociativeCache.lookup`` and the resident-line
        branch of ``fill`` exactly, with L3 hit/miss/prefetch-hit counters
        batched into one add per pass (nothing reads them mid-pass). Every
        miss goes through ``fill``, so eviction, partition, RANDOM draws and
        set bookkeeping are the method's own.
        """
        core = self.cores[core_id]
        l3, l2, l1 = self.l3, core.l2, core.l1
        l3_sets, l3_order, l3_mask, l3_fill = l3._sets, l3._order, l3._set_mask, l3.fill
        l2_sets, l2_order, l2_mask, l2_fill = l2._sets, l2._order, l2._set_mask, l2.fill
        l1_sets, l1_order, l1_mask, l1_fill = l1._sets, l1._order, l1._set_mask, l1.fill
        l3_lru = l3.policy == EvictionPolicy.LRU
        l3_plru = l3.policy == EvictionPolicy.PLRU
        l2_lru = l2.policy == EvictionPolicy.LRU
        l2_plru = l2.policy == EvictionPolicy.PLRU
        l1_lru = l1.policy == EvictionPolicy.LRU
        l1_plru = l1.policy == EvictionPolicy.PLRU
        n = installed = covered = 0
        for region in regions:
            nbytes = region.size
            if nbytes <= 0:
                continue
            addr = region.addr
            first = addr >> LINE_SHIFT
            last = (addr + nbytes - 1) >> LINE_SHIFT
            n += last - first + 1
            for line in range(first, last + 1):
                # Refresh recency in the shared cache; fill if absent.
                idx = line & l3_mask
                meta = l3_sets[idx].get(line)
                if meta is None:
                    l3_fill(line, cls)
                    installed += 1
                else:
                    if meta.prefetched:
                        meta.prefetched = False
                        covered += 1
                    if l3_lru:
                        order = l3_order[idx]
                        if order[-1] != line:
                            order.remove(line)
                            order.append(line)
                    elif l3_plru:
                        order = l3_order[idx]
                        order.remove(line)
                        order.insert(len(order) // 2, line)
                # The heater core's private copies: a resident line is
                # refilled in place (class reset, prefetch state cleared).
                idx = line & l2_mask
                meta = l2_sets[idx].get(line)
                if meta is None:
                    l2_fill(line, cls)
                else:
                    meta.cls = cls
                    meta.prefetched = False
                    meta.penalty = 0.0
                    if l2_lru:
                        order = l2_order[idx]
                        if order[-1] != line:
                            order.remove(line)
                            order.append(line)
                    elif l2_plru:
                        order = l2_order[idx]
                        order.remove(line)
                        order.insert(len(order) // 2, line)
                idx = line & l1_mask
                meta = l1_sets[idx].get(line)
                if meta is None:
                    l1_fill(line, cls)
                else:
                    meta.cls = cls
                    meta.prefetched = False
                    meta.penalty = 0.0
                    if l1_lru:
                        order = l1_order[idx]
                        if order[-1] != line:
                            order.remove(line)
                            order.append(line)
                    elif l1_plru:
                        order = l1_order[idx]
                        order.remove(line)
                        order.insert(len(order) // 2, line)
        refreshed = n - installed
        l3_stats = l3.stats
        l3_stats.hits += refreshed
        l3_stats.misses += installed
        l3_stats.prefetch_hits += covered
        res = out if out is not None else AccessResult()
        res.lines = n
        res.cycles = 0.0
        res.netcache_hits = 0
        res.l1_hits = 0
        res.l2_hits = 0
        res.l3_hits = refreshed
        res.dram_fills = installed
        res.prefetch_covered = 0
        res.penalty_cycles = 0.0
        return res

    # -- maintenance ---------------------------------------------------------

    def flush(self, *, respect_protection: bool = True) -> None:
        """Clear the caches, as the compute phase between iterations would.

        Protected network state survives when *respect_protection* is true:
        lines held by a way partition stay in L3, and dedicated network
        caches are untouched — they are not subject to ordinary capacity
        eviction, which is precisely the "semi-permanent occupancy" proposal.
        """
        for core in self.cores:
            core.l1.flush()
            core.l2.flush()
            for pf in core.l1_prefetchers:
                if not pf.survives_flush:
                    pf.reset()
            for pf in core.l2_prefetchers:
                if not pf.survives_flush:
                    pf.reset()
            if core.netcache is not None and not respect_protection:
                core.netcache.flush()
        if self.partition is not None and respect_protection:
            # The partition guarantees at most its way share survives; keep
            # the most recently used of the network lines.
            self.l3.flush_keep_network(self.partition.network_ways)
        else:
            self.l3.flush()

    def stats(self) -> dict:
        """Aggregated per-level counters."""
        out = {"l3": self.l3.stats.snapshot(), "demand_accesses": self.demand_accesses}
        for core in self.cores:
            out[f"l1.{core.core_id}"] = core.l1.stats.snapshot()
            out[f"l2.{core.core_id}"] = core.l2.stats.snapshot()
            if core.netcache is not None:
                out[f"netcache.{core.core_id}"] = core.netcache.stats.snapshot()
        return out

    def reset_stats(self) -> None:
        """Zero the accumulated statistics counters."""
        self.l3.stats.reset()
        self.demand_accesses = 0
        for core in self.cores:
            core.l1.stats.reset()
            core.l2.stats.reset()
            if core.netcache is not None:
                core.netcache.stats.reset()
