"""The match engine: queues x memory hierarchy x clock.

`MatchEngine` is a :class:`~repro.matching.port.MemoryPort` whose loads and
stores are charged against a simulated core's cache hierarchy and accumulate
on a shared clock. Attach it to any queue implementation and every probe of a
search becomes a cycle-accounted memory access — this is the instrument the
whole study is built on.

If a hot-cache heater is attached, the engine synchronizes it before every
memory operation, so heater passes that should have happened "in the
background" are applied to the shared cache before the matching core touches
it (see :mod:`repro.hotcache.heater`).

Queue searches reach the engine as :meth:`MatchEngine.load_run` runs. A run
is charged in one step when its lines are clean L1 hits and no heater pass
can start inside it, and replayed probe by probe through :meth:`load`
otherwise; either way the result is bit-identical to the per-probe default
loop of :class:`~repro.matching.port.MemoryPort`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError
from repro.matching.port import MemoryPort
from repro.mem.cache import CLS_NETWORK
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.layout import LINE_SHIFT
from repro.mem.result import AccessResult, LevelStats
from repro.sim.clock import Clock

T = TypeVar("T")

#: Non-memory work per probe: envelope comparison, loop control (~cycles).
DEFAULT_COMPARE_CYCLES = 2.0

#: Cost of a store absorbed by the write buffer, per line touched.
DEFAULT_STORE_CYCLES = 1.0

#: Run geometry is a pure function of (header, addr, size, probes, spacing),
#: so it is memoized across scans — a queue re-walking stable node addresses
#: (every warm deep search) pays the line-extent arithmetic once per node.
#: The cache is flushed wholesale past this size (address churn in
#: fragmented/recycling allocators), which keeps it O(live nodes) in steady
#: state without an eviction policy.
_GEOMETRY_CACHE_MAX = 65536

#: Integer-valued floats add exactly below 2**53, so per-probe accumulation
#: order stops mattering and the run's clock/cycle deltas collapse to one
#: addition each. The margin below 2**53 is pure paranoia — simulated clocks
#: sit around 1e6-1e9 cycles.
_EXACT_LIMIT = 2.0**52


class MatchEngine(MemoryPort):
    """Cycle-accounted memory port bound to one core of a hierarchy."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        *,
        clock: Optional[Clock] = None,
        core_id: int = 0,
        mem_class: int = CLS_NETWORK,
        compare_cycles: float = DEFAULT_COMPARE_CYCLES,
        store_cycles: float = DEFAULT_STORE_CYCLES,
        software_prefetch: bool = False,
        sw_prefetch_coverage: float = 0.9,
        sw_prefetch_issue_cycles: float = 1.0,
    ) -> None:
        self.hierarchy = hierarchy
        self.clock = clock if clock is not None else Clock()
        self.core_id = core_id
        self.mem_class = mem_class
        self.compare_cycles = compare_cycles
        self.store_cycles = store_cycles
        # Section 6 proposal: middleware-directed prefetch. The matching
        # code knows its own traversal order (even across pointer chases the
        # hardware cannot predict), so it can issue hints ahead of the scan.
        # A hint costs an issue slot and fills with high coverage — software
        # knows *exactly* what comes next, it just cannot issue infinitely
        # early.
        self.software_prefetch = software_prefetch
        self.sw_prefetch_coverage = sw_prefetch_coverage
        self.sw_prefetch_issue_cycles = sw_prefetch_issue_cycles
        # Hints are pure middleware-prefetch signals on this port; when the
        # prefetcher is off they have no simulated effect, and scans may
        # skip emitting them entirely.
        self.hint_is_noop = not software_prefetch
        self.heater = None  # set via attach_heater
        self._geometry: dict = {}
        # run_latency is static per (hierarchy, core, class) — netcache
        # interception, L1 policy and L1 latency are fixed at construction —
        # so it is resolved lazily once and cached.
        self._run_lat: Optional[float] = None
        self._run_lat_valid = False
        self.loads = 0
        self.stores = 0
        self.sw_prefetches = 0
        self.runs = 0
        self.run_probes = 0
        self.fast_runs = 0
        self.load_cycles = 0.0
        self.store_cycles_total = 0.0
        # Per-level hit attribution over every load transaction (where each
        # traversed line was served: netcache/L1/L2/L3/DRAM).
        self.level_stats = LevelStats()
        # Scratch transaction reused across loads/stores: the hot path
        # allocates nothing.
        self._tx = AccessResult()

    # -- heater wiring -------------------------------------------------------

    def attach_heater(self, heater) -> None:
        """Couple a :class:`~repro.hotcache.heater.Heater` to this engine."""
        self.heater = heater

    def _sync_heater(self) -> float:
        """Catch the heater up; returns per-access interference cycles."""
        heater = self.heater
        if heater is None:
            return 0.0
        heater.catch_up(self.clock.now)
        return heater.config.interference_cycles if heater.saturated else 0.0

    # -- MemoryPort -----------------------------------------------------------

    def load(self, addr: int, nbytes: int) -> None:
        """Record/charge a load of *nbytes* at *addr*: heater sync, one
        transaction, clock."""
        interference = self._sync_heater()
        if nbytes <= 0:
            cycles = 0.0
        else:
            tx = self.hierarchy.access_lines(
                self.core_id,
                addr >> LINE_SHIFT,
                (addr + nbytes - 1) >> LINE_SHIFT,
                self.mem_class,
                self._tx,
            )
            self.level_stats.add(tx)
            cycles = tx.cycles
        cycles += self.compare_cycles + interference
        self.clock.advance(cycles)
        self.loads += 1
        self.load_cycles += cycles

    #: The per-probe replay inside :meth:`load_run` charges through this
    #: name, so a wrapper installed on the public ``load`` sees each run once.
    _load_now = load

    # -- scan transactions ---------------------------------------------------

    @staticmethod
    def _run_geometry(
        header: Optional[Tuple[int, int]],
        addr: int,
        size: int,
        probes: int,
        spacing: int,
    ):
        """Line-visit geometry of a run: a pure function of its key.

        Probe spans ascend and never overlap (spacing >= size), so each
        line's visits are contiguous in the global visit sequence — the
        property :meth:`MemoryHierarchy.access_run` relies on. Lines nobody
        visits (inside inter-probe gaps) are dropped here so the apply
        path never sees them. Returns ``(pv, lines, vis, total, nloads)``:
        per-probe line counts in probe order, the visited absolute line
        numbers ascending, their visit counts, the grand total, and the
        number of per-probe loads the run stands for.
        """
        shift = LINE_SHIFT
        if header is not None:
            first_g = header[0] >> shift
            nloads = probes + 1
        else:
            first_g = addr >> shift
            nloads = probes
        last_g = (addr + spacing * (probes - 1) + size - 1) >> shift
        counts = [0] * (last_g - first_g + 1)
        pv = []
        append = pv.append
        if header is not None:
            hl = (header[0] + header[1] - 1) >> shift
            append(hl - first_g + 1)
            for line in range(first_g, hl + 1):
                counts[line - first_g] += 1
        lo = addr
        for _ in range(probes):
            f = lo >> shift
            last = (lo + size - 1) >> shift
            append(last - f + 1)
            counts[f - first_g] += 1
            for line in range(f + 1, last + 1):
                counts[line - first_g] += 1
            lo += spacing
        lines = []
        vis = []
        for j, v in enumerate(counts):
            if v:
                lines.append(first_g + j)
                vis.append(v)
        return tuple(pv), lines, tuple(vis), sum(pv), nloads

    def load_run(
        self,
        addr: int,
        nbytes: int,
        probes: int,
        spacing: Optional[int] = None,
        header_nbytes: int = 0,
    ) -> None:
        """Charge a contiguous scan run of *probes* equal-stride loads.

        Bit-identical to the per-probe default loop (the
        :class:`~repro.matching.port.MemoryPort` contract): one heater
        catch-up covers the whole run, then the per-probe charges are
        replayed — arithmetically when every line of the run is a clean L1
        hit and no heater pass can fall inside it (see
        :meth:`~repro.mem.hierarchy.MemoryHierarchy.access_run`), probe by
        probe through the ordinary load path otherwise. A header probe —
        *header_nbytes* ending exactly at *addr* — joins the run as its
        leading probe; it keeps its own compare+interference charge, so it
        costs what a separate header load would.
        """
        if probes <= 0:
            if header_nbytes:
                self._load_now(addr - header_nbytes, header_nbytes)
            return
        heater = self.heater
        if heater is None:
            interference = 0.0
        else:
            heater.catch_up(self.clock.now)
            interference = heater.config.interference_cycles if heater.saturated else 0.0
        # Raw-argument key: a cache hit also vouches for validation.
        key = (addr, nbytes, probes, spacing, header_nbytes)
        geometry = self._geometry
        geo = geometry.get(key)
        if geo is None:
            size, rem = divmod(nbytes, probes)
            if rem or size <= 0:
                raise ConfigurationError(
                    f"load_run of {nbytes} bytes is not {probes} equal strides"
                )
            sp = size if spacing is None else spacing
            if sp < size:
                raise ConfigurationError(
                    f"load_run spacing {sp} overlaps {size}-byte probes"
                )
            header = (addr - header_nbytes, header_nbytes) if header_nbytes else None
            if len(geometry) >= _GEOMETRY_CACHE_MAX:
                geometry.clear()
            geo = geometry[key] = self._run_geometry(header, addr, size, probes, sp) + (
                size,
                sp,
            )
        pv, lines, vis, total, nloads, size, sp = geo
        self.runs += 1
        self.run_probes += nloads
        if self._run_lat_valid:
            lat = self._run_lat
        else:
            lat = self._run_lat = self.hierarchy.run_latency(self.core_id, self.mem_class)
            self._run_lat_valid = True
        cc = self.compare_cycles + interference
        fast = lat is not None
        if fast:
            mem = total * lat
            if heater is not None:
                # The whole run is charged under one catch-up: legal only
                # when no pass could have started at any clock value the
                # per-probe replay would have synced at (all are below this
                # projection; the +1.0 slack dominates float summation
                # error by orders of magnitude).
                projected = self.clock.now + mem + nloads * cc + 1.0
                fast = heater.quiescent_until(projected)
            if fast:
                fast = self.hierarchy.access_run(self.core_id, lines, vis, total)
        if not fast:
            # Replay probe by probe: trivially bit-identical; re-syncing the
            # heater per probe is what the projection above could not rule
            # out.
            load = self._load_now
            if header_nbytes:
                load(addr - header_nbytes, header_nbytes)
            lo = addr
            for _ in range(probes):
                load(lo, size)
                lo += sp
            return
        self.fast_runs += 1
        ls = self.level_stats
        now = self.clock.now
        lc = self.load_cycles
        lsc = ls.cycles
        delta = mem + nloads * cc
        if (
            cc.is_integer()
            and now.is_integer()
            and lc.is_integer()
            and lsc.is_integer()
            and now + delta < _EXACT_LIMIT
            and lc + delta < _EXACT_LIMIT
            and lsc + mem < _EXACT_LIMIT
        ):
            # Every per-probe addend (v*lat, cc) and every partial sum is an
            # integer-valued float below 2**53: the accumulation is exact,
            # so any association — including this one-shot fold — is
            # bit-identical to the per-probe order.
            now += delta
            lc += delta
            lsc += mem
        else:
            for v in pv:
                c = v * lat
                lsc += c
                c += cc
                now += c
                lc += c
        self.clock.now = now
        self.load_cycles = lc
        ls.cycles = lsc
        ls.loads += nloads
        ls.lines += total
        ls.l1_hits += total
        self.loads += nloads
        # Leave the scratch transaction as the last per-probe load would.
        tx = self._tx
        v = pv[-1]
        tx.lines = v
        tx.cycles = v * lat
        tx.netcache_hits = 0
        tx.l1_hits = v
        tx.l2_hits = 0
        tx.l3_hits = 0
        tx.dram_fills = 0
        tx.prefetch_covered = 0
        tx.penalty_cycles = 0.0

    def store(self, addr: int, nbytes: int) -> None:
        """Record/charge a store of *nbytes* at *addr*."""
        interference = self._sync_heater()
        tx = self.hierarchy.write_tx(self.core_id, addr, nbytes, self.mem_class, out=self._tx)
        cycles = tx.lines * self.store_cycles + interference
        self.clock.advance(cycles)
        self.stores += 1
        self.store_cycles_total += cycles

    def hint(self, addr: int, nbytes: int) -> None:
        """Middleware prefetch hint (no-op unless software_prefetch is on)."""
        if not self.software_prefetch or nbytes <= 0:
            return
        hier = self.hierarchy
        core = hier.cores[self.core_id]
        first = addr >> LINE_SHIFT
        last = (addr + nbytes - 1) >> LINE_SHIFT
        cycles = 0.0
        for line in range(first, last + 1):
            if core.l1.contains(line) or core.l2.contains(line):
                continue
            penalty = (1.0 - self.sw_prefetch_coverage) * (
                hier.l3.latency if hier.l3.contains(line) else hier.dram_latency
            )
            core.l2.fill(line, self.mem_class, prefetched=True, penalty=penalty)
            hier.l3.fill(line, self.mem_class, prefetched=True)
            cycles += self.sw_prefetch_issue_cycles
            self.sw_prefetches += 1
        if cycles:
            self.clock.advance(cycles)

    # -- measurement helpers ------------------------------------------------------

    def charge(self, cycles: float) -> None:
        """Charge arbitrary non-memory work to the engine's clock."""
        self.clock.advance(cycles)

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """Run *fn* and return ``(result, cycles_elapsed)`` on this clock."""
        start = self.clock.now
        result = fn()
        return result, self.clock.now - start

    def mem_stats(self) -> LevelStats:
        """Per-level hit attribution over this engine's load transactions."""
        return self.level_stats

    def reset_counters(self) -> None:
        """Zero the engine's load/store/prefetch counters and attribution."""
        self.loads = 0
        self.stores = 0
        self.sw_prefetches = 0
        self.runs = 0
        self.run_probes = 0
        self.fast_runs = 0
        self.load_cycles = 0.0
        self.store_cycles_total = 0.0
        self._run_lat_valid = False
        self.level_stats.reset()
