"""The heater thread model.

The heater is simulated *lazily*: instead of interleaving its loop with the
matching engine instruction by instruction, it records when passes happen and
applies them to the shared cache whenever the matching engine is about to
touch memory (:meth:`Heater.catch_up`, invoked by the engine before every
load/store). Because the only channels between the heater and the matching
core are (a) shared-cache contents and (b) the region-list lock windows, this
lazy schedule is observationally equivalent to a step-by-step interleaving,
and deterministic.

Timing model of one pass starting at ``t``:

* walking the region list costs ``region_admin_cycles`` per region (pointer
  chase through the list itself) plus ``touch_cycles_per_line`` per line
  touched (the paper's heater adds the first 4 bytes of each line to a
  throwaway sum);
* the pass holds the region-list spin lock for its whole duration when the
  locked (original) variant is active;
* the next pass starts ``period_cycles`` after the *start* of this one, or
  immediately after this one ends if it overran the period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.errors import ConfigurationError
from repro.mem.alloc import Allocation
from repro.mem.cache import CLS_NETWORK
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.result import AccessResult
from repro.hotcache.regions import RegionSet
from repro.sim.resources import SpinLock


@dataclass(frozen=True)
class HeaterConfig:
    """Construction knobs for :class:`Heater`.

    ``period_ns`` is the sleep between passes ("it then sleeps for an
    arbitrary number of nanoseconds and repeats the process"). ``locked``
    selects the original spin-locked region list; the pool-backed auxiliary
    design of section 4.3 corresponds to ``locked=False``.
    """

    period_ns: float = 2000.0
    core_id: int = 1
    locked: bool = True
    touch_cycles_per_line: float = 2.0
    region_admin_cycles: float = 12.0
    # MPI-side costs of maintaining the heater's region list per queue
    # operation in the locked design (list search + insert/delete).
    register_cycles: float = 60.0
    deregister_cycles: float = 80.0
    # Shared-cache bandwidth interference charged per matching-core memory
    # access while the heater is *saturated* (its pass takes longer than its
    # period, so it is touching the LLC continuously). This is the paper's
    # third challenge — "the hot caching thread utilizes processor
    # resources, occupying both cycles on a core and lines in cache".
    interference_cycles: float = 2.0
    # Spin locks are unfair: a saturated heater re-acquires the region-list
    # lock the instant it releases it, so the matching core loses the race
    # about half the time and waits this many expected extra full passes per
    # register/deregister. Combined with high region churn this is the
    # contention that makes hot caching a net loss for FDS at scale
    # (section 4.5: "we must remove elements from the hot caching list
    # before MPI can deallocate them").
    saturated_retry_passes: float = 1.0


class Heater:
    """Periodic region toucher keeping match state LLC-resident.

    Each pass is one hierarchy transaction:
    :meth:`~repro.mem.hierarchy.MemoryHierarchy.touch_shared_pass` over the
    whole region list, in the list's order.
    """

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        ghz: float,
        config: Optional[HeaterConfig] = None,
        *,
        region_provider: Optional[Callable[[], Iterable[Allocation]]] = None,
        mem_class: int = CLS_NETWORK,
    ) -> None:
        self.config = config if config is not None else HeaterConfig()
        if self.config.core_id >= hierarchy.n_cores:
            raise ConfigurationError(
                f"heater core {self.config.core_id} outside hierarchy "
                f"({hierarchy.n_cores} cores)"
            )
        if self.config.period_ns <= 0:
            raise ConfigurationError("heater period must be positive")
        self.hierarchy = hierarchy
        self.ghz = ghz
        self.period_cycles = self.config.period_ns * ghz
        self.mem_class = mem_class
        self.regions = RegionSet()
        # When a provider is given the heater re-reads the full region set at
        # the start of every pass (models the heater walking MPI's live
        # list); explicit register/deregister is then only charged for its
        # lock/admin cost.
        self.region_provider = region_provider
        self.lock = SpinLock("hotcache-region-list")
        self.next_pass_start = 0.0
        self.passes = 0
        self.lines_touched = 0
        # Split of every touched line: already LLC-resident (recency refresh,
        # the heater doing its job) vs installed from DRAM (the heater paying
        # to rebuild state a flush destroyed).
        self.lines_refreshed = 0
        self.lines_installed = 0
        self.busy_cycles = 0.0
        self.last_pass_duration = 0.0
        self.last_pass_lines = 0
        self.last_pass_refreshed = 0
        self.enabled = True
        self._tx = AccessResult()  # scratch for touch transactions

    # -- pass machinery ------------------------------------------------------

    def catch_up(self, now: float) -> None:
        """Apply every pass that should have started by *now*."""
        if not self.enabled:
            return
        while self.next_pass_start <= now:
            self._run_pass(self.next_pass_start)

    def quiescent_until(self, horizon: float) -> bool:
        """True when no pass can start at any clock value below *horizon*.

        The engine's scan-run path charges a whole run under one
        :meth:`catch_up`; that is only equivalent to the per-probe replay
        (which re-syncs before every probe) when every intermediate clock
        value the replay would sync at stays below the next pass start.
        Callers must have already called :meth:`catch_up` for the current
        time; this is then a pure inspection.
        """
        return not self.enabled or self.next_pass_start > horizon

    def force_pass(self, now: float) -> None:
        """Run one pass immediately (e.g. right after a cache-clearing
        compute phase, before the communication phase begins)."""
        if not self.enabled:
            return
        self.catch_up(now)
        self._run_pass(max(now, self.next_pass_start - self.period_cycles))

    def _run_pass(self, start: float) -> None:
        cfg = self.config
        if self.region_provider is not None:
            self.regions.replace_all(self.region_provider())
        duration = 0.0
        # One admin add per region (zero-size ones too), in list order.
        for _region in self.regions:
            duration += cfg.region_admin_cycles
        tx = self.hierarchy.touch_shared_pass(cfg.core_id, self.regions, self.mem_class, self._tx)
        lines = tx.lines
        refreshed = tx.l3_hits
        installed = tx.dram_fills
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

    # -- MPI-side region maintenance -------------------------------------------

    def on_register(self, region: Optional[Allocation], now: float) -> float:
        """MPI registers a region (a new queue node). Returns cycles the
        matching core spends doing so (admin + possible lock wait)."""
        if not self.enabled:
            return 0.0
        if region is not None and self.region_provider is None:
            self.regions.add(region)
        if not self.config.locked:
            return 0.0
        wait = self.lock.acquire(now)
        wait += self._starvation_penalty()
        return wait + self.config.register_cycles

    def on_deregister(self, region: Optional[Allocation], now: float) -> float:
        """MPI removes a region before freeing it. In the locked design this
        is the expensive path: it must win the spin lock against a possibly
        mid-pass heater."""
        if not self.enabled:
            return 0.0
        if region is not None and self.region_provider is None:
            self.regions.discard(region)
        if not self.config.locked:
            return 0.0
        wait = self.lock.acquire(now)
        wait += self._starvation_penalty()
        return wait + self.config.deregister_cycles

    def _starvation_penalty(self) -> float:
        """Extra waits from losing spin-lock races to a saturated heater."""
        if not self.saturated:
            return 0.0
        return self.config.saturated_retry_passes * self.last_pass_duration

    # -- introspection --------------------------------------------------------

    @property
    def saturated(self) -> bool:
        """True when a pass takes longer than the period: the heater never
        sleeps, so it contends with the matching core continuously."""
        return self.enabled and self.last_pass_duration >= self.period_cycles

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the heater spends touching (vs sleeping)."""
        if self.passes == 0:
            return 0.0
        horizon = self.next_pass_start
        return min(1.0, self.busy_cycles / horizon) if horizon > 0 else 0.0

    @property
    def refreshed_per_pass(self) -> float:
        """Mean lines refreshed (found LLC-resident) per completed pass."""
        return self.lines_refreshed / self.passes if self.passes else 0.0

    def pass_stats(self) -> dict:
        """Pass counters as a plain dict (reporter/CLI friendly)."""
        return {
            "passes": self.passes,
            "lines_touched": self.lines_touched,
            "lines_refreshed": self.lines_refreshed,
            "lines_installed": self.lines_installed,
            "refreshed_per_pass": self.refreshed_per_pass,
            "last_pass_lines": self.last_pass_lines,
            "last_pass_refreshed": self.last_pass_refreshed,
            "busy_cycles": self.busy_cycles,
            "duty_cycle": self.duty_cycle,
            "saturated": self.saturated,
        }

    def reset(self, now: float = 0.0) -> None:
        """Clear accumulated state/counters."""
        self.next_pass_start = now
        self.passes = 0
        self.lines_touched = 0
        self.lines_refreshed = 0
        self.lines_installed = 0
        self.busy_cycles = 0.0
        self.last_pass_lines = 0
        self.last_pass_refreshed = 0
        self.lock.reset_stats()
