"""Heater deployment policies (paper section 3.2's mitigation strategies).

The paper sketches three ways to keep hot caching from interfering with the
application's compute phases:

1. **Collaborative pause/resume** — "the heater can collaborate with the
   application to pause when needed. The challenge with this approach is to
   resume the heater in time to ensure the match list is in cache before the
   first access in a communication phase."
   :class:`CollaborativeHeater` implements exactly that contract: paused
   during compute, resumed ``lead_ns`` before the phase starts; if the lead
   is shorter than one pass, only a prefix of the regions is warm when the
   phase begins.

2. **Defective-core heater** — "gain access to defective cores on the die
   that still have the potential to load data from memory into a shared
   cache ... a core that is turned off for yield purposes, that is still
   capable of load/store operations". :class:`DefectiveCoreHeater`: zero
   interference with live cores (it owns no shared execution resources), but
   a degraded touch rate — the part was binned for a reason.

3. **A dedicated network cache** — modelled in hardware instead of software:
   :class:`repro.mem.hierarchy.NetworkCacheConfig`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.hotcache.heater import Heater, HeaterConfig
from repro.mem.layout import line_span


class CollaborativeHeater(Heater):
    """A heater that pauses during compute and resumes just before comm.

    While paused it runs no passes at all (zero interference, zero lock
    windows). :meth:`resume_before_phase` models the application calling it
    ``lead_ns`` ahead of the communication phase: the heater gets that much
    time to re-warm the regions, covering them in registration order. A
    short lead leaves the tail of the region set cold — the "challenge" the
    paper calls out, measurable as first-access misses.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.paused = False
        self.partial_passes = 0

    def pause(self) -> None:
        """Application entering a compute phase: stop heating."""
        self.paused = True

    def catch_up(self, now: float) -> None:
        """Apply every heater pass due by *now* (no-op while paused)."""
        if self.paused:
            self.next_pass_start = max(self.next_pass_start, now)
            return
        super().catch_up(now)

    def resume_before_phase(self, phase_start: float, lead_ns: float) -> float:
        """Resume ``lead_ns`` (wall time) before *phase_start*.

        Returns the fraction of the heated footprint that is warm when the
        phase begins (1.0 = fully re-warmed in time).
        """
        if lead_ns < 0:
            raise ConfigurationError(f"negative lead time: {lead_ns}")
        self.paused = False
        lead_cycles = lead_ns * self.ghz
        if self.region_provider is not None:
            self.regions.replace_all(self.region_provider())
        cfg = self.config
        # How much touching fits into the lead window? The budget never
        # depends on what a touch finds, so the regions that fit are picked
        # first and then touched as one pass.
        budget = lead_cycles
        warmed_lines = 0
        total_lines = 0
        duration = 0.0
        warmed = []
        for region in self.regions:
            lines = line_span(region.addr, region.size)
            total_lines += lines
            cost = cfg.region_admin_cycles + lines * cfg.touch_cycles_per_line
            if budget >= cost:
                warmed.append(region)
                warmed_lines += lines
                budget -= cost
                duration += cost
        tx = self.hierarchy.touch_shared_pass(cfg.core_id, warmed, self.mem_class, self._tx)
        refreshed = tx.l3_hits
        installed = tx.dram_fills
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


class DefectiveCoreHeater(Heater):
    """A heater on a yield-harvested core: free, but slow.

    The core was fused off for a reason — we model a degraded clock via a
    touch-rate multiplier. Because it owns no shared execution resources of
    any live core, its saturation causes no per-access interference (the
    LLC capacity it occupies is still real and emergent).
    """

    DEFAULT_SLOWDOWN = 3.0

    def __init__(
        self,
        hierarchy,
        ghz: float,
        config: Optional[HeaterConfig] = None,
        *,
        slowdown: float = DEFAULT_SLOWDOWN,
        **kwargs,
    ) -> None:
        if slowdown < 1.0:
            raise ConfigurationError(f"slowdown must be >= 1, got {slowdown}")
        cfg = config if config is not None else HeaterConfig()
        cfg = replace(
            cfg,
            touch_cycles_per_line=cfg.touch_cycles_per_line * slowdown,
            region_admin_cycles=cfg.region_admin_cycles * slowdown,
            interference_cycles=0.0,  # no shared pipeline with live cores
        )
        super().__init__(hierarchy, ghz, cfg, **kwargs)
        self.slowdown = slowdown
