"""Proxy-application machinery.

:class:`MatchPhaseSimulator` runs one rank's matching engine through
communication phases whose *shape* (list depth, match positions, message
sizes/counts) each application dictates. Per-message costs are measured on
the cycle-accounted substrate for a sample of messages and scaled to the
full message volume; compute time comes from the app's declarative model.

The result is an end-to-end runtime estimate whose *relative* differences
between queue organizations are grounded in the simulated memory system —
which is exactly the quantity Figures 8-10 report.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.arch.spec import ArchSpec
from repro.errors import ConfigurationError
from repro.hotcache.heater import Heater, HeaterConfig
from repro.hotcache.wrapper import HeatedQueue
from repro.matching.engine import MatchEngine
from repro.matching.envelope import Envelope
from repro.matching.factory import make_queue
from repro.mpi.message import Message
from repro.mpi.process import MpiProcess
from repro.net.link import LinkSpec, MELLANOX_QDR


@dataclass
class AppConfig:
    """How to run a proxy app."""

    arch: ArchSpec
    nranks: int
    link: LinkSpec = MELLANOX_QDR
    queue_family: str = "baseline"
    heated: bool = False
    heater_config: Optional[HeaterConfig] = None
    fragmented: bool = False
    seed: int = 0
    #: Messages actually pushed through the simulated engine per phase; the
    #: measured mean cost is scaled to the app's full per-phase volume.
    sample_messages: int = 12

    def variant_label(self) -> str:
        """Figure-style label for this configuration (e.g. 'HC+LLA')."""
        base = "LLA" if self.queue_family.startswith("lla") else self.queue_family
        if self.queue_family == "lla-large":
            base = "LLA-Large"
        if self.heated:
            return f"HC+{base}" if base != "baseline" else "HC"
        return base


@dataclass
class AppResult:
    """Modelled execution time and its decomposition."""

    app: str
    variant: str
    nranks: int
    runtime_s: float
    compute_s: float
    comm_s: float
    match_cycles_per_msg: float
    details: Dict[str, float] = field(default_factory=dict)


@dataclass
class PhaseShape:
    """The matching workload of one communication phase (per rank)."""

    prq_depth: int  # steady match-list length
    messages: int  # messages crossing the matching engine
    msg_bytes: int
    #: match position as a fraction of the live list, sampled per message
    match_position_low: float = 0.0
    match_position_high: float = 1.0
    #: Additional post/free pairs accompanying each message (receives for
    #: other peers being posted and retired by unsynchronized threads).
    #: Under hot caching's locked region list every one of them crosses the
    #: heater's lock — the FDS-at-scale contention (section 4.5).
    churn_ops_per_message: float = 0.0


class MatchPhaseSimulator:
    """Drives one rank's matching engine through app-shaped phases."""

    DECOY_SRC = 11
    _BASE_TAG = 1_000_000

    def __init__(self, cfg: AppConfig) -> None:
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.hier = cfg.arch.build_hierarchy(rng=np.random.default_rng(cfg.seed + 1))
        self.engine = MatchEngine(self.hier)
        prq = make_queue(
            cfg.queue_family,
            port=self.engine,
            rng=np.random.default_rng(cfg.seed + 2),
            fragmented=cfg.fragmented,
            arena_base=0x4000_0000,
        )
        self.heater: Optional[Heater] = None
        if cfg.heated:
            hc = cfg.heater_config
            if hc is None:
                hc = HeaterConfig(locked=cfg.queue_family == "baseline")
            self.heater = Heater(self.hier, cfg.arch.ghz, hc)
            prq = HeatedQueue(prq, self.heater, self.engine)
        self.prq = prq
        umq = make_queue(
            cfg.queue_family,
            entry_bytes=16,
            port=self.engine,
            rng=np.random.default_rng(cfg.seed + 3),
            arena_base=0x2000_0000,
        )
        self.proc = MpiProcess(0, prq, umq, clock=self.engine.clock)
        self._next_tag = self._BASE_TAG
        self._live_tags: List[int] = []

    # -- queue shaping --------------------------------------------------------

    def _post_decoy(self) -> None:
        self._next_tag += 1
        self.proc.post_recv(src=self.DECOY_SRC, tag=self._next_tag, cid=0)
        self._live_tags.append(self._next_tag)

    def set_depth(self, depth: int) -> None:
        """Grow the PRQ to *depth* live entries (heater paused meanwhile)."""
        if depth < 0:
            raise ConfigurationError("depth must be >= 0")
        if self.heater is not None:
            self.heater.enabled = False
        while len(self._live_tags) < depth:
            self._post_decoy()
        if self.heater is not None:
            self.heater.enabled = True
            self.heater.reset(self.engine.clock.now)

    # -- one phase ---------------------------------------------------------------

    def run_phase(self, shape: PhaseShape) -> Dict[str, float]:
        """Simulate one phase; returns mean per-message cost components.

        Between any two messages of a real application sit compute kernels
        that destroy the cached match state (the paper's BSP methodology
        clears the cache for exactly this reason), so every sampled message
        is measured cold — with the heater, if any, having re-warmed the
        shared level in the background.
        """
        self.set_depth(shape.prq_depth)
        samples = min(self.cfg.sample_messages, shape.messages)
        if samples == 0:
            return {"match_cycles": 0.0, "samples": 0.0}
        total = 0.0
        for _ in range(samples):
            self.hier.flush()
            if self.heater is not None:
                self.prq.prepare_phase()
            # Pick a live entry at the app's characteristic position; churn
            # keeps the depth constant (hole + append, FDS-style).
            frac = self.rng.uniform(shape.match_position_low, shape.match_position_high)
            pos = min(len(self._live_tags) - 1, int(frac * len(self._live_tags)))
            tag = self._live_tags.pop(pos)
            start = self.engine.clock.now
            req = self.proc.handle_arrival(
                Message(Envelope(src=self.DECOY_SRC, tag=tag, cid=0), shape.msg_bytes)
            )
            if req is None:
                raise ConfigurationError("app message failed to match")
            # Reposting the consumed receive is part of the application's
            # per-message critical path (and, under hot caching, where the
            # region-registration lock cost lands).
            self._post_decoy()
            # High-churn applications post and retire other receives around
            # every message; with a locked heater region list each pair
            # crosses the lock.
            if self.heater is not None and shape.churn_ops_per_message:
                now = self.engine.clock.now
                ops = int(round(shape.churn_ops_per_message))
                for _ in range(ops):
                    self.engine.charge(self.heater.on_register(None, self.engine.clock.now))
                    self.engine.charge(self.heater.on_deregister(None, self.engine.clock.now))
            total += self.engine.clock.now - start
        return {"match_cycles": total / samples, "samples": float(samples)}


class ProxyApp(ABC):
    """Base class: subclasses declare their workload shape and compute."""

    name = "abstract"

    #: Phases simulated to estimate per-message cost.
    measured_phases = 2

    @abstractmethod
    def phase_shape(self, cfg: AppConfig, rng: np.random.Generator) -> PhaseShape:
        """The matching workload of one communication phase."""

    @abstractmethod
    def phases_total(self, cfg: AppConfig) -> int:
        """Communication phases over the whole run."""

    @abstractmethod
    def compute_seconds(self, cfg: AppConfig) -> float:
        """Total non-communication compute time for the whole run."""

    def run(self, cfg: AppConfig) -> AppResult:
        """Execute and return the result object."""
        sim = MatchPhaseSimulator(cfg)
        rng = np.random.default_rng(cfg.seed + 17)
        match_cycles = []
        shape = self.phase_shape(cfg, rng)
        for _ in range(self.measured_phases):
            stats = sim.run_phase(shape)
            match_cycles.append(stats["match_cycles"])
        mean_match = float(np.mean(match_cycles))
        arch, link = cfg.arch, cfg.link
        proc_us = arch.ns(
            mean_match + arch.sw_overhead_cycles + arch.copy_cycles_per_byte * shape.msg_bytes
        ) / 1000.0
        wire_us = link.serialization_us(shape.msg_bytes)
        per_msg_us = max(proc_us, wire_us)
        phases = self.phases_total(cfg)
        comm_s = per_msg_us * shape.messages * phases * 1e-6
        compute_s = self.compute_seconds(cfg)
        return AppResult(
            app=self.name,
            variant=cfg.variant_label(),
            nranks=cfg.nranks,
            runtime_s=compute_s + comm_s,
            compute_s=compute_s,
            comm_s=comm_s,
            match_cycles_per_msg=mean_match,
            details={
                "per_msg_us": per_msg_us,
                "proc_us": proc_us,
                "wire_us": wire_us,
                "prq_depth": float(shape.prq_depth),
                "messages_per_phase": float(shape.messages),
                "phases": float(phases),
            },
        )
