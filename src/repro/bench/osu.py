"""The modified OSU bandwidth/latency benchmark (paper section 4.1).

The paper's four modifications, all reproduced here:

1. *"We added an MPI barrier to ensure that recvs were preposted"* — the
   measured arrival always finds its receive in the PRQ (fast path); posting
   cost is excluded from the timed section.
2. *"We cleared the cache between each iteration"* — ``hierarchy.flush()``
   before every measured message, emulating the compute phase of a bulk
   synchronous application.
3. *"We pinned the master thread to a specified core"* — the engine is bound
   to core 0; the heater (if any) to another core of the same socket.
4. *"We added unmatched entries to the queue to evaluate performance with
   different receive queue lengths"* — ``search_depth`` decoy entries are
   posted ahead of the real receive, so every match must traverse them.

Per-message time combines the cycle-accounted match traversal, the
library's fixed software overhead, the payload copy, and the fabric: with a
windowed bandwidth benchmark the wire and the CPU pipeline overlap, so
``t_msg = max(serialization, processing)`` and bandwidth = bytes / t_msg.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.analysis.stats import TrialStats
from repro.arch.spec import ArchSpec
from repro.errors import ConfigurationError
from repro.hotcache.heater import Heater, HeaterConfig
from repro.hotcache.wrapper import HeatedQueue
from repro.matching.engine import MatchEngine
from repro.matching.entry import UMQ_ENTRY_BYTES
from repro.matching.envelope import Envelope
from repro.matching.factory import make_queue
from repro.mem.cache import WayPartition
from repro.mem.hierarchy import NetworkCacheConfig
from repro.mem.result import LevelStats
from repro.mpi.message import Message
from repro.mpi.process import MpiProcess
from repro.net.link import LinkSpec, QLOGIC_QDR

#: The paper's message-size axis (Figures 4a/5a/6a/7a): 1 B .. 1 MiB.
MSG_SIZE_SWEEP = tuple(1 << i for i in range(0, 21))

#: The paper's queue-search-length axis (Figures 4b/c .. 7b/c): 1 .. 8192.
SEARCH_LENGTH_SWEEP = tuple(1 << i for i in range(0, 14))

_DECOY_SRC = 7
_MATCH_SRC = 3
_MIB = 1024.0 * 1024.0


@dataclass
class OsuConfig:
    """One benchmark configuration (one point of a figure panel)."""

    arch: ArchSpec
    link: LinkSpec = QLOGIC_QDR
    queue_family: str = "baseline"
    heated: bool = False
    heater_config: Optional[HeaterConfig] = None
    search_depth: int = 0
    msg_bytes: int = 1
    iterations: int = 10
    warmup: int = 2
    seed: int = 0
    fragmented: bool = False
    partition: Optional[WayPartition] = None
    network_cache: Optional[NetworkCacheConfig] = None
    prefetch_enabled: bool = True
    #: Prefetch-unit configuration (``default``/``none``/``chase``/
    #: ``chase-only``); None falls back to the *prefetch_enabled* boolean.
    prefetcher: Optional[str] = None

    def variant_label(self) -> str:
        """Figure-style label for this configuration (e.g. 'HC+LLA')."""
        base = self.queue_family
        if self.heated:
            return f"HC+{base}" if base != "baseline" else "HC"
        return base


@dataclass
class BandwidthPoint:
    """One measured point: bandwidth plus its cost decomposition."""

    config_label: str
    msg_bytes: int
    search_depth: int
    mibps: float
    mibps_std: float
    latency_us: float
    match_cycles: Optional[TrialStats] = field(repr=False, default=None)
    network_bound: bool = False
    # Per-level hit attribution of the measured (post-warmup) iterations'
    # load transactions; None when the producer predates the telemetry.
    mem_stats: Optional[LevelStats] = field(repr=False, default=None)


class _OsuSession:
    """Shared construction for the bandwidth and latency benchmarks."""

    def __init__(self, cfg: OsuConfig) -> None:
        if cfg.search_depth < 0:
            raise ConfigurationError("search_depth must be >= 0")
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.hier = cfg.arch.build_hierarchy(
            partition=cfg.partition,
            network_cache=cfg.network_cache,
            rng=np.random.default_rng(cfg.seed + 1),
            prefetch_enabled=cfg.prefetch_enabled,
            prefetcher=cfg.prefetcher,
        )
        self.engine = MatchEngine(self.hier)
        prq = make_queue(
            cfg.queue_family,
            port=self.engine,
            rng=rng,
            fragmented=cfg.fragmented,
            arena_base=0x4000_0000,
        )
        umq = make_queue(
            cfg.queue_family,
            entry_bytes=UMQ_ENTRY_BYTES,
            port=self.engine,
            rng=rng,
            fragmented=cfg.fragmented,
            arena_base=0x2000_0000,
        )
        self.heater: Optional[Heater] = None
        if cfg.heated:
            hc = cfg.heater_config
            if hc is None:
                # The original (locked) design heats the baseline list; the
                # LLA runs use the dedicated element pool (section 4.3).
                hc = HeaterConfig(locked=cfg.queue_family == "baseline")
            self.heater = Heater(self.hier, cfg.arch.ghz, hc)
            prq = HeatedQueue(prq, self.heater, self.engine)
        self.prq = prq
        self.proc = MpiProcess(0, prq, umq, clock=self.engine.clock)
        self._tag = 0

    def prepopulate(self) -> None:
        """Post the decoy receives that set the search depth.

        The heater sleeps while the list is built (the application posts
        these long before the measured communication phase) and starts fresh
        once the queue is in place.
        """
        if self.heater is not None:
            self.heater.enabled = False
        for _ in range(self.cfg.search_depth):
            self._tag += 1
            self.proc.post_recv(src=_DECOY_SRC, tag=self._tag, cid=0)
        if self.heater is not None:
            self.heater.enabled = True
            self.heater.reset(self.engine.clock.now)

    def one_message(self, nbytes: int) -> float:
        """Post + deliver one matching message; returns match cycles."""
        self._tag += 1
        tag = self._tag
        # Pre-posted receive (outside the timed section: the barrier is the
        # paper's way of guaranteeing this ordering).
        self.proc.post_recv(src=_MATCH_SRC, tag=tag, cid=0, nbytes=nbytes)
        # The compute phase destroys cache contents...
        self.hier.flush()
        # ...but the heater has been running during it.
        if self.heater is not None:
            self.prq.prepare_phase()
        start = self.engine.clock.now
        req = self.proc.handle_arrival(
            Message(Envelope(src=_MATCH_SRC, tag=tag, cid=0), nbytes)
        )
        if req is None:
            raise ConfigurationError("benchmark message did not match its recv")
        return self.engine.clock.now - start


def _per_message_processing_cycles(cfg: OsuConfig, match_cycles: float) -> float:
    arch = cfg.arch
    return match_cycles + arch.sw_overhead_cycles + arch.copy_cycles_per_byte * cfg.msg_bytes


def osu_bandwidth(cfg: OsuConfig) -> BandwidthPoint:
    """The modified osu_bw: bandwidth at one (msg size, search depth).

    The fixed-grid iteration loop lives in
    :meth:`~repro.traffic.driver.TrafficDriver.run_closed` — the shared
    closed-loop substrate of the traffic subsystem. ``osu_bandwidth_legacy``
    retains the historical bespoke loop and the equivalence suite pins the
    two repr-identical.
    """
    from repro.traffic.driver import TrafficDriver

    session = _OsuSession(cfg)
    session.prepopulate()
    match_samples = TrafficDriver(session).run_closed(
        nbytes=cfg.msg_bytes, warmup=cfg.warmup, iterations=cfg.iterations
    )
    return _bandwidth_point(cfg, match_samples, session)


def osu_bandwidth_legacy(cfg: OsuConfig) -> BandwidthPoint:
    """The pre-traffic-subsystem bespoke loop (equivalence reference)."""
    session = _OsuSession(cfg)
    session.prepopulate()
    match_samples: List[float] = []
    for i in range(cfg.warmup + cfg.iterations):
        if i == cfg.warmup:
            # Attribution covers only the measured iterations.
            session.engine.level_stats.reset()
        cycles = session.one_message(cfg.msg_bytes)
        if i >= cfg.warmup:
            match_samples.append(cycles)
    return _bandwidth_point(cfg, match_samples, session)


def _bandwidth_point(
    cfg: OsuConfig, match_samples: List[float], session: _OsuSession
) -> BandwidthPoint:
    """Reduce measured match-cycle samples to one BandwidthPoint."""
    stats = TrialStats.from_values(match_samples)
    proc_cycles = _per_message_processing_cycles(cfg, stats.mean)
    proc_us = cfg.arch.ns(proc_cycles) / 1000.0
    wire_us = cfg.link.serialization_us(cfg.msg_bytes)
    t_msg_us = max(proc_us, wire_us)
    # Spread of bandwidth follows the spread of the processing time when
    # processing dominates (zero when the wire dominates).
    hi = max(
        cfg.arch.ns(_per_message_processing_cycles(cfg, stats.mean + stats.std)) / 1000.0,
        wire_us,
    )
    mibps = cfg.msg_bytes / t_msg_us / _MIB * 1e6
    mibps_lo = cfg.msg_bytes / hi / _MIB * 1e6
    return BandwidthPoint(
        config_label=cfg.variant_label(),
        msg_bytes=cfg.msg_bytes,
        search_depth=cfg.search_depth,
        mibps=mibps,
        mibps_std=abs(mibps - mibps_lo),
        latency_us=cfg.link.latency_us + t_msg_us,
        match_cycles=stats,
        network_bound=wire_us >= proc_us,
        mem_stats=session.engine.level_stats.copy(),
    )


def osu_latency(cfg: OsuConfig) -> float:
    """The modified osu_latency: one-way half round trip in microseconds."""
    from repro.traffic.driver import TrafficDriver

    session = _OsuSession(cfg)
    session.prepopulate()
    match_samples = TrafficDriver(session).run_closed(
        nbytes=cfg.msg_bytes,
        warmup=cfg.warmup,
        iterations=cfg.iterations,
        reset_stats=False,
    )
    samples = [
        cfg.link.transfer_us(cfg.msg_bytes)
        + cfg.arch.ns(_per_message_processing_cycles(cfg, cycles)) / 1000.0
        for cycles in match_samples
    ]
    return TrialStats.from_values(samples).mean


def osu_message_rate(cfg: OsuConfig) -> float:
    """The osu_mbw_mr-style metric: matched messages per second.

    With the windowed pipeline, steady-state rate is the inverse of the
    per-message bottleneck (processing or wire, whichever is slower)."""
    point = osu_bandwidth(cfg)
    if not point.mibps:
        return 0.0
    t_msg_us = point.msg_bytes / (point.mibps * _MIB) * 1e6
    return 1e6 / t_msg_us


def sweep_points(cfg: OsuConfig, *, msg_sizes=None, depths=None) -> List[BandwidthPoint]:
    """Run a family of configs varying message size and/or search depth."""
    points = []
    for size in msg_sizes if msg_sizes is not None else [cfg.msg_bytes]:
        for depth in depths if depths is not None else [cfg.search_depth]:
            points.append(osu_bandwidth(replace(cfg, msg_bytes=size, search_depth=depth)))
    return points
