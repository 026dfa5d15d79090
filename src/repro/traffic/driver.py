"""The traffic driver: simulated time advanced by an arrival process.

Two run modes share one substrate:

``run_closed``
    The historical fixed-grid loop (post recv, flush, heater phase hook,
    deliver, time the match) that every ``bench/osu.py``-style driver used
    to hand-roll. ``osu_bandwidth``/``osu_latency`` now opt into this;
    ``tests/test_traffic_equivalence.py`` pins it repr-identical to the
    retained legacy loop.

``run_open``
    The open-loop mode: a lazy Poisson/Zipf schedule from
    :mod:`repro.traffic.workload` drives the clock. The receiving
    application posts wildcard-source receives only while the engine is
    *idle* (the gap before the next arrival) and only up to ``recv_window``
    outstanding, so the service rate emerges from the engine's own matching
    and delivery costs: when arrivals outpace it, the clock falls behind the
    schedule, no idle time remains to post receives, the unexpected queue
    fills, and — with a finite ``queue_capacity`` — admission control starts
    rejecting. Heater catch-up interleaves through the existing lazy
    :meth:`~repro.hotcache.heater.Heater.quiescent_until` projection (the
    engine syncs it before every memory access), so heated open-loop runs
    need no new heater machinery. The loop handles one arrival at a time,
    and every arrival — rejected ones included — runs the full matching
    and memory path, so the hierarchy's own counters (``hier.stats()``)
    account for every access the run made.

Model notes (MODELING.md "Open-loop traffic and admission"):

* Receives use ``MPI_ANY_SOURCE`` with a concrete tag drawn from the same
  Zipf popularity as the traffic (its own named stream), so matching is
  per-tag FIFO — popular tags drain quickly, unpopular ones linger.
* Admission is evaluated when the arrival is *handled* (a full queue
  rejects the newcomer under drop-tail, or evicts its FIFO head under
  drop-head); rejected/evicted messages are lost and get no sojourn.
* Delivery charges ``sw_overhead_cycles + copy_cycles_per_byte * nbytes``
  on the engine clock per delivered message — in open loop these costs
  must be on the clock because time is what admits the next arrival.
* ``flush_every > 0`` flushes the hierarchy every so many arrivals,
  modeling bulk-synchronous compute phases; that is what gives the heater
  (``heated=True``) cache state worth defending.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.stats import QuantileReservoir
from repro.arch.spec import ArchSpec
from repro.errors import ConfigurationError, MatchingError
from repro.hotcache.heater import Heater, HeaterConfig
from repro.hotcache.wrapper import HeatedQueue
from repro.matching.bounded import ADMISSION_POLICIES
from repro.matching.engine import MatchEngine
from repro.matching.entry import UMQ_ENTRY_BYTES
from repro.matching.envelope import ANY_SOURCE, Envelope
from repro.matching.factory import make_queue
from repro.mem.result import LevelStats
from repro.mpi.message import Message
from repro.mpi.process import MpiProcess
from repro.sim.rng import RngRegistry
from repro.traffic.stats import PhaseAccumulator, TrafficStats
from repro.traffic.workload import ZipfTagPopularity, open_loop_events

#: Source rank for the never-matching decoy receives (search-depth knob).
_DECOY_SRC = 7


@dataclass
class TrafficConfig:
    """One open-loop traffic run (one point of an overload figure)."""

    arch: ArchSpec
    queue_family: str = "baseline"
    heated: bool = False
    heater_config: Optional[HeaterConfig] = None
    fragmented: bool = False
    seed: int = 0
    #: Offered load, mean arrivals per simulated microsecond.
    arrival_rate: float = 0.2
    zipf_alpha: float = 1.0
    n_tags: int = 64
    nranks: int = 1024
    msg_bytes: int = 1024
    #: Warmup then measured phase lengths, in events.
    n_warmup: int = 200
    n_measured: int = 1000
    #: UMQ capacity; None = unbounded (the historical behavior).
    queue_capacity: Optional[int] = None
    admission: str = "drop-tail"
    #: Max outstanding pre-posted receives.
    recv_window: int = 64
    #: Decoy PRQ entries every arrival must scan past (queue-depth knob).
    search_depth: int = 0
    #: Flush the hierarchy every N arrivals (0 = never); models the compute
    #: phases of a bulk-synchronous application.
    flush_every: int = 0
    #: Engine cycles charged per rejected arrival (NACK/cleanup cost).
    reject_cycles: float = 0.0
    #: Sojourn reservoir size per phase (memory/precision trade-off).
    reservoir: int = 4096

    def validate(self) -> None:
        """Raise ConfigurationError for out-of-range knobs."""
        if self.arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival_rate must be positive (events/us), got {self.arrival_rate}"
            )
        if self.zipf_alpha < 0:
            raise ConfigurationError(
                f"zipf_alpha must be >= 0, got {self.zipf_alpha}"
            )
        if self.n_tags < 1 or self.nranks < 1:
            raise ConfigurationError("n_tags and nranks must be >= 1")
        if self.n_warmup < 0 or self.n_measured < 1:
            raise ConfigurationError(
                "need n_warmup >= 0 and n_measured >= 1, got "
                f"{self.n_warmup}/{self.n_measured}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise ConfigurationError(
                f"queue_capacity must be >= 0 or None, got {self.queue_capacity}"
            )
        if self.admission not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"unknown admission policy {self.admission!r}; known: "
                + ", ".join(ADMISSION_POLICIES)
            )
        if self.recv_window < 1:
            raise ConfigurationError(
                f"recv_window must be >= 1, got {self.recv_window}"
            )
        if self.search_depth < 0 or self.flush_every < 0:
            raise ConfigurationError("search_depth and flush_every must be >= 0")

    def variant_label(self) -> str:
        """Figure-style label (mirrors OsuConfig.variant_label)."""
        base = self.queue_family
        if self.heated:
            return f"HC+{base}" if base != "baseline" else "HC"
        return base


@dataclass
class TrafficResult:
    """Everything one open-loop run produced."""

    config_label: str
    arrival_rate: float
    warmup: TrafficStats
    measured: TrafficStats
    heater_passes: int = 0
    mem_stats: Optional[LevelStats] = field(repr=False, default=None)


class _TrafficSession:
    """Engine + queues + process wiring for one open-loop run.

    Construction mirrors ``bench/osu.py``'s ``_OsuSession`` (same arena
    bases, same heater wiring) but draws every stochastic choice from a
    :class:`~repro.sim.rng.RngRegistry` named stream and bounds the UMQ
    when the config asks for admission control.
    """

    def __init__(self, cfg: TrafficConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        self.registry = RngRegistry(cfg.seed)
        self.hier = cfg.arch.build_hierarchy(
            rng=self.registry.stream("traffic:hierarchy"),
        )
        self.engine = MatchEngine(self.hier)
        prq = make_queue(
            cfg.queue_family,
            port=self.engine,
            rng=self.registry.stream("traffic:layout"),
            fragmented=cfg.fragmented,
            arena_base=0x4000_0000,
        )
        self.umq = make_queue(
            cfg.queue_family,
            entry_bytes=UMQ_ENTRY_BYTES,
            port=self.engine,
            rng=self.registry.stream("traffic:layout"),
            fragmented=cfg.fragmented,
            arena_base=0x2000_0000,
            capacity=cfg.queue_capacity,
            admission=cfg.admission,
        )
        self.umq_admission = getattr(self.umq, "admission", None)
        if self.umq_admission is not None:
            self.umq.reject_cycles = cfg.reject_cycles
        self.heater: Optional[Heater] = None
        if cfg.heated:
            hc = cfg.heater_config
            if hc is None:
                hc = HeaterConfig(locked=cfg.queue_family == "baseline")
            self.heater = Heater(self.hier, cfg.arch.ghz, hc)
            prq = HeatedQueue(prq, self.heater, self.engine)
        self.prq = prq
        self.proc = MpiProcess(
            0, prq, self.umq, clock=self.engine.clock, record_traces=False
        )

    def prepopulate(self) -> None:
        """Post the never-matching decoy receives (PRQ depth knob)."""
        cfg = self.cfg
        if self.heater is not None:
            self.heater.enabled = False
        for i in range(cfg.search_depth):
            # Tags beyond the traffic tag space and a concrete non-traffic
            # source: scanned by every PRQ search, matched by nothing.
            self.proc.post_recv(src=_DECOY_SRC, tag=cfg.n_tags + 1 + i, cid=1)
        if self.heater is not None:
            self.heater.enabled = True
            self.heater.reset(self.engine.clock.now)


class TrafficDriver:
    """Advance simulated time from a workload, closed- or open-loop."""

    def __init__(self, session) -> None:
        self.session = session
        self.engine = session.engine

    # -- closed loop (the fixed-grid substrate) --------------------------------

    def run_closed(
        self, *, nbytes: int, warmup: int, iterations: int, reset_stats: bool = True
    ):
        """The fixed-grid loop: deliver ``warmup + iterations`` identical
        messages via the session's ``one_message`` hook; returns the measured
        iterations' match-cycle samples. ``reset_stats`` clears the engine's
        per-level attribution at the warmup/measured boundary so ``mem_stats``
        covers only measured work (``osu_latency`` turns it off)."""
        samples = []
        for i in range(warmup + iterations):
            if reset_stats and i == warmup:
                self.engine.level_stats.reset()
            cycles = self.session.one_message(nbytes)
            if i >= warmup:
                samples.append(cycles)
        return samples

    # -- open loop -------------------------------------------------------------

    @classmethod
    def open_loop(cls, cfg: TrafficConfig) -> "TrafficDriver":
        """Build a driver around a fresh open-loop session for *cfg*."""
        return cls(_TrafficSession(cfg))

    def run_open(self) -> TrafficResult:
        """Drive the open-loop schedule to completion; see the module doc."""
        session = self.session
        cfg: TrafficConfig = session.cfg
        session.prepopulate()
        clock = self.engine.clock
        arch = cfg.arch
        delivery_cycles = arch.sw_overhead_cycles + arch.copy_cycles_per_byte * cfg.msg_bytes

        res_rng = session.registry.stream("traffic:reservoir")
        warm = PhaseAccumulator(
            "warmup", arch.ghz, QuantileReservoir(cfg.reservoir, rng=res_rng)
        )
        meas = PhaseAccumulator(
            "measured", arch.ghz, QuantileReservoir(cfg.reservoir, rng=res_rng)
        )
        warm.begin(clock.now)
        current = warm

        # Per-tag FIFO of (t_arrive, measured) for messages waiting in the
        # UMQ: matching is per-tag FIFO (wildcard-source receives), so the
        # head of a tag's deque is exactly the entry the next receive for
        # that tag will drain. Bounded by the UMQ's own occupancy.
        waiting: Dict[int, deque] = {}

        def on_evict(item) -> None:
            entries = waiting.get(item.tag)
            if not entries:
                raise MatchingError(
                    f"admission evicted an unexpected message with tag {item.tag} "
                    "the driver has no waiting record for; driver and UMQ "
                    "bookkeeping desynced"
                )
            t0, measured_flag = entries.popleft()
            if not entries:
                del waiting[item.tag]
            (meas if measured_flag else warm).evicted += 1

        if session.umq_admission is not None:
            session.umq.on_evict = on_evict

        app_tags = iter(
            ZipfTagPopularity(
                cfg.n_tags, cfg.zipf_alpha, session.registry.stream("traffic:recv-tags")
            )
        )
        events = open_loop_events(
            rate_per_us=cfg.arrival_rate,
            ghz=arch.ghz,
            zipf_alpha=cfg.zipf_alpha,
            n_tags=cfg.n_tags,
            nranks=cfg.nranks,
            msg_bytes=cfg.msg_bytes,
            n_warmup=cfg.n_warmup,
            n_measured=cfg.n_measured,
            seed=cfg.seed,
        )

        outstanding = 0
        in_measured = False
        admission = session.umq_admission
        for ev in events:
            if ev.measured and not in_measured:
                # Warmup -> measured boundary: queue state carries over (a
                # loaded system stays loaded), accounting starts fresh.
                in_measured = True
                warm.finish(clock.now)
                meas.begin(clock.now)
                current = meas
                self.engine.level_stats.reset()

            # Service: the application posts receives only while the engine
            # is idle ahead of the next arrival and the window has room.
            while outstanding < cfg.recv_window and clock.now < ev.t_arrive:
                tag = next(app_tags)
                req = session.proc.post_recv(
                    src=ANY_SOURCE, tag=tag, cid=0, nbytes=cfg.msg_bytes
                )
                current.posted_recvs += 1
                if req.matched_unexpected:
                    entries = waiting[tag]
                    t0, measured_flag = entries.popleft()
                    if not entries:
                        del waiting[tag]
                    self.engine.charge(delivery_cycles)
                    target = meas if measured_flag else warm
                    target.drained += 1
                    target.record_sojourn(clock.now - t0)
                else:
                    outstanding += 1

            if clock.now < ev.t_arrive:
                clock.advance_to(ev.t_arrive)

            if cfg.flush_every and ev.index and ev.index % cfg.flush_every == 0:
                # A bulk-synchronous compute phase ran: caches are cold again
                # unless the heater has been defending the match state.
                session.hier.flush()
                if session.heater is not None:
                    session.prq.prepare_phase()

            rejected_before = admission.rejected if admission is not None else 0
            req = session.proc.handle_arrival(
                Message(Envelope(src=ev.rank, tag=ev.tag, cid=0), ev.nbytes)
            )
            current.events += 1
            if req is not None:
                outstanding -= 1
                self.engine.charge(delivery_cycles)
                current.fast_matches += 1
                target = meas if ev.measured else warm
                target.record_sojourn(clock.now - ev.t_arrive)
            elif admission is not None and admission.rejected > rejected_before:
                current.rejected += 1
            else:
                current.unexpected += 1
                waiting.setdefault(ev.tag, deque()).append((ev.t_arrive, ev.measured))
            current.observe_depth(len(session.umq))

        # Messages still unexpected at the end of the schedule are counted,
        # per the phase they arrived in, but get no sojourn (never drained).
        for entries in waiting.values():
            for _t0, measured_flag in entries:
                (meas if measured_flag else warm).leftover += 1
        meas.finish(clock.now)
        if not in_measured:  # pragma: no cover - n_measured >= 1 forbids this
            warm.finish(clock.now)

        return TrafficResult(
            config_label=cfg.variant_label(),
            arrival_rate=cfg.arrival_rate,
            warmup=warm.stats(),
            measured=meas.stats(),
            heater_passes=session.heater.passes if session.heater is not None else 0,
            mem_stats=self.engine.level_stats.copy(),
        )


def run_traffic(cfg: TrafficConfig) -> TrafficResult:
    """Convenience: build an open-loop driver for *cfg* and run it."""
    return TrafficDriver.open_loop(cfg).run_open()
