"""Golden digests for the open-loop event loop.

``TrafficDriver.run_open`` is one per-event loop. Every drive below runs it
to completion and hashes everything the run leaves observable into one
digest:

* ``repr(result)`` and ``repr(result.mem_stats)`` — phase statistics,
  sojourn reservoirs and per-level memory attribution;
* ``repr(hier.stats())`` — every per-level ``CacheStats`` plus the
  hierarchy's ``demand_accesses``;
* the engine's load/store/run counters, its cycle totals and the final
  clock;
* the PRQ and UMQ ``QueueStats`` and the UMQ's admission counters.

Drives cover every regime the driver distinguishes (drop-tail and
drop-head admission, unbounded queues, heater sync, flush boundaries,
capacity-zero universal rejection, a warmup/measured boundary that falls
inside the schedule's second 1024-draw chunk), the four queue families,
fragmented layouts, a fractional reject charge and a stale
``REPRO_SCAN_BATCH`` left in the environment.

The digests in :data:`GOLDEN` were captured from the per-event loop while a
second, columnar loop still existed and returned the same ``repr(result)``
and ``repr(result.mem_stats)`` on every drive; any change to a digest is a
change to the simulated run. :data:`SCHEDULE_GOLDEN` pins the schedule
generator's event stream the same way. The suite also pins the driver's
``waiting`` bookkeeping.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro.arch import SANDY_BRIDGE
from repro.errors import ConfigurationError, MatchingError
from repro.traffic import TrafficConfig, TrafficDriver, run_traffic
from repro.traffic.mode import traffic_mode_label
from repro.traffic.workload import open_loop_events

#: Values a ``REPRO_SCAN_BATCH`` variable could hold from when the queues had
#: two scan spellings. Queues now always scan in runs, so a stale value left
#: in the environment must leave the saturated drive's digest unchanged.
STALE_SCAN_MODES = ("on", "off")

QUEUE_FAMILIES = ("baseline", "lla-8", "hash-64", "openmpi")

#: The regimes the open-loop driver distinguishes: saturated drop-tail
#: (long pure-reject streaks), drop-head eviction, unbounded admission,
#: heater sync, flush boundaries, capacity-zero universal rejection, and a
#: warmup/measured boundary torn inside a schedule draw chunk.
REGIMES = {
    "saturated-drop-tail": dict(
        arrival_rate=4.0, queue_capacity=32, recv_window=8,
        search_depth=32, n_warmup=30, n_measured=120,
    ),
    "drop-tail-flush": dict(
        arrival_rate=4.0, queue_capacity=32, recv_window=8,
        search_depth=16, flush_every=16, n_warmup=30, n_measured=120,
    ),
    "drop-head": dict(
        arrival_rate=4.0, queue_capacity=16, admission="drop-head",
        recv_window=8, search_depth=16, n_warmup=30, n_measured=120,
    ),
    "unbounded": dict(
        arrival_rate=0.4, recv_window=16, n_warmup=50, n_measured=200,
    ),
    "heated-flush": dict(
        arrival_rate=1.0, queue_capacity=32, recv_window=8, heated=True,
        flush_every=16, search_depth=8, n_warmup=30, n_measured=120,
    ),
    "capacity-zero": dict(
        arrival_rate=2.0, queue_capacity=0, recv_window=4,
        search_depth=8, n_warmup=20, n_measured=100,
    ),
    "torn-boundary": dict(
        arrival_rate=4.0, queue_capacity=32, recv_window=8,
        search_depth=16, n_warmup=1100, n_measured=200,
    ),
}

#: The engine's counters and cycle totals, in digest order.
ENGINE_COUNTERS = (
    "loads", "stores", "sw_prefetches", "runs", "run_probes", "fast_runs",
    "load_cycles", "store_cycles_total",
)

#: Per-drive digest of the full observable state (see the module doc).
GOLDEN = {
    "regime-capacity-zero": "4d011b3667783f81",
    "regime-drop-head": "95b7fd780f6c1e4a",
    "regime-drop-tail-flush": "438d582b3d2dd447",
    "regime-heated-flush": "24cab31b198988a6",
    "regime-saturated-drop-tail": "ee70ecd3c1707fa0",
    "regime-torn-boundary": "22303c52d7490a5f",
    "regime-unbounded": "d9f610fac4398aab",
    "family-baseline": "ee70ecd3c1707fa0",
    "family-lla-8": "6da73424bac57b47",
    "family-hash-64": "f2f924ae406b6afd",
    "family-openmpi": "4101c3747166bcf1",
    "fragmented": "37719fdb5b8f180c",
    "reject-cycles": "3ffce50e92bbaf20",
}

#: A schedule spanning two draw chunks, its warmup/measured boundary inside
#: the second one.
SCHEDULE = dict(
    rate_per_us=2.0, ghz=2.6, zipf_alpha=1.0, n_tags=16, nranks=64,
    msg_bytes=512, n_warmup=1100, n_measured=300, seed=13,
)

#: Digest of ``repr`` of every event of ``open_loop_events(**SCHEDULE)``.
SCHEDULE_GOLDEN = "c18778adac7d1b29"


def cfg(**kw):
    defaults = dict(
        arch=SANDY_BRIDGE,
        zipf_alpha=1.0,
        n_tags=16,
        msg_bytes=512,
        seed=7,
    )
    defaults.update(kw)
    return TrafficConfig(**defaults)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def state_digest(driver, result) -> str:
    """One hash over everything a finished open-loop run leaves observable."""
    session = driver.session
    engine = driver.engine
    return _digest((
        repr(result),
        repr(result.mem_stats),
        repr(session.hier.stats()),
        repr([getattr(engine, name) for name in ENGINE_COUNTERS]),
        repr(engine.clock.now),
        repr(session.prq.stats),
        repr(session.umq.stats),
        repr(session.umq_admission),
    ))


def run_digest(**kw) -> str:
    driver = TrafficDriver.open_loop(cfg(**kw))
    return state_digest(driver, driver.run_open())


def schedule_digest(**kw) -> str:
    return _digest(repr(ev) for ev in open_loop_events(**kw))


class TestLockstepEquivalence:
    @pytest.mark.parametrize("regime", sorted(REGIMES), ids=str)
    def test_regime_identical(self, regime):
        assert run_digest(**REGIMES[regime]) == GOLDEN[f"regime-{regime}"]

    @pytest.mark.parametrize("scan", STALE_SCAN_MODES)
    def test_scan_modes_identical(self, monkeypatch, scan):
        monkeypatch.setenv("REPRO_SCAN_BATCH", scan)
        kw = REGIMES["saturated-drop-tail"]
        assert run_digest(**kw) == GOLDEN["regime-saturated-drop-tail"]

    @pytest.mark.parametrize("family", QUEUE_FAMILIES)
    def test_queue_families_identical(self, family):
        kw = dict(REGIMES["saturated-drop-tail"], queue_family=family)
        assert run_digest(**kw) == GOLDEN[f"family-{family}"]

    def test_fragmented_identical(self):
        kw = dict(REGIMES["saturated-drop-tail"], fragmented=True)
        assert run_digest(**kw) == GOLDEN["fragmented"]

    def test_reject_cycles_identical(self):
        # A fractional NACK charge lands on the clock per reject.
        kw = dict(REGIMES["saturated-drop-tail"], reject_cycles=17.5)
        assert run_digest(**kw) == GOLDEN["reject-cycles"]

    def test_run_to_run_deterministic(self):
        kw = REGIMES["saturated-drop-tail"]
        assert run_digest(**kw) == run_digest(**kw)


class TestBlockViewConsistency:
    """The schedule generator's event stream, across its draw chunks."""

    def test_events_match_golden_digest(self):
        assert schedule_digest(**SCHEDULE) == SCHEDULE_GOLDEN

    def test_arrival_times_strictly_increase_across_blocks(self):
        last = 0.0
        n = 0
        for ev in open_loop_events(**SCHEDULE):
            assert ev.t_arrive > last
            last = ev.t_arrive
            n += 1
        assert n == 1400


class TestWaitingBookkeeping:
    """Emptied FIFOs are cleaned up; desynced evicts raise."""

    def test_desynced_evict_raises(self):
        driver = TrafficDriver.open_loop(
            cfg(
                arrival_rate=4.0,
                queue_capacity=16,
                admission="drop-head",
                recv_window=8,
                search_depth=8,
                n_warmup=20,
                n_measured=80,
            )
        )
        driver.run_open()
        # The driver's waiting table and the UMQ agreed all run; an evict
        # for a tag the driver has no record of is a bookkeeping desync.
        with pytest.raises(MatchingError):
            driver.session.umq.on_evict(SimpleNamespace(tag=999))

    def test_legacy_waiting_table_drained_clean(self):
        # With cleanup, fully drained tags leave no empty deques behind:
        # leftovers is exactly the number of entries still waiting, and a
        # run whose unexpected messages all drained reports zero.
        result = run_traffic(
            cfg(
                arrival_rate=0.2,
                recv_window=16,
                n_warmup=50,
                n_measured=400,
            )
        )
        total = result.warmup
        assert total.unexpected >= 0
        leftover = result.warmup.leftover + result.measured.leftover
        drained = result.warmup.drained + result.measured.drained
        unexpected = result.warmup.unexpected + result.measured.unexpected
        evicted = result.warmup.evicted + result.measured.evicted
        assert leftover == unexpected - drained - evicted


def test_mode_label_names_the_one_loop():
    assert traffic_mode_label(None) == traffic_mode_label("per-event") == "per-event"
    with pytest.raises(ConfigurationError, match="unknown traffic event loop 'batch'"):
        traffic_mode_label("batch")
