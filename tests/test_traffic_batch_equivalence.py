"""Open-loop lockstep equivalence: the columnar batch loop vs the legacy loop.

``TrafficDriver.run_open`` now dispatches between the retained per-event
legacy loop and the columnar fast path (EventBlock slabs + verified
reject-streak replay). The refactor is only safe if the two are
*repr-identical* — same phase statistics, same sojourn reservoirs, same
per-level memory attribution — across queue families, scan modes,
admission policies, and heated/flushed regimes. This suite pins
that, plus the columnar schedule's block/view consistency and the
satellite fixes to the driver's ``waiting`` bookkeeping.
"""

from types import SimpleNamespace

import pytest

from repro.arch import SANDY_BRIDGE
from repro.errors import MatchingError
from repro.traffic import TrafficConfig, TrafficDriver, run_traffic
from repro.traffic.workload import open_loop_blocks, open_loop_events

SCAN_MODES = ("on", "off")

#: The regimes the open-loop driver distinguishes. The saturated drop-tail
#: point exercises the reject-streak replayer; the others pin the per-event
#: fallback paths (drop-head eviction, unbounded admission, heater sync,
#: flush boundaries, capacity-zero universal rejection, a torn
#: warmup/measured boundary landing mid-EventBlock).
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


def cfg(traffic_batch, **kw):
    defaults = dict(
        arch=SANDY_BRIDGE,
        zipf_alpha=1.0,
        n_tags=16,
        msg_bytes=512,
        seed=7,
    )
    defaults.update(kw)
    return TrafficConfig(traffic_batch=traffic_batch, **defaults)


def run_repr(traffic_batch, **kw):
    result = run_traffic(cfg(traffic_batch, **kw))
    return repr(result) + " | " + repr(result.mem_stats)


class TestLockstepEquivalence:
    @pytest.mark.parametrize("regime", sorted(REGIMES), ids=str)
    def test_regime_identical(self, regime):
        kw = REGIMES[regime]
        assert run_repr(True, **kw) == run_repr(False, **kw)

    @pytest.mark.parametrize("scan", SCAN_MODES)
    def test_scan_modes_identical(self, monkeypatch, scan):
        monkeypatch.setenv("REPRO_SCAN_BATCH", scan)
        kw = REGIMES["saturated-drop-tail"]
        assert run_repr(True, **kw) == run_repr(False, **kw)

    @pytest.mark.parametrize("family", ("baseline", "lla-8", "hash-64", "openmpi"))
    def test_queue_families_identical(self, family):
        kw = dict(REGIMES["saturated-drop-tail"], queue_family=family)
        assert run_repr(True, **kw) == run_repr(False, **kw)

    def test_fragmented_identical(self):
        kw = dict(REGIMES["saturated-drop-tail"], fragmented=True)
        assert run_repr(True, **kw) == run_repr(False, **kw)

    def test_reject_cycles_identical(self):
        # A fractional NACK charge lands on the clock per replayed reject.
        kw = dict(REGIMES["saturated-drop-tail"], reject_cycles=17.5)
        assert run_repr(True, **kw) == run_repr(False, **kw)

    def test_run_to_run_batch_deterministic(self):
        kw = REGIMES["saturated-drop-tail"]
        assert run_repr(True, **kw) == run_repr(True, **kw)

    def test_env_resolution_matches_config_field(self, monkeypatch):
        kw = REGIMES["capacity-zero"]
        monkeypatch.setenv("REPRO_TRAFFIC_BATCH", "off")
        via_env = run_repr(None, **kw)
        monkeypatch.delenv("REPRO_TRAFFIC_BATCH")
        assert via_env == run_repr(False, **kw)


class TestBlockViewConsistency:
    """The per-event iterator is a thin view over the columnar blocks."""

    SCHEDULE = dict(
        rate_per_us=2.0, ghz=2.6, zipf_alpha=1.0, n_tags=16, nranks=64,
        msg_bytes=512, n_warmup=1100, n_measured=300, seed=13,
    )

    def test_events_match_blocks(self):
        events = list(open_loop_events(**self.SCHEDULE))
        flat = []
        for block in open_loop_blocks(**self.SCHEDULE):
            measured = block.measured
            for i in range(len(block)):
                flat.append(
                    (
                        block.index0 + i,
                        float(block.t_arrive[i]),
                        int(block.rank[i]),
                        int(block.tag[i]),
                        block.nbytes,
                        bool(measured[i]),
                    )
                )
        assert len(events) == len(flat) == 1400
        for ev, row in zip(events, flat):
            assert (ev.index, ev.t_arrive, ev.rank, ev.tag, ev.nbytes, ev.measured) == row

    def test_torn_boundary_lands_mid_block(self):
        # n_warmup=1100 with the default 1024-event chunk: the second block
        # holds both the last warmup and the first measured event.
        blocks = list(open_loop_blocks(**self.SCHEDULE))
        assert blocks[0].warm_count == len(blocks[0])
        assert 0 < blocks[1].warm_count < len(blocks[1])

    def test_arrival_times_strictly_increase_across_blocks(self):
        last = 0.0
        for block in open_loop_blocks(**self.SCHEDULE):
            for t in block.t_arrive:
                assert t > last
                last = float(t)


class TestWaitingBookkeeping:
    """Satellite: emptied FIFOs are cleaned up; desynced evicts raise."""

    @pytest.mark.parametrize("traffic_batch", (False, True), ids=("legacy", "batch"))
    def test_desynced_evict_raises(self, traffic_batch):
        driver = TrafficDriver.open_loop(
            cfg(
                traffic_batch,
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
                False,
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
