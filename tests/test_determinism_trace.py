"""Determinism regression: pinned cycle/counter traces for fig4/fig6 points.

These values were captured from the seed implementation (the scalar
per-line ``access`` loop) and must never drift: any refactor of the memory
hot path — batching, recency restructuring, stats deferral — has to
reproduce the seed's float accumulation order and RNG consumption exactly.
A failure here means the pipeline changed *simulated physics*, not just
wall-clock speed.

The cycle values are compared with ``repr`` equality (bit-identical
floats), not ``approx``: "close" is exactly the bug this test exists to
catch.
"""

import pytest

from repro.arch import SANDY_BRIDGE
from repro.bench.osu import OsuConfig, _OsuSession
from repro.net.link import QLOGIC_QDR

#: Values a ``REPRO_SCAN_BATCH`` variable could hold from when the queues had
#: two scan spellings. Queues now always scan in runs, so a stale value left
#: in the environment must not move any pinned trace.
STALE_SCAN_MODES = ("on", "off")

#: Traces captured at the seed commit: (queue_family, heated, msg_bytes)
#: -> per-message match cycles, final engine clock, and hierarchy counters
#: after 5 messages at search depth 512, seed 0.
PINNED = {
    "fig4_spatial_snb_lla8": {
        "family": "lla-8",
        "heated": False,
        "msg_bytes": 1024,
        "cycles": ["13336.0"] * 5,
        "clock": "67979.0",
        "demand_accesses": 3530,
        "levels": {
            "l1.0": {"hits": 2885, "misses": 645, "evictions": 0},
            "l2.0": {"hits": 635, "misses": 10, "evictions": 0},
            "l3": {"hits": 0, "misses": 10, "evictions": 0},
        },
        "loads": 2890,
        "load_cycles": "66670.0",
    },
    "fig6_temporal_snb_hc": {
        "family": "baseline",
        "heated": True,
        "msg_bytes": 4096,
        "cycles": ["25548.0"] * 5,
        "clock": "205546.0",
        "demand_accesses": 3805,
        "levels": {
            "l1.0": {"hits": 2220, "misses": 1585, "evictions": 696},
            "l2.0": {"hits": 970, "misses": 615, "evictions": 0},
            "l3": {"hits": 19771, "misses": 2895, "evictions": 0},
        },
        "loads": 2565,
        "load_cycles": "62130.0",
    },
}


def run_trace(pin):
    cfg = OsuConfig(
        arch=SANDY_BRIDGE,
        link=QLOGIC_QDR,
        queue_family=pin["family"],
        heated=pin["heated"],
        msg_bytes=pin["msg_bytes"],
        search_depth=512,
        iterations=3,
        seed=0,
    )
    session = _OsuSession(cfg)
    session.prepopulate()
    cycles = [session.one_message(pin["msg_bytes"]) for _ in range(5)]
    return session, cycles


def assert_trace_matches(pin):
    session, cycles = run_trace(pin)
    assert [repr(c) for c in cycles] == pin["cycles"]
    assert repr(session.engine.clock.now) == pin["clock"]
    assert repr(session.engine.load_cycles) == pin["load_cycles"]
    assert session.engine.loads == pin["loads"]
    stats = session.hier.stats()
    assert stats["demand_accesses"] == pin["demand_accesses"]
    for level, expected in pin["levels"].items():
        got = {k: stats[level][k] for k in expected}
        assert got == expected, f"{level}: {got} != {expected}"


@pytest.mark.parametrize("stale_scan", STALE_SCAN_MODES)
def test_fig4_spatial_snb_lla8_trace_pinned(stale_scan, monkeypatch):
    monkeypatch.setenv("REPRO_SCAN_BATCH", stale_scan)
    assert_trace_matches(PINNED["fig4_spatial_snb_lla8"])


@pytest.mark.parametrize("stale_scan", STALE_SCAN_MODES)
def test_fig6_temporal_snb_hc_trace_pinned(stale_scan, monkeypatch):
    monkeypatch.setenv("REPRO_SCAN_BATCH", stale_scan)
    assert_trace_matches(PINNED["fig6_temporal_snb_hc"])


def test_level_stats_consistent_with_hierarchy_counters():
    """The engine's attribution must account for every traversed line."""
    session, _ = run_trace(PINNED["fig6_temporal_snb_hc"])
    ls = session.engine.level_stats
    assert ls.loads == session.engine.loads
    # Each traversed line is attributed to exactly one serving level.
    assert (
        ls.netcache_hits + ls.l1_hits + ls.l2_hits + ls.l3_hits + ls.dram_fills
        == ls.lines
    )
    # Hot caching is visible: the L3 serves a large share of the lines.
    assert ls.l3_hits > 0
