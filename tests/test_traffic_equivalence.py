"""Closed-loop equivalence: the traffic driver vs the retained legacy loop.

``osu_bandwidth`` now routes its fixed-grid iteration through
``TrafficDriver.run_closed``; ``osu_bandwidth_legacy`` keeps the original
bespoke loop verbatim. The refactor is only safe if the two are
*repr-identical* — same match-cycle samples, same bandwidth math, same
per-level memory attribution — across queue families and heater
variants. This suite pins that, point-by-point and
through the Runner-driven fig4/fig6 panels the paper reproduction rests on.
"""

import pytest

from repro.arch import SANDY_BRIDGE
from repro.bench.figures import plan_spatial_search_length, plan_temporal_msg_size
from repro.bench.osu import OsuConfig, osu_bandwidth, osu_bandwidth_legacy
from repro.exp import Runner
from repro.net import QLOGIC_QDR

#: Values a ``REPRO_SCAN_BATCH`` variable could hold from when the queues had
#: two scan spellings. Queues now always scan in runs, so a stale value left
#: in the environment must change neither producer.
STALE_SCAN_MODES = ("on", "off")

VARIANTS = [
    dict(queue_family="baseline", heated=False),
    dict(queue_family="baseline", heated=True),
    dict(queue_family="lla-8", heated=False),
    dict(queue_family="lla-8", heated=True),
]


def cfg(**kw):
    defaults = dict(
        arch=SANDY_BRIDGE,
        link=QLOGIC_QDR,
        queue_family="baseline",
        msg_bytes=256,
        search_depth=64,
        iterations=4,
        warmup=2,
        seed=11,
    )
    defaults.update(kw)
    return OsuConfig(**defaults)


class TestPointEquivalence:
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: (
        ("HC+" if v["heated"] else "") + v["queue_family"]
    ))
    @pytest.mark.parametrize("stale_scan", STALE_SCAN_MODES)
    def test_bandwidth_point_identical(self, monkeypatch, variant, stale_scan):
        monkeypatch.setenv("REPRO_SCAN_BATCH", stale_scan)
        new = osu_bandwidth(cfg(**variant))
        old = osu_bandwidth_legacy(cfg(**variant))
        assert repr(new) == repr(old)
        assert repr(new.mem_stats) == repr(old.mem_stats)

    def test_fragmented_layout_identical(self):
        new = osu_bandwidth(cfg(fragmented=True, queue_family="lla-8"))
        old = osu_bandwidth_legacy(cfg(fragmented=True, queue_family="lla-8"))
        assert repr(new) == repr(old)


class TestPanelEquivalence:
    """Fig 4 / fig 6 quick panels, legacy vs refactored producer."""

    def run_panel(self, plan):
        return repr(Runner().run_sweep(plan))

    def test_fig4_panel_identical(self, monkeypatch):
        def plan():
            return plan_spatial_search_length(
                SANDY_BRIDGE, msg_bytes=16, depths=(1, 32, 256), iterations=3, seed=0
            )

        refactored = self.run_panel(plan())
        monkeypatch.setattr("repro.bench.osu.osu_bandwidth", osu_bandwidth_legacy)
        legacy = self.run_panel(plan())
        assert refactored == legacy

    @pytest.mark.parametrize("stale_scan", STALE_SCAN_MODES)
    def test_fig6_panel_identical(self, monkeypatch, stale_scan):
        monkeypatch.setenv("REPRO_SCAN_BATCH", stale_scan)

        def plan():
            return plan_temporal_msg_size(
                SANDY_BRIDGE, depth=128, msg_sizes=(16, 1024), iterations=3, seed=0
            )

        refactored = self.run_panel(plan())
        monkeypatch.setattr("repro.bench.osu.osu_bandwidth", osu_bandwidth_legacy)
        legacy = self.run_panel(plan())
        assert refactored == legacy
