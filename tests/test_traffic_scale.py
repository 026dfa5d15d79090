"""Million-event scale: the open-loop event loop in bounded time and memory.

The open-loop schedule is lazy and the driver's resident state is
O(reservoir + n_tags + recv_window + UMQ capacity) — nothing scales with
the number of events. This suite drives a full million-event overload
schedule through the per-event loop, pins the peak traced allocation flat
as the event count grows 4x, and pins the full observable state of two
downscaled-but-still-large schedules to golden digests, one with a
warmup/measured boundary torn inside a schedule draw chunk.
"""

import tracemalloc

from repro.arch import SANDY_BRIDGE
from repro.traffic import TrafficConfig, TrafficDriver, run_traffic
from tests.test_traffic_batch_equivalence import state_digest

#: A deeply saturated drop-tail point: arrivals outpace the engine ~30:1,
#: so almost every event is a pure reject.
OVERLOAD = dict(
    arch=SANDY_BRIDGE,
    arrival_rate=32.0,
    queue_capacity=32,
    recv_window=4,
    search_depth=8,
    zipf_alpha=1.0,
    n_tags=16,
    msg_bytes=512,
    seed=7,
)

#: Full-state digests (see ``state_digest``), captured while a second,
#: columnar event loop still existed and agreed with this one on
#: ``repr(result)`` and ``repr(result.mem_stats)``.
GOLDEN = {
    "downscaled": "fbcca32be5d8f7fd",
    "torn-boundary": "8436175237aee011",
}


def scale_config(**kw):
    return TrafficConfig(**dict(OVERLOAD, **kw))


def run_digest(**kw):
    driver = TrafficDriver.open_loop(scale_config(**kw))
    result = driver.run_open()
    return result, state_digest(driver, result)


def test_million_events_complete_exactly():
    result = run_traffic(scale_config(n_warmup=1000, n_measured=999_000))
    assert result.warmup.events == 1_000
    assert result.measured.events == 999_000
    # Every arrival is classified exactly once; depth was sampled per event.
    for phase in (result.warmup, result.measured):
        assert phase.fast_matches + phase.unexpected + phase.rejected == phase.events
    # Overload means rejection dominates but the engine still delivers.
    assert result.measured.rejected > 900_000
    assert result.measured.delivered > 0


def test_peak_memory_flat_in_event_count():
    # The driver's resident state must not scale with the schedule: trace a
    # run, then one with 4x the events, and require the same peak (small
    # slack for allocator noise). The session (hierarchy arrays) is built
    # before tracing starts — the bound is on *driver* state.
    def peak_for(n_measured):
        driver = TrafficDriver.open_loop(
            scale_config(n_warmup=1000, n_measured=n_measured)
        )
        tracemalloc.start()
        try:
            driver.run_open()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    small = peak_for(31_000)
    large = peak_for(127_000)
    assert large < 8 * 2**20, f"peak {large / 2**20:.2f} MB exceeds 8 MB bound"
    assert large <= small * 1.5 + 256 * 1024, (
        f"peak grew with event count: {small} -> {large} bytes for 4x events"
    )


def test_downscaled_legacy_repr_match():
    # 20k events of the same overload point, every observable pinned.
    result, digest = run_digest(n_warmup=1000, n_measured=19_000)
    assert result.measured.events == 19_000
    assert digest == GOLDEN["downscaled"]


def test_torn_boundary_mid_block_at_scale():
    # n_warmup=1500 with 1024-draw chunks puts the warmup/measured boundary
    # inside the schedule's second chunk; level_stats must reset at exactly
    # that event.
    result, digest = run_digest(n_warmup=1500, n_measured=4500)
    assert result.warmup.events == 1500
    assert result.measured.events == 4500
    assert digest == GOLDEN["torn-boundary"]
