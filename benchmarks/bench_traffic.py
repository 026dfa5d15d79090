"""Open-loop traffic throughput: the event loop's events/s ladder.

The traffic driver is the substrate every overload experiment runs on, so
its host-side throughput bounds how large a schedule is practical. This
benchmark times the driver's one per-event loop on a shared scenario set:

* run-to-run repr identity is asserted inside the timed harness — a
  nondeterministic run fails the benchmark before any number is reported;
* every row keeps the historical loose ``MIN_EVENTS_PER_SEC`` floor, and
  the loss machinery must actually engage on the reference point;
* a million-event smoke drives a full 1e6-event deep-overload schedule
  through the loop and bounds the driver's peak traced allocation
  (resident state is O(reservoir + n_tags + recv_window); flatness in
  event count is pinned by ``tests/test_traffic_scale.py``).

``bench_to_json.py`` reuses :func:`collect_traffic` to export the
per-scenario trajectory to ``BENCH_traffic.json``.
"""

from __future__ import annotations

import time
import tracemalloc

from conftest import emit

from repro.analysis.report import render_table
from repro.arch import SANDY_BRIDGE
from repro.traffic import TrafficConfig, TrafficDriver, run_traffic

#: Events per timed run (warmup + measured).
N_WARMUP = 200
N_MEASURED = 5800

#: Timed repetitions; best-of keeps scheduler noise out.
ROUNDS = 3

#: Loose absolute floor per row: trips on order-of-magnitude event-loop
#: regressions (per-event Python overhead creep), not machine noise.
MIN_EVENTS_PER_SEC = 1000.0

#: The reference scenario (first in the table): deep enough overload that
#: the UMQ saturates and drop-tail sheds most arrivals.
REFERENCE_SCENARIO = "saturated drop-tail"


def overload_config(**overrides) -> TrafficConfig:
    """The benchmark's reference configuration."""
    kwargs = dict(
        arch=SANDY_BRIDGE,
        arrival_rate=8.0,
        zipf_alpha=1.0,
        n_tags=16,
        msg_bytes=512,
        search_depth=32,
        queue_capacity=64,
        recv_window=8,
        n_warmup=N_WARMUP,
        n_measured=N_MEASURED,
        seed=7,
    )
    kwargs.update(overrides)
    return TrafficConfig(**kwargs)


def scenarios():
    """(label, config-factory) pairs; the first is the reference."""
    return (
        (REFERENCE_SCENARIO, overload_config),
        (
            "overload drop-head",
            lambda **kw: overload_config(
                arrival_rate=1.6, admission="drop-head", **kw
            ),
        ),
        (
            "unbounded rate 0.2",
            lambda **kw: overload_config(
                arrival_rate=0.2, queue_capacity=None, search_depth=16, **kw
            ),
        ),
    )


def time_traffic(cfg: TrafficConfig, rounds: int = ROUNDS):
    """Best-of-N wall time for one config; returns (seconds, result).

    Also asserts run-to-run repr identity — the determinism gate rides
    inside the timing harness.
    """
    best = float("inf")
    reference = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run_traffic(cfg)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        if reference is None:
            reference = result
        else:
            assert repr(result) == repr(reference), "traffic run diverged"
    return best, reference


def collect_traffic():
    """Per-scenario rows for the JSON artifact (and the table)."""
    rows = []
    events = N_WARMUP + N_MEASURED
    for label, make_cfg in scenarios():
        seconds, result = time_traffic(make_cfg())
        measured = result.measured
        rows.append(
            {
                "scenario": label,
                "events": events,
                "seconds": round(seconds, 4),
                "events_per_sec": round(events / seconds, 1),
                "rejection_pct": round(measured.rejection_pct, 2),
                "p99_sojourn_us": round(measured.p99_sojourn_us, 2),
            }
        )
    return rows


def test_traffic_throughput_ladder():
    rows = collect_traffic()
    emit(
        render_table(
            ["scenario", "events", "best s", "events/s", "rej %", "p99 us"],
            [
                (
                    r["scenario"], r["events"], r["seconds"],
                    r["events_per_sec"], r["rejection_pct"], r["p99_sojourn_us"],
                )
                for r in rows
            ],
            title="Open-loop traffic event-loop ladder (best of %d)" % ROUNDS,
        )
    )
    reference = [r for r in rows if r["scenario"] == REFERENCE_SCENARIO]
    assert reference[0]["rejection_pct"] > 0, "reference point did not reject"
    assert reference[0]["p99_sojourn_us"] > 0, "reference point recorded no sojourns"
    for row in rows:
        assert row["events_per_sec"] >= MIN_EVENTS_PER_SEC, (
            f"{row['scenario']}: {row['events_per_sec']} "
            f"events/s below the {MIN_EVENTS_PER_SEC} floor"
        )


# -- million-event smoke -------------------------------------------------------

#: Deep overload: arrivals outpace the engine ~30:1, so almost every event
#: is a drop-tail reject.
MILLION_EVENTS = 1_000_000

#: Peak traced driver allocation allowed for a deep-overload run. The
#: resident state is O(reservoir + n_tags + recv_window) — nothing scales
#: with the schedule.
MAX_DRIVER_PEAK_BYTES = 8 * 2**20

#: Floor for the smoke (measured ~44k events/s on a 2-core x86-64 box).
MIN_MILLION_EVENTS_PER_SEC = 25_000.0


def deep_overload_config(**overrides) -> TrafficConfig:
    kwargs = dict(
        arch=SANDY_BRIDGE,
        arrival_rate=32.0,
        zipf_alpha=1.0,
        n_tags=16,
        msg_bytes=512,
        search_depth=8,
        queue_capacity=32,
        recv_window=4,
        n_warmup=1000,
        n_measured=MILLION_EVENTS - 1000,
        seed=7,
    )
    kwargs.update(overrides)
    return TrafficConfig(**kwargs)


def test_traffic_million_event_smoke():
    start = time.perf_counter()
    result = run_traffic(deep_overload_config())
    elapsed = time.perf_counter() - start
    events_per_sec = MILLION_EVENTS / elapsed
    for phase in (result.warmup, result.measured):
        assert phase.fast_matches + phase.unexpected + phase.rejected == phase.events
    assert result.measured.events == MILLION_EVENTS - 1000
    assert events_per_sec >= MIN_MILLION_EVENTS_PER_SEC, (
        f"million-event smoke: {events_per_sec:.0f} events/s below the "
        f"{MIN_MILLION_EVENTS_PER_SEC} floor"
    )

    # Peak traced allocation, bounded at quarter scale (tracing multiplies
    # wall cost ~10x; tests/test_traffic_scale.py pins that the peak is
    # flat in the event count, so the bound transfers to the full million).
    driver = TrafficDriver.open_loop(deep_overload_config(n_measured=249_000))
    tracemalloc.start()
    try:
        driver.run_open()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MAX_DRIVER_PEAK_BYTES, (
        f"driver peak {peak / 2**20:.2f} MB exceeds "
        f"{MAX_DRIVER_PEAK_BYTES / 2**20:.0f} MB bound"
    )
    emit(
        f"million-event smoke: {MILLION_EVENTS} events in {elapsed:.1f}s "
        f"({events_per_sec:,.0f} events/s), driver peak {peak / 2**20:.2f} MB"
    )


if __name__ == "__main__":
    test_traffic_throughput_ladder()
    test_traffic_million_event_smoke()
