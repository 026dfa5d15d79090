"""Open-loop traffic: Zipf/Poisson workloads, admission control, tail latency.

The common way experiments generate work (ROADMAP item 1, the "millions of
users" axis). :mod:`repro.traffic.workload` produces lazy seeded per-event
schedules, :mod:`repro.traffic.driver` advances the simulated clock from
them one arrival at a time over the full matching/memory/heater stack, and
:mod:`repro.traffic.stats` reduces each warmup/measured phase to queue
depths, rejection percentages, and sojourn-time percentiles.
"""

from repro.traffic.driver import (
    TrafficConfig,
    TrafficDriver,
    TrafficResult,
    run_traffic,
)
from repro.traffic.mode import traffic_mode_label
from repro.traffic.stats import TRAFFIC_METRICS, TrafficStats
from repro.traffic.workload import (
    PoissonArrivals,
    TrafficEvent,
    ZipfTagPopularity,
    open_loop_events,
)

__all__ = [
    "PoissonArrivals",
    "TRAFFIC_METRICS",
    "TrafficConfig",
    "TrafficDriver",
    "TrafficEvent",
    "TrafficResult",
    "TrafficStats",
    "ZipfTagPopularity",
    "open_loop_events",
    "run_traffic",
    "traffic_mode_label",
]
