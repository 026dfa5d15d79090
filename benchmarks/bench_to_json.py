#!/usr/bin/env python
"""Emit benchmark results as machine-readable JSON artifacts.

CI runs this after the test suites and uploads ``BENCH_scan.json`` (the
engine's ``load_run`` vs per-probe queue traversal speedup), ``BENCH_traffic.json`` (the
open-loop traffic driver's events/sec), and ``BENCH_service.json`` (the
sweep service's warm-store supervision overhead) so each trajectory is
preserved per commit — a perf regression then shows up as a trend break in the artifact
history, not just as a (retried, noise-tolerant) gate failure in one run.

Standalone — no pytest. Reuses the interleaved best-of timing and the
bit-identity assertions from :mod:`bench_queue_scan` and
:mod:`bench_traffic`, so a scan or traffic divergence fails the script
(exit 1) before any JSON is written.

Usage::

    python benchmarks/bench_to_json.py [scan.json [traffic.json [service.json]]]
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
# Standalone-script imports of sibling bench modules must not litter
# benchmarks/__pycache__/ into the working tree.
sys.dont_write_bytecode = True

import bench_queue_scan  # noqa: E402
import bench_traffic  # noqa: E402


def _environment():
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def collect_scan():
    scenarios = []
    for name, geometry in bench_queue_scan.SCENARIOS:
        probe_s, run_s, engine = bench_queue_scan.time_scan_pair(geometry)
        scenarios.append(
            {
                "scenario": name,
                "per_probe_ms": round(probe_s * 1e3, 3),
                "load_run_ms": round(run_s * 1e3, 3),
                "speedup": round(probe_s / run_s, 3),
                "fast_runs": engine.fast_runs,
                "runs": engine.runs,
            }
        )
    return scenarios


def write_scan(out: Path) -> None:
    scenarios = collect_scan()
    doc = {
        "benchmark": "queue-scan-transactions",
        "workload": {
            "family": "lla",
            "entries_per_node": bench_queue_scan.K,
            "search_depth": bench_queue_scan.DEPTH,
        },
        "gate": {
            "scenario": bench_queue_scan.SCENARIOS[0][0],
            "min_speedup": bench_queue_scan.MIN_SCAN_SPEEDUP,
        },
        "timing": {"rounds": bench_queue_scan.ROUNDS, "statistic": "best-of"},
        "environment": _environment(),
        "scenarios": scenarios,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for row in scenarios:
        print(
            "{scenario:>17}: per-probe {per_probe_ms:8.2f}ms  "
            "load_run {load_run_ms:8.2f}ms  speedup {speedup:.2f}x  "
            "fast {fast_runs}/{runs}".format(**row)
        )
    print(f"wrote {out}")


def write_traffic(out: Path) -> None:
    scenarios = bench_traffic.collect_traffic()
    doc = {
        "benchmark": "open-loop-traffic-driver",
        "config": {
            "arrival_rate": bench_traffic.overload_config().arrival_rate,
            "events": bench_traffic.N_WARMUP + bench_traffic.N_MEASURED,
        },
        "gate": {"min_events_per_sec": bench_traffic.MIN_EVENTS_PER_SEC},
        "timing": {"rounds": bench_traffic.ROUNDS, "statistic": "best-of"},
        "environment": _environment(),
        "scenarios": scenarios,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for row in scenarios:
        print(
            "{scenario:>19}: {events_per_sec:8.1f} events/s  "
            "rej {rejection_pct:5.1f}%  "
            "p99 {p99_sojourn_us:8.2f}us".format(**row)
        )
    print(f"wrote {out}")


def write_service(out: Path) -> None:
    import tempfile

    import bench_sweep_service

    with tempfile.TemporaryDirectory() as tmp:
        row = bench_sweep_service.collect_service(tmp)
    doc = {
        "benchmark": "sweep-service-supervision",
        "config": {"jobs": bench_sweep_service.JOBS},
        "gate": {"max_overhead_x": 1.5},
        "timing": {"rounds": 1, "statistic": "single-shot"},
        "environment": _environment(),
        "scenarios": [row],
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(
        "{scenario:>23}: bare {bare_runner_ms:8.2f}ms  "
        "service {armed_service_ms:8.2f}ms  overhead {overhead_x:.2f}x".format(**row)
    )
    print(f"wrote {out}")


def main(argv):
    write_scan(Path(argv[1]) if len(argv) > 1 else Path("BENCH_scan.json"))
    write_traffic(Path(argv[2]) if len(argv) > 2 else Path("BENCH_traffic.json"))
    write_service(Path(argv[3]) if len(argv) > 3 else Path("BENCH_service.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
