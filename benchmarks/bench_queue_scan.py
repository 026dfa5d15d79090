"""Queue-scan micro-benchmark: ``MatchEngine.load_run`` vs per-probe loads.

With the cache model itself fast enough, the cost left on the table was
the queue→engine boundary, where every inspected slot paid one Python
``MemoryPort.load()`` round trip — heater sync, transaction setup,
``LevelStats.add``, clock advance. The scan-transaction API charges one
engine call per contiguous run (an LLA node's header + k slots collapses to
a single ``_run``), with a tight per-probe float loop replacing the per-slot
machinery whenever the run's lines are L1-resident and the heater is
quiescent across the run's projected span.

This benchmark drives a depth-8192 failed search (the paper's worst-case
queue traversal, Figures 4b/6b) through an LLA(k=8) twice: on a
``MatchEngine`` and on :class:`PerProbeEngine`, whose ``load_run`` is the
:class:`~repro.matching.port.MemoryPort` default loop (one ``load`` per
probe, the oracle every ``load_run`` must match). It asserts:

* identical simulated signatures (clock, cycles, counters) — bit-identity
  is re-checked here *inside* the timed harness, not just in the unit
  suite;
* the engine actually took the run fast path (``fast_runs > 0``);
* >= 3x ``match_remove`` throughput on the warm-hierarchy gate scenario,
  where the arena is L1-resident so every node scan collapses to the fast
  path (measured ~4.1x). The cold scenario — default 32 KiB L1, arena far
  larger — is reported but not gated: most runs there fail the residency
  gate and replay per probe, so both sides cost about the same (~1.0x).

Interleaved best-of-N timing with gate re-measurement (as in
``bench_access_path.py``) keeps the comparison robust on noisy machines.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import emit

from repro.analysis.report import render_table
from repro.matching.engine import MatchEngine
from repro.matching.entry import MatchItem
from repro.matching.lla import LinkedListOfArrays
from repro.matching.port import MemoryPort
from repro.mem.hierarchy import MemoryHierarchy

#: The paper's deepest search-length point (Figures 4b/6b).
DEPTH = 8192
K = 8

#: Failed full scans per timed round; a failed search leaves the queue (and
#: the warm cache) untouched, so rounds are idempotent.
SCANS = 2

#: Interleaved timing rounds; best-of keeps scheduler noise out.
ROUNDS = 7

#: The acceptance gate (warm scenario only — see module docstring).
MIN_SCAN_SPEEDUP = 3.0

#: Warm scenario: an L1 big enough to hold the depth-8192 arena
#: (~1024 nodes x ~250 B), so after one priming scan every node run passes
#: the residency gate.
WARM_GEOMETRY = dict(
    l1_size=1 << 20,
    l1_assoc=16,
    l2_size=1 << 22,
    l2_assoc=16,
    l3_size=1 << 24,
)

_DECOY_SRC = 7
_MISS_SRC = 5


def _probe():
    # Exact-match probe that matches nothing: every search walks all DEPTH
    # live slots and fails.
    return MatchItem(seq=10**9, src=_MISS_SRC, tag=0, cid=0)


class PerProbeEngine(MatchEngine):
    """Charges every run probe by probe through the default loop."""

    load_run = MemoryPort.load_run


def build_session(engine_cls, geometry=WARM_GEOMETRY):
    hier = MemoryHierarchy(rng=np.random.default_rng(5), **geometry)
    engine = engine_cls(hier)
    queue = LinkedListOfArrays(K, port=engine)
    for i in range(DEPTH):
        queue.post(MatchItem(seq=i, src=_DECOY_SRC, tag=i, cid=0))
    # Prime: one failed scan pulls the arena into the hierarchy (for the
    # warm geometry, fully into L1).
    queue.match_remove(_probe())
    return engine, queue


def _signature(engine, queue):
    ls = engine.level_stats
    return (
        repr(engine.clock.now),
        engine.loads,
        repr(engine.load_cycles),
        ls.loads,
        ls.lines,
        ls.l1_hits,
        ls.l2_hits,
        ls.l3_hits,
        ls.dram_fills,
        repr(ls.cycles),
        engine.hierarchy.demand_accesses,
        queue.stats.searches,
        queue.stats.probes,
    )


def time_scan_pair(geometry=WARM_GEOMETRY, rounds=ROUNDS):
    """Interleaved best-of timing of (per-probe, engine) failed deep scans.

    One warm session per engine; each timed round runs SCANS idempotent
    failed searches. Both sessions execute the same operation count, so
    their final simulated signatures must agree exactly — asserted before
    returning.
    """
    engines = (PerProbeEngine, MatchEngine)
    sessions = {cls: build_session(cls, geometry) for cls in engines}
    probe = _probe()
    best = {cls: float("inf") for cls in engines}
    for _ in range(rounds):
        for cls in engines:
            _, queue = sessions[cls]
            match_remove = queue.match_remove
            t0 = time.perf_counter()
            for _ in range(SCANS):
                match_remove(probe)
            best[cls] = min(best[cls], time.perf_counter() - t0)
    sig_probe = _signature(*sessions[PerProbeEngine])
    sig_run = _signature(*sessions[MatchEngine])
    assert sig_probe == sig_run, (
        f"load_run diverged from per-probe loads: {sig_run} != {sig_probe}"
    )
    engine_run = sessions[MatchEngine][0]
    assert engine_run.runs > 0, "engine session charged no runs"
    assert sessions[PerProbeEngine][0].runs == 0
    return best[PerProbeEngine], best[MatchEngine], engine_run


SCENARIOS = (
    ("warm (1 MiB L1)", WARM_GEOMETRY),
    ("cold (32 KiB L1)", {}),
)


def test_queue_scan_speedup(once):
    def run():
        return {name: time_scan_pair(geometry) for name, geometry in SCENARIOS}

    results = once(run)
    rows = []
    for name, (probe_s, run_s, engine) in results.items():
        scan_us = run_s / SCANS * 1e6
        rows.append(
            (
                name,
                round(probe_s * 1e3, 2),
                round(run_s * 1e3, 2),
                round(scan_us, 1),
                f"{engine.fast_runs}/{engine.runs}",
                round(probe_s / run_s, 2),
            )
        )
    emit(
        render_table(
            ["scenario", "per-probe ms", "load_run ms", "us/scan", "fast runs", "speedup"],
            rows,
            title="LLA(k=8) depth-%d failed scan: load_run vs per-probe (best-of-%d)"
            % (DEPTH, ROUNDS),
        )
    )
    # The gate: warm hierarchy, where every node run takes the fast path.
    probe_s, run_s, engine = results[SCENARIOS[0][0]]
    assert engine.fast_runs > 0, "warm session never took the fast path"
    assert engine.fast_runs == engine.runs, (
        f"warm scenario replayed {engine.runs - engine.fast_runs} runs per probe"
    )
    speedup = probe_s / run_s
    for retry in range(2):
        if speedup >= MIN_SCAN_SPEEDUP:
            break
        emit(f"scan gate speedup {speedup:.2f}x below target; re-measuring")
        probe_s, run_s, _ = time_scan_pair(WARM_GEOMETRY)
        speedup = max(speedup, probe_s / run_s)
    assert speedup >= MIN_SCAN_SPEEDUP, (
        f"warm scan speedup {speedup:.2f}x < {MIN_SCAN_SPEEDUP}x"
    )
    # load_run must never be a regression, even when the residency gate
    # forces per-probe replays (15% slack for timer noise).
    for name, (probe_s, run_s, _) in results.items():
        assert run_s <= 1.15 * probe_s, f"{name}: load_run slower than per-probe"
