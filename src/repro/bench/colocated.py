"""Co-located ranks: LLC capacity pressure vs occupancy mechanisms.

Real nodes run many MPI ranks per socket (8 on the paper's Sandy Bridge
machines); their compute phases stream through the *shared* L3 and evict
each other's state. This study puts one matched rank plus N-1 co-located
"compute" ranks on a single simulated socket and asks the paper's section
4.6 question at its sharpest: does the match list stay resident?

* **Hot caching** re-touches the list once per phase, but co-located
  compute traffic after the heater pass evicts it again when the combined
  working set exceeds the LLC — the software heater cannot win a capacity
  fight it shares the cache with.
* **A CAT-style way partition** is *semi-permanent by construction*:
  ordinary fills cannot claim the reserved ways no matter how many ranks
  stream, so matching cost stays flat as the node fills up.

This is the experiment the paper could not run on 2018 hardware, and the
strongest quantitative argument for its title.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.arch.spec import ArchSpec
from repro.hotcache.heater import Heater, HeaterConfig
from repro.hotcache.wrapper import HeatedQueue
from repro.matching.engine import MatchEngine
from repro.matching.envelope import Envelope
from repro.matching.entry import MatchItem
from repro.matching.envelope import make_pattern
from repro.matching.factory import make_queue
from repro.mem.cache import CLS_DEFAULT, WayPartition
from repro.errors import ConfigurationError

_COMPUTE_ARENA = 0x9_0000_0000


@dataclass
class ColocatedPoint:
    """Matching cost for one (mechanism, co-located rank count) cell."""

    mechanism: str
    ranks: int
    cycles_per_search: float


def _stream_compute(hier, core_id: int, base: int, nbytes: int) -> None:
    """A rank's compute phase: write a private working set through its
    core's caches and the shared LLC (streaming stores, default class)."""
    step = 64
    end = base + nbytes
    addr = base
    while addr < end:
        hier.write(core_id, addr, 8, CLS_DEFAULT)
        addr += step


def colocated_point(
    arch: ArchSpec,
    mechanism: str,
    nranks: int,
    *,
    depth: int = 2048,
    working_set_bytes: int = 4 * 1024 * 1024,
    iterations: int = 2,
    seed: int = 0,
) -> float:
    """Rank 0's mean cold-phase search cycles for one (mechanism, N) cell."""
    if nranks + 1 > arch.cores_per_socket:
        raise ConfigurationError(
            f"{arch.name} has {arch.cores_per_socket} cores; "
            f"need {nranks + 1} (ranks + heater)"
        )
    partition = WayPartition(network_ways=4) if mechanism == "cat-partition" else None
    hier = arch.build_hierarchy(
        n_cores=nranks + 1,  # + heater core
        partition=partition,
        rng=np.random.default_rng(seed + 1),
    )
    engine = MatchEngine(hier)
    q = make_queue(
        "baseline", port=engine, rng=np.random.default_rng(seed), arena_base=0x4000_0000
    )
    heater: Optional[Heater] = None
    if mechanism == "hot-caching":
        # Pool-style (unlocked) region list: this study isolates LLC
        # *residency*; the lock costs are covered elsewhere.
        heater = Heater(
            hier, arch.ghz,
            HeaterConfig(locked=False, core_id=nranks),
        )
        q = HeatedQueue(q, heater, engine)
    for i in range(depth):
        q.post(make_pattern(0, 10_000 + i, 0, seq=i))
    samples = []
    tag = depth + 100
    for it in range(iterations):
        q.post(make_pattern(1, tag, 0, seq=tag))
        # Every rank computes — including rank 0, whose own phase
        # evicts its private caches. The heater's pass lands in the
        # *middle* of the node's compute, not conveniently at its
        # end, so later compute traffic fights it for LLC capacity.
        for r in range(nranks):
            _stream_compute(hier, r, _COMPUTE_ARENA + r * (1 << 26), working_set_bytes)
        if heater is not None:
            heater.force_pass(engine.clock.now)
        for r in range(nranks):
            _stream_compute(hier, r, _COMPUTE_ARENA + r * (1 << 26), working_set_bytes)
        probe = MatchItem.from_envelope(Envelope(1, tag, 0), seq=1 << 30)
        _, cycles = engine.timed(lambda: q.match_remove(probe))
        samples.append(cycles)
        tag += 1
    return float(np.mean(samples))


def colocated_plan(
    arch: ArchSpec,
    *,
    rank_counts: Sequence[int] = (1, 2, 4, 8),
    mechanisms: Sequence[str] = ("none", "hot-caching", "cat-partition"),
    depth: int = 2048,
    working_set_bytes: int = 4 * 1024 * 1024,
    iterations: int = 2,
    seed: int = 0,
) -> "ExperimentPlan":
    """The study's grid (scenario ``colocated``; mechanism-major order)."""
    from repro.scenarios import get_scenario

    max_ranks = max(rank_counts)
    if max_ranks + 1 > arch.cores_per_socket:
        raise ConfigurationError(
            f"{arch.name} has {arch.cores_per_socket} cores; "
            f"need {max_ranks + 1} (ranks + heater)"
        )
    base = {
        "arch": arch,
        "depth": int(depth),
        "working_set_bytes": int(working_set_bytes),
        "iterations": int(iterations),
    }
    return (
        get_scenario("colocated")
        .with_overrides(
            base=base,
            matrix={"mechanism": list(mechanisms), "ranks": [int(n) for n in rank_counts]},
            seed=seed,
        )
        .expand()
    )


def run_colocated_study(
    arch: ArchSpec,
    *,
    rank_counts: Sequence[int] = (1, 2, 4, 8),
    mechanisms: Sequence[str] = ("none", "hot-caching", "cat-partition"),
    depth: int = 2048,
    working_set_bytes: int = 4 * 1024 * 1024,
    iterations: int = 2,
    seed: int = 0,
    runner=None,
) -> List[ColocatedPoint]:
    """Measure rank 0's cold-phase search cost under co-located pressure."""
    from repro.exp import Runner

    plan = colocated_plan(
        arch,
        rank_counts=rank_counts,
        mechanisms=mechanisms,
        depth=depth,
        working_set_bytes=working_set_bytes,
        iterations=iterations,
        seed=seed,
    )
    results = (runner or Runner()).run(plan)
    return [
        ColocatedPoint(spec.kwargs["mechanism"], int(spec.kwargs["ranks"]), result.y)
        for spec, result in zip(plan.points, results)
    ]
