"""The custom cache-heater micro-benchmark (paper section 4.3).

    "When we run a simple cache heating benchmark on Broadwell with a random
    access pattern, we observe nearly a doubling of throughput (reducing the
    iteration runtime from 38.5 ns to 22.8 ns) which is similar to the Sandy
    Bridge results (which reduce 47.5 ns to 22.9 ns)."

One iteration reads a random line of a working region and does a little
fixed work (index generation, the throwaway sum). Random *independent*
accesses enjoy memory-level parallelism (unlike list traversal), so the
memory component is divided by the architecture's ``random_access_mlp``.
Cold iterations miss to DRAM; heated iterations hit the heater-refreshed
shared L3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.spec import ArchSpec
from repro.hotcache.heater import Heater, HeaterConfig
from repro.mem.alloc import Allocation
from repro.mem.layout import LINE_SIZE

#: Fixed per-iteration work (loop control + RNG + accumulate), nanoseconds.
FIXED_WORK_NS = 18.0


@dataclass(frozen=True)
class HeaterMicroResult:
    """Cold/hot ns-per-iteration of the section 4.3 micro-benchmark."""
    arch: str
    region_bytes: int
    cold_ns: float
    hot_ns: float

    @property
    def speedup(self) -> float:
        """cold/hot iteration-time ratio."""
        return self.cold_ns / self.hot_ns


def heater_microbenchmark(
    arch: ArchSpec,
    *,
    region_bytes: int = 4 * 1024 * 1024,
    samples: int = 2048,
    seed: int = 0,
) -> HeaterMicroResult:
    """Measure mean random-access iteration time, cold vs heated."""
    rng = np.random.default_rng(seed)
    base = 0x4000_0000
    nlines = region_bytes // LINE_SIZE

    def measure(heated: bool) -> float:
        hier = arch.build_hierarchy()
        heater = None
        if heated:
            heater = Heater(hier, arch.ghz, HeaterConfig(locked=False))
            heater.regions.add(Allocation(base, region_bytes))
            heater.force_pass(0.0)
        total_cycles = 0.0
        lines = rng.integers(0, nlines, size=samples)
        for i, line in enumerate(lines):
            addr = base + int(line) * LINE_SIZE
            total_cycles += hier.access(0, addr, 4)
            # A cold run keeps missing: the benchmark region is much larger
            # than the private caches, and the cold case flushes private
            # levels so reuse cannot hide the misses we want to observe.
            if not heated and (i & 0x3F) == 0x3F:
                hier.flush()
        mem_ns = arch.ns(total_cycles / samples) / arch.random_access_mlp
        return FIXED_WORK_NS + mem_ns

    return HeaterMicroResult(
        arch=arch.name,
        region_bytes=region_bytes,
        cold_ns=measure(False),
        hot_ns=measure(True),
    )


def heater_micro_plan(
    archs,
    *,
    region_bytes: int = 4 * 1024 * 1024,
    samples: int = 2048,
    seed: int = 0,
):
    """The micro-benchmark as a declarative plan (scenario ``heater-micro``).

    Cold and hot measurements share one RNG stream, so each arch is a
    single ``heater-micro`` point (y = cold ns, ``extras["hot_ns"]``).
    """
    from repro.scenarios import get_scenario

    base = {"region_bytes": int(region_bytes), "samples": int(samples)}
    return (
        get_scenario("heater-micro")
        .with_overrides(base=base, matrix={"arch": list(archs)}, seed=seed)
        .expand()
    )
