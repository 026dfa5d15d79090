"""Architecture specification and hierarchy construction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.cache import EvictionPolicy, WayPartition
from repro.mem.hierarchy import MemoryHierarchy, NetworkCacheConfig
from repro.mem.prefetch import (
    PREFETCHER_MODES,
    AdjacentPairPrefetcher,
    NextLinePrefetcher,
    PointerChasePrefetcher,
    StreamerPrefetcher,
)

_MODE_NAMES = tuple(name for name, _ in PREFETCHER_MODES)


@dataclass(frozen=True)
class ArchSpec:
    """Cache/latency description of one processor generation.

    Latencies are load-to-use cycles; they follow published figures for each
    generation closely enough for the study (absolute numbers are simulator
    scale; orderings — e.g. Broadwell's L3 slower than Sandy Bridge's — are
    what the reproduction depends on).
    """

    name: str
    ghz: float
    cores_per_socket: int
    l1_size: int = 32 * 1024
    l1_assoc: int = 8
    l1_latency: float = 4.0
    l2_size: int = 256 * 1024
    l2_assoc: int = 8
    l2_latency: float = 12.0
    l3_size: int = 20 * 1024 * 1024
    l3_assoc: int = 16
    l3_latency: float = 30.0
    dram_latency: float = 200.0
    # Prefetcher capabilities. Sandy Bridge and Broadwell both have the four
    # prefetch units the paper describes; Nehalem's streamer is weaker; KNL
    # has no L3 and a simpler L2 prefetcher.
    has_adjacent_pair: bool = True
    streamer_max_distance: int = 4
    # Largest forward line-jump the streamer rides through without dropping
    # the stream (Broadwell's streamer is markedly more tolerant).
    streamer_max_step: int = 2
    # Fraction of source latency a timely prefetch hides, by source. The
    # Sandy Bridge/Broadwell contrast of section 4.3 lives here: SNB's
    # core-clock L3 streams well (high l3 coverage); BDW's decoupled LLC
    # does not, while its improved streamer covers DRAM streams better.
    dram_stream_coverage: float = 0.75
    l3_stream_coverage: float = 0.75
    # Memory-level parallelism for *independent* random accesses (the heater
    # micro-benchmark of section 4.3; list traversal gets no MLP because it
    # is serial pointer chasing). Broadwell sustains more outstanding misses.
    random_access_mlp: float = 2.5
    # Per-message software overhead of the MPI library's receive path outside
    # matching (header processing, completion, memcpy setup), in cycles.
    sw_overhead_cycles: float = 2200.0
    # Amortized copy throughput for message payloads, cycles per byte.
    copy_cycles_per_byte: float = 0.05
    description: str = ""
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.ghz <= 0:
            raise ConfigurationError(f"{self.name}: ghz must be positive")
        if self.cores_per_socket < 1:
            raise ConfigurationError(f"{self.name}: need at least one core")

    # -- conversions --------------------------------------------------------

    def cycles(self, ns: float) -> float:
        """Nanoseconds -> cycles on this architecture."""
        return ns * self.ghz

    def ns(self, cycles: float) -> float:
        """Cycles -> nanoseconds on this architecture."""
        return cycles / self.ghz

    def seconds(self, cycles: float) -> float:
        """Cycles -> seconds on this architecture."""
        return self.ns(cycles) * 1e-9

    # -- construction --------------------------------------------------------

    def build_hierarchy(
        self,
        *,
        n_cores: int = 2,
        policy: str = EvictionPolicy.LRU,
        partition: Optional[WayPartition] = None,
        network_cache: Optional[NetworkCacheConfig] = None,
        rng: Optional[np.random.Generator] = None,
        prefetch_enabled: bool = True,
        prefetcher: Optional[str] = None,
    ) -> MemoryHierarchy:
        """Instantiate a simulated socket of this architecture.

        *n_cores* defaults to 2: one matching core plus one heater core; the
        figures never need more on a single socket. ``prefetcher`` selects
        a prefetch-unit configuration from
        :data:`~repro.mem.prefetch.PREFETCHER_MODES` (``default``/``none``/
        ``chase``/``chase-only``); None falls back to the boolean
        *prefetch_enabled* knob, which predates the modes and maps to
        ``default``/``none``.
        """
        if n_cores > self.cores_per_socket:
            raise ConfigurationError(
                f"{self.name} has {self.cores_per_socket} cores per socket, "
                f"requested {n_cores}"
            )
        if prefetcher is None:
            mode = "default" if prefetch_enabled else "none"
        elif prefetcher in _MODE_NAMES:
            mode = prefetcher
        else:
            raise ConfigurationError(
                f"unknown prefetcher mode {prefetcher!r}; "
                f"expected one of {', '.join(_MODE_NAMES)}"
            )
        with_defaults = mode in ("default", "chase")
        with_chase = mode in ("chase", "chase-only")

        def l1_pf() -> list:
            return [NextLinePrefetcher()] if with_defaults else []

        def l2_pf() -> list:
            units: list = []
            if with_defaults:
                if self.has_adjacent_pair:
                    units.append(AdjacentPairPrefetcher())
                if self.streamer_max_distance > 0:
                    units.append(
                        StreamerPrefetcher(
                            max_distance=self.streamer_max_distance,
                            max_step=self.streamer_max_step,
                        )
                    )
            if with_chase:
                units.append(PointerChasePrefetcher())
            return units

        return MemoryHierarchy(
            n_cores=n_cores,
            l1_size=self.l1_size,
            l1_assoc=self.l1_assoc,
            l1_latency=self.l1_latency,
            l2_size=self.l2_size,
            l2_assoc=self.l2_assoc,
            l2_latency=self.l2_latency,
            l3_size=self.l3_size,
            l3_assoc=self.l3_assoc,
            l3_latency=self.l3_latency,
            dram_latency=self.dram_latency,
            policy=policy,
            l1_prefetcher_factory=l1_pf,
            l2_prefetcher_factory=l2_pf,
            partition=partition,
            network_cache=network_cache,
            rng=rng,
            dram_stream_coverage=self.dram_stream_coverage,
            l3_stream_coverage=self.l3_stream_coverage,
        )
