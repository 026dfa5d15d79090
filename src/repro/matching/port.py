"""Memory ports: where queue traversals send their loads.

A :class:`MemoryPort` receives every load/store a match queue performs while
searching or mutating. The production port is
:class:`~repro.matching.engine.MatchEngine` (cycle-accounted cache
hierarchy); :class:`NullPort` is free and counts operations only, for
semantics tests and the pure search-depth studies (Table 1, Figure 1).

Scan transactions
-----------------

Queue searches walk *contiguous runs*: an LLA node packs ``k`` entries
behind one header (paper section 3.1), and heap-allocated list nodes are
frequently adjacent. Every queue family decides its match host-side and
charges the slots it inspected through :meth:`MemoryPort.load_run` — one
port call per run of ``probes`` equal-stride loads covering ``nbytes`` at
``addr``, optionally led by a header probe. The default implementation is
the per-probe loop::

    stride = nbytes // probes
    for i in range(probes):
        port.load(addr + i * stride, stride)

and it is the oracle for every override: a port's ``load_run`` must leave
every observable (counters, charged cycles, cache state, RNG consumption)
**bit-identical** to it.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError


def resolve_scan_batch(value: Optional[bool] = None) -> bool:
    """The queue-scan spelling: always batched ``load_run`` runs (``True``).

    Any non-None *value* raises :class:`ConfigurationError`.
    """
    if value is not None:
        raise ConfigurationError(
            f"unknown queue-scan mode {value!r}; queues always scan in runs"
        )
    return True


class MemoryPort:
    """Interface: queues call these for every simulated memory operation."""

    #: True when :meth:`hint` provably has no observable effect on this
    #: port (no prefetcher, no counter), letting scans skip emitting hints
    #: altogether. Ports that count hints (NullPort) or may act on them
    #: must leave this False; a queue whose hints run ahead of a pointer
    #: chase then interleaves them with its loads.
    hint_is_noop: bool = False

    def load(self, addr: int, nbytes: int) -> None:
        """Record/charge a load of *nbytes* at *addr*."""
        raise NotImplementedError

    def load_run(
        self,
        addr: int,
        nbytes: int,
        probes: int,
        spacing: Optional[int] = None,
        header_nbytes: int = 0,
    ) -> None:
        """Record/charge a contiguous scan run: *probes* equal loads.

        Semantically identical to ``probes`` successive :meth:`load` calls
        of ``size = nbytes // probes`` bytes each, the *i*-th at ``addr + i
        * spacing`` (``probes`` must divide ``nbytes`` evenly). *spacing*
        defaults to *size* — back-to-back slots; a larger spacing models
        fixed-stride node layouts (allocation headers between list nodes)
        and must be ``>= size`` so probe footprints never overlap. A
        nonzero *header_nbytes* prepends a header probe — a load of that
        many bytes ending exactly at *addr* — to the run. The default
        implementation is that loop; ports with a cheaper equivalent
        override it and must validate exactly as it does.
        """
        if header_nbytes:
            self.load(addr - header_nbytes, header_nbytes)
        if probes <= 0:
            return
        size, rem = divmod(nbytes, probes)
        if rem or size <= 0:
            raise ConfigurationError(
                f"load_run of {nbytes} bytes is not {probes} equal strides"
            )
        if spacing is None:
            spacing = size
        elif spacing < size:
            raise ConfigurationError(
                f"load_run spacing {spacing} overlaps {size}-byte probes"
            )
        for _ in range(probes):
            self.load(addr, size)
            addr += spacing

    def store(self, addr: int, nbytes: int) -> None:
        """Record/charge a store of *nbytes* at *addr*."""
        raise NotImplementedError

    def hint(self, addr: int, nbytes: int) -> None:
        """Software prefetch hint: the caller knows it will touch this
        region soon (the paper's section 6 proposal of "custom prefetching
        units that can be used by middleware such as MPI"). Default: no-op;
        the MatchEngine honours it when software prefetch is enabled."""

    def mem_stats(self):
        """Per-level hit attribution accumulated by this port, if any.

        Returns a :class:`~repro.mem.result.LevelStats` for ports backed by
        a memory hierarchy (the MatchEngine), else ``None``.
        """
        return None


class NullPort(MemoryPort):
    """Cost-free port that only counts operations."""

    __slots__ = ("loads", "stores", "hints", "bytes_loaded", "bytes_stored")

    def __init__(self) -> None:
        self.loads = 0
        self.stores = 0
        self.hints = 0
        self.bytes_loaded = 0
        self.bytes_stored = 0

    def load(self, addr: int, nbytes: int) -> None:
        """Record/charge a load of *nbytes* at *addr*."""
        self.loads += 1
        self.bytes_loaded += nbytes

    def load_run(
        self,
        addr: int,
        nbytes: int,
        probes: int,
        spacing: Optional[int] = None,
        header_nbytes: int = 0,
    ) -> None:
        """O(1) run accounting: counts and validates exactly like the
        default per-probe loop."""
        if header_nbytes:
            self.loads += 1
            self.bytes_loaded += header_nbytes
        if probes <= 0:
            return
        size, rem = divmod(nbytes, probes)
        if rem or size <= 0:
            raise ConfigurationError(
                f"load_run of {nbytes} bytes is not {probes} equal strides"
            )
        if spacing is not None and spacing < size:
            raise ConfigurationError(
                f"load_run spacing {spacing} overlaps {size}-byte probes"
            )
        self.loads += probes
        self.bytes_loaded += nbytes

    def store(self, addr: int, nbytes: int) -> None:
        """Record/charge a store of *nbytes* at *addr*."""
        self.stores += 1
        self.bytes_stored += nbytes

    def hint(self, addr: int, nbytes: int) -> None:
        """Record a software prefetch hint (cost-free on this port)."""
        self.hints += 1

    def reset(self) -> None:
        """Clear accumulated state/counters."""
        self.loads = 0
        self.stores = 0
        self.hints = 0
        self.bytes_loaded = 0
        self.bytes_stored = 0


def emit_node_runs(port: MemoryPort, addrs: list, node_bytes: int) -> None:
    """Charge equally-sized node loads at *addrs*, coalescing fixed strides.

    Maximal constant-stride stretches (``addrs[j+1] - addrs[j]`` equal and
    ``>= node_bytes``) become one :meth:`MemoryPort.load_run`; isolated
    nodes stay plain :meth:`MemoryPort.load` calls. Heap-backed queue
    families share this helper: sequential allocators place consecutive
    posts a fixed header-plus-alignment stride apart (until a foreign gap
    or a recycled hole intervenes), so scans decompose into a few runs.
    """
    i = 0
    n = len(addrs)
    load_run = port.load_run
    load = port.load
    while i < n:
        start = addrs[i]
        j = i + 1
        if j < n:
            spacing = addrs[j] - start
            if spacing >= node_bytes:
                expect = addrs[j] + spacing
                while j < n and addrs[j] == expect - spacing:
                    j += 1
                    expect += spacing
        count = j - i
        if count == 1:
            load(start, node_bytes)
        else:
            load_run(start, count * node_bytes, count, spacing)
        i = j
