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
frequently adjacent. :meth:`MemoryPort.load_run` charges one such run —
``probes`` equal-stride loads covering ``nbytes`` at ``addr`` — in a single
port call, and :meth:`begin_scan`/:meth:`end_scan` bracket a header+slots
pair so the port may coalesce them into one transaction. The contract is
strict equivalence: ``load_run(addr, nbytes, probes)`` must leave every
observable (counters, charged cycles, cache state, RNG consumption)
**bit-identical** to the per-slot spelling::

    stride = nbytes // probes
    for i in range(probes):
        port.load(addr + i * stride, stride)

Ports that cannot batch simply inherit the default, which *is* that loop.
Queues consult :attr:`MemoryPort.scan_batch` to decide which spelling to
emit; ``REPRO_SCAN_BATCH=off`` (or ``MatchEngine(scan_batch=False)``)
selects the retained per-slot path.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.errors import ConfigurationError

#: Environment variable selecting the scan spelling queues emit.
SCAN_BATCH_ENV = "REPRO_SCAN_BATCH"

#: Scan batching is on unless an argument or the environment disables it.
DEFAULT_SCAN_BATCH = True


def resolve_scan_batch(value: Optional[Union[bool, str]] = None) -> bool:
    """Resolve the scan-batch mode: argument beats environment beats default.

    Accepts booleans or the strings ``"on"``/``"off"`` (the CLI and
    environment spelling).
    """
    if value is None:
        value = os.environ.get(SCAN_BATCH_ENV) or DEFAULT_SCAN_BATCH
    if isinstance(value, bool):
        return value
    if value == "on":
        return True
    if value == "off":
        return False
    raise ConfigurationError(
        f"unknown scan-batch mode {value!r}; expected 'on' or 'off'"
    )


class MemoryPort:
    """Interface: queues call these for every simulated memory operation."""

    #: Whether queues should emit batched scan runs (``load_run``) instead of
    #: per-slot ``load`` calls against this port. Both spellings are charged
    #: identically; this only selects which code path runs. Instances may
    #: override (the MatchEngine resolves it per ``REPRO_SCAN_BATCH``).
    scan_batch: bool = DEFAULT_SCAN_BATCH

    #: True when :meth:`hint` provably has no observable effect on this
    #: port (no prefetcher, no counter), letting batched scans skip
    #: emitting hints altogether. Ports that count hints (NullPort) or may
    #: act on them must leave this False so the hint stream stays
    #: mode-invariant.
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
        many bytes ending exactly at *addr* — to the run: the direct
        spelling of the header+slots coalescing the
        :meth:`begin_scan`/:meth:`end_scan` bracket expresses compositely.
        The default implementation is that loop; ports with a cheaper
        equivalent override it.
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

    def begin_scan(self) -> None:
        """Open a scan bracket: the port may defer one header load so an
        immediately following contiguous :meth:`load_run` can absorb it.
        Default: no-op (ports without coalescing need no bracket)."""

    def end_scan(self) -> None:
        """Close a scan bracket, flushing any deferred header load."""

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

    __slots__ = (
        "loads", "stores", "hints", "bytes_loaded", "bytes_stored",
        "runs", "run_probes", "scan_batch",
    )

    def __init__(self, scan_batch: Optional[Union[bool, str]] = None) -> None:
        self.scan_batch = resolve_scan_batch(scan_batch)
        self.loads = 0
        self.stores = 0
        self.hints = 0
        self.bytes_loaded = 0
        self.bytes_stored = 0
        # Diagnostics only: how much traffic arrived as batched runs. The
        # shared load/byte counters above are mode-invariant by contract.
        self.runs = 0
        self.run_probes = 0

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
        """O(1) run accounting: counts exactly like the per-slot loads."""
        if header_nbytes:
            self.loads += 1
            self.bytes_loaded += header_nbytes
        if probes <= 0:
            return
        if nbytes % probes:
            raise ConfigurationError(
                f"load_run of {nbytes} bytes is not {probes} equal strides"
            )
        nloads = probes + 1 if header_nbytes else probes
        self.loads += probes
        self.bytes_loaded += nbytes
        self.runs += 1
        self.run_probes += nloads

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
        self.runs = 0
        self.run_probes = 0


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
