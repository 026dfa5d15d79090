"""Abstract match queue interface and shared statistics.

Both MPI queues (PRQ and UMQ) are instances of the same structures; an item
is a wildcardable *pattern* in the PRQ and a concrete *envelope* in the UMQ,
and the symmetric rule in :func:`repro.matching.envelope.items_match` covers
both directions.

Contract (MPI semantics, paper section 2.1):

* :meth:`post` appends an item; posting order defines FIFO priority.
* :meth:`match_remove` finds **the earliest-posted** item matching the probe,
  removes it, and returns it (or ``None``). Search work is reported through
  the port (loads) and the ``probes`` counter (entries inspected).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.matching.entry import MatchItem
from repro.matching.port import MemoryPort, NullPort
from repro.mem.alloc import Allocation


@dataclass
class QueueStats:
    """Search-work counters for one queue."""

    posts: int = 0
    matches: int = 0
    failed_searches: int = 0
    probes: int = 0  # entries inspected across all searches
    last_probes: int = 0  # entries inspected by the most recent search

    @property
    def searches(self) -> int:
        """Total searches performed (matched + failed)."""
        return self.matches + self.failed_searches

    @property
    def mean_search_depth(self) -> float:
        """Mean entries inspected per search."""
        return self.probes / self.searches if self.searches else 0.0

    def record_search(self, probes: int, found: bool) -> None:
        """Account one search: *probes* entries inspected, hit or miss."""
        self.probes += probes
        self.last_probes = probes
        if found:
            self.matches += 1
        else:
            self.failed_searches += 1

    def reset(self) -> None:
        """Clear accumulated state/counters."""
        self.posts = 0
        self.matches = 0
        self.failed_searches = 0
        self.probes = 0
        self.last_probes = 0


@dataclass
class QueueConfig:
    """Common construction knobs shared by all queue families."""

    entry_bytes: int = 24
    port: MemoryPort = field(default_factory=NullPort)


class MatchQueue(ABC):
    """Base class for all match-queue organizations."""

    family: str = "abstract"

    def __init__(self, *, entry_bytes: int, port: Optional[MemoryPort] = None) -> None:
        self.entry_bytes = entry_bytes
        self.port = port if port is not None else NullPort()
        self.stats = QueueStats()

    # -- required operations -------------------------------------------------

    @abstractmethod
    def post(self, item: MatchItem) -> None:
        """Append *item* (FIFO position = posting order)."""

    @abstractmethod
    def match_remove(self, probe: MatchItem) -> Optional[MatchItem]:
        """Find, remove and return the earliest item matching *probe*."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of live (non-hole) items."""

    @abstractmethod
    def iter_items(self) -> Iterator[MatchItem]:
        """Live items in FIFO order (no memory charges; for tests/tools)."""

    # -- memory introspection -------------------------------------------------

    def regions(self) -> list[Allocation]:
        """Simulated memory regions backing the queue (heater targets)."""
        return []

    def footprint_bytes(self) -> int:
        """Total simulated bytes currently backing the structure."""
        return sum(r.size for r in self.regions())

    # -- conveniences ----------------------------------------------------------

    def peek_match(self, probe: MatchItem) -> Optional[MatchItem]:
        """Non-destructive earliest match: no removal, and nothing is
        charged — neither port loads nor search statistics."""
        # Default: subclasses that can do better may override. This base
        # version scans iter_items; only used by tools, never on the hot
        # path.
        best: Optional[MatchItem] = None
        from repro.matching.envelope import items_match

        for item in self.iter_items():
            if items_match(item, probe):
                if best is None or item.seq < best.seq:
                    best = item
                break  # iter_items is FIFO: first hit is earliest
        return best

    def drain(self) -> list[MatchItem]:
        """Remove and return all items in FIFO order (teardown helper)."""
        items = list(self.iter_items())
        for item in items:
            removed = self.match_remove(_exact_probe(item))
            if removed is None:  # pragma: no cover - defensive
                from repro.errors import MatchingError

                raise MatchingError(f"drain failed to remove {item}")
        return items


def _exact_probe(item: MatchItem) -> MatchItem:
    """A probe that matches *item* exactly (concrete fields, full masks)."""
    return MatchItem(
        seq=item.seq,
        src=item.src,
        tag=item.tag,
        cid=item.cid,
        src_mask=0xFFFFFFFF if item.src_mask else 0,
        tag_mask=0xFFFFFFFF if item.tag_mask else 0,
    )
