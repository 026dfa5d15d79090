"""HeatedQueue: couple any match queue to a heater.

This is the integration point the paper describes for MVAPICH: "we add those
memory regions associated with the matching engine to the list of regions for
the hot caching thread". Concretely:

* every ``post`` registers the new node's region (locked design) or nothing
  (pool design, where the stable slab regions were registered up front);
* every successful ``match_remove`` deregisters the node's region before the
  queue frees it — the lock-crossing operation responsible for the HC
  slowdowns at scale in Figure 10;
* all heater-induced waits are charged to the match engine's clock.

The wrapper is duck-typed as a :class:`~repro.matching.base.MatchQueue` and
forwards everything else to the wrapped queue.

Interaction with scan runs: the engine synchronizes the heater once at the
start of every scan run (:meth:`~repro.hotcache.heater.Heater.catch_up`)
and charges the whole run under that sync only when
:meth:`~repro.hotcache.heater.Heater.quiescent_until` proves no pass could
start inside the run's projected span; otherwise it replays the run probe by
probe, syncing before each — so heated results are bit-identical to
charging every probe on its own. Heater lock charges issued here (register/
deregister) happen after the queue's ``match_remove`` has fully returned,
never inside a run.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.hotcache.heater import Heater
from repro.matching.base import MatchQueue
from repro.matching.engine import MatchEngine
from repro.matching.entry import MatchItem
from repro.matching.lla import LinkedListOfArrays


class HeatedQueue:
    """A match queue whose memory is kept hot by a heater."""

    def __init__(self, inner: MatchQueue, heater: Heater, engine: MatchEngine) -> None:
        self.inner = inner
        self.heater = heater
        self.engine = engine
        engine.attach_heater(heater)
        if isinstance(inner, LinkedListOfArrays):
            # Pool-backed structure: register the stable slabs once and keep
            # them registered; node churn never touches the region list.
            self._per_node_regions = False
            heater.region_provider = inner.regions
        else:
            # Original design: the heater tracks every node.
            self._per_node_regions = True
            heater.region_provider = inner.regions

    @property
    def family(self) -> str:
        """Queue-family label including the hc+ prefix."""
        return f"hc+{self.inner.family}"

    @property
    def stats(self):
        """The wrapped queue's search statistics."""
        return self.inner.stats

    # -- queue protocol --------------------------------------------------------

    def post(self, item: MatchItem) -> None:
        """Append *item*; its FIFO position is its posting order."""
        self.inner.post(item)
        if self._per_node_regions:
            # Registering the new node with the heater crosses the lock.
            cost = self.heater.on_register(None, self.engine.clock.now)
            if cost:
                self.engine.charge(cost)

    def match_remove(self, probe: MatchItem) -> Optional[MatchItem]:
        """Find, remove and return the earliest item matching *probe*, or None."""
        found = self.inner.match_remove(probe)
        if found is not None and self._per_node_regions:
            # The node is being freed: it must leave the heated set first.
            cost = self.heater.on_deregister(None, self.engine.clock.now)
            if cost:
                self.engine.charge(cost)
        return found

    def __len__(self) -> int:
        return len(self.inner)

    def iter_items(self) -> Iterator[MatchItem]:
        """Yield live items in FIFO (posting) order, without memory charges."""
        return self.inner.iter_items()

    def regions(self):
        """Simulated memory regions backing this structure (heater targets)."""
        return self.inner.regions()

    def footprint_bytes(self) -> int:
        """Total simulated bytes currently backing the structure."""
        return self.inner.footprint_bytes()

    # -- phase hooks -------------------------------------------------------------

    def prepare_phase(self) -> None:
        """Call at a communication-phase boundary: the heater has been running
        during the compute phase, so the match state is already hot."""
        self.heater.force_pass(self.engine.clock.now)
