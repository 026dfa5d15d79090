"""Per-layer span tracer for the benchmark's traced run.

The tracer times the program from the outside: it replaces the public entry
points of each layer (named by module, see :data:`LAYERS`) with wrappers
that record a span per call, and restores the originals on
:meth:`Tracer.uninstall`. No program file knows it is being traced.

A span opens only when a call crosses into a *different* layer: a layer
calling its own public functions (``access_tx`` calling ``access_lines``,
a bounded queue calling its inner queue) stays inside the outer span, so
``<layer>.calls`` counts entries into the layer. A layer's self time is its
spans' duration minus the duration of their child spans; the time of the
benchmark's own loop, outside every span, is ``unattributed``. Layer self
times plus unattributed time therefore add up to the traced wall time.

Spans are kept in memory as flat columns (id, layer, start, end, parent id,
point id) and written out once, by :meth:`Tracer.write`, when the run ends.
Simulated counts are read at the same boundaries: from wrapper return
values (unexpected arrivals, engine lines) and from the counters of the
hierarchies, heaters and queues a point built, harvested when the point
ends (:meth:`Tracer.end_point`).
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional

#: Program layers, named by module. Index = layer id in the span columns.
LAYERS = (
    "exp",
    "bench",
    "decomp",
    "traffic",
    "mpi",
    "matching",
    "matching.engine",
    "mem",
    "hotcache",
)
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

#: Simulated counts harvested per point, in report order.
COUNT_KEYS = (
    "arrivals",
    "unexpected",
    "searches",
    "probes",
    "found",
    "engine_lines",
    "demand_accesses",
    "l1_hits", "l1_accesses",
    "l2_hits", "l2_accesses",
    "l3_hits", "l3_accesses",
    "dram_fills",
    "prefetch_fills", "prefetch_hits",
    "heater_passes", "heater_lines", "heater_refreshed", "heater_busy_cycles",
)


def _line_extent(addr: int, nbytes: int) -> int:
    """Cache lines covered by [addr, addr+nbytes) (64-byte lines)."""
    if nbytes <= 0:
        return 0
    return ((addr + nbytes - 1) >> 6) - (addr >> 6) + 1


class Tracer:
    """Installs layer wrappers, records spans, and accumulates counts."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        self._patches: list = []
        self._next_id = 0
        self.point = 0
        # Span columns, appended as spans close.
        self.span_id = array("i")
        self.span_layer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_point = array("i")
        self.counts: Dict[str, float] = {}
        self.reset_totals()
        # Objects a point built, harvested (then dropped) at point end.
        self._hierarchies: Dict[int, object] = {}
        self._heaters: Dict[int, object] = {}
        self._queues: Dict[int, object] = {}

    # -- accumulators ------------------------------------------------------

    def reset_totals(self) -> None:
        """Zero per-layer self time, calls and counts (start of a rep)."""
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.root_s = 0.0
        # Cleared in place: the count hooks hold a reference to this dict.
        self.counts.update(dict.fromkeys(COUNT_KEYS, 0))

    def totals(self) -> dict:
        """Snapshot of the accumulators since :meth:`reset_totals`."""
        return {
            "self_s": dict(zip(LAYERS, self.self_s)),
            "calls": dict(zip(LAYERS, self.calls)),
            "root_s": self.root_s,
            "counts": dict(self.counts),
        }

    # -- spans ---------------------------------------------------------------

    def _traced(self, layer: str, fn: Callable, before=None, after=None) -> Callable:
        """Wrap *fn* so each outermost call into *layer* records a span.

        *before(args)* runs before the call and its value is handed to
        *after(args, result, state)*, which runs after a normal return.
        """
        lid = _LAYER_ID[layer]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == lid:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = [lid, 0.0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, start, end)
            if after is not None:
                after(args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: list, start: float, end: float) -> None:
        lid, child_s, sid = frame
        duration = end - start
        self.self_s[lid] += duration - child_s
        self.calls[lid] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent_id = parent[2]
        else:
            self.root_s += duration
            parent_id = -1
        self.span_id.append(sid)
        self.span_layer.append(lid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent_id)
        self.span_point.append(self.point)

    # -- points ----------------------------------------------------------------

    def end_point(self) -> None:
        """Harvest the finished point's simulated counters; next point id."""
        c = self.counts
        for hier in self._hierarchies.values():
            c["demand_accesses"] += hier.demand_accesses
            caches = [hier.l3]
            for core in hier.cores:
                c["l1_hits"] += core.l1.stats.hits
                c["l1_accesses"] += core.l1.stats.accesses
                c["l2_hits"] += core.l2.stats.hits
                c["l2_accesses"] += core.l2.stats.accesses
                caches += [core.l1, core.l2]
                if core.netcache is not None:
                    caches.append(core.netcache)
            c["l3_hits"] += hier.l3.stats.hits
            c["l3_accesses"] += hier.l3.stats.accesses
            c["dram_fills"] += hier.l3.stats.misses
            for cache in caches:
                c["prefetch_fills"] += cache.stats.prefetch_fills
                c["prefetch_hits"] += cache.stats.prefetch_hits
        for heater in self._heaters.values():
            c["heater_passes"] += heater.passes
            c["heater_lines"] += heater.lines_touched
            c["heater_refreshed"] += heater.lines_refreshed
            c["heater_busy_cycles"] += heater.busy_cycles
        seen_stats = {}
        for queue in self._queues.values():
            seen_stats[id(queue.stats)] = queue.stats
        for stats in seen_stats.values():
            c["searches"] += stats.searches
            c["probes"] += stats.probes
            c["found"] += stats.matches
        self._hierarchies.clear()
        self._heaters.clear()
        self._queues.clear()
        self.point += 1

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, name: str, layer: str, **hooks) -> None:
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self._traced(layer, original, **hooks))

    def _patch_init(self, cls, registry: Dict[int, object], instance_layer=None, names=()) -> None:
        """Register every instance *cls* builds; optionally wrap bound
        methods the constructor installs on the instance (kernel dispatch)."""
        original = cls.__dict__["__init__"]
        tracer = self

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            registry[id(obj)] = obj
            if instance_layer is not None:
                own = obj.__dict__
                for name in names:
                    if name in own:
                        own[name] = tracer._traced(instance_layer, own[name])

        self._patches.append((cls, "__init__", original))
        cls.__init__ = __init__

    def install(self) -> None:
        """Wrap every layer boundary (idempotent per tracer)."""
        if self._patches:
            return
        import repro.bench.osu as osu
        import repro.decomp.bench as decomp_bench
        import repro.matching as matching
        from repro.exp.runner import Runner
        from repro.hotcache.heater import Heater
        from repro.hotcache.wrapper import HeatedQueue
        from repro.matching.base import MatchQueue
        from repro.matching.engine import MatchEngine
        from repro.mem.hierarchy import MemoryHierarchy
        from repro.mpi.process import MpiProcess
        from repro.traffic.driver import TrafficDriver

        counts = self.counts

        self._patch(Runner, "run", "exp")
        self._patch(osu, "osu_bandwidth", "bench")
        self._patch(decomp_bench, "run_decomposition", "decomp")
        self._patch(TrafficDriver, "run_open", "traffic")
        self._patch(TrafficDriver, "run_closed", "traffic")

        def arrival(args, result, state):
            counts["arrivals"] += 1
            if result is None:
                counts["unexpected"] += 1

        self._patch(MpiProcess, "post_recv", "mpi")
        self._patch(MpiProcess, "handle_arrival", "mpi", after=arrival)

        for cls in _queue_families(matching):
            for name in ("post", "match_remove"):
                if name in cls.__dict__:
                    self._patch(cls, name, "matching")

        def demand(args):
            return args[0].hierarchy.demand_accesses

        def load_lines(args, result, before):
            counts["engine_lines"] += args[0].hierarchy.demand_accesses - before

        def store_lines(args, result, state):
            counts["engine_lines"] += _line_extent(args[1], args[2])

        for name in ("load", "load_run", "hint"):
            self._patch(MatchEngine, name, "matching.engine", before=demand, after=load_lines)
        self._patch(MatchEngine, "store", "matching.engine", after=store_lines)

        mem_names = tuple(
            name
            for name, value in vars(MemoryHierarchy).items()
            if callable(value)
            and (name == "flush" or name.startswith(("access", "write", "touch_shared")))
        )
        for name in mem_names:
            self._patch(MemoryHierarchy, name, "mem")
        self._patch_init(MemoryHierarchy, self._hierarchies, "mem", mem_names)

        for name in ("catch_up", "force_pass", "on_register", "on_deregister"):
            self._patch(Heater, name, "hotcache")
        self._patch(HeatedQueue, "prepare_phase", "hotcache")
        self._patch_init(Heater, self._heaters)
        self._patch_init(MatchQueue, self._queues)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ------------------------------------------------------------------

    def write(self, path, meta: Optional[dict] = None) -> int:
        """Write all recorded spans to *path* (``.npz``); returns the count."""
        import json

        import numpy as np

        np.savez_compressed(
            path,
            id=np.frombuffer(self.span_id, dtype=np.int32),
            layer=np.frombuffer(self.span_layer, dtype=np.int8),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            point=np.frombuffer(self.span_point, dtype=np.int32),
            layers=np.array(LAYERS),
            meta=np.array(json.dumps(meta or {}, sort_keys=True)),
        )
        return len(self.span_id)


def _queue_families(matching_pkg) -> list:
    """Every queue class of :mod:`repro.matching` defining post/match_remove."""
    import importlib
    import pkgutil

    out = []
    for info in pkgutil.iter_modules(matching_pkg.__path__):
        module = importlib.import_module(f"{matching_pkg.__name__}.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and ("post" in value.__dict__ or "match_remove" in value.__dict__)
                and callable(getattr(value, "match_remove", None))
            ):
                out.append(value)
    return out
