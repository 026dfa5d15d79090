"""Point producers: how one :class:`~repro.exp.plan.PointSpec` executes.

A producer takes the spec's flat scalar parameters, rebuilds the real
config objects (``ArchSpec``, ``LinkSpec``, ``OsuConfig``, ``AppConfig``)
**inside the executing process** — serial caller or pool worker alike —
runs the simulation, and returns a :class:`~repro.exp.plan.PointResult`.
Worker-side construction is what keeps specs tiny, picklable, and
content-hashable: the spec carries names and numbers, never live engines.

Heavy benchmark modules are imported lazily inside each producer so that
importing :mod:`repro.exp` (e.g. from the CLI's argument parsing) stays
cheap and no import cycles form with :mod:`repro.bench`.

The registry is extensible: :func:`register_producer` installs a new kind.
With the default ``fork`` start method pool workers inherit registrations;
under ``spawn`` only producers registered at import time exist worker-side.
"""

from __future__ import annotations

import time
from dataclasses import fields as dataclass_fields
from typing import Callable, Dict, Tuple, Union

from repro.arch.spec import ArchSpec
from repro.errors import ConfigurationError
from repro.exp.plan import PointResult, PointSpec

#: A producer maps (params, seed) -> PointResult.
ProducerFn = Callable[[Dict[str, object], int], PointResult]

_PRODUCERS: Dict[str, ProducerFn] = {}


def register_producer(kind: str, fn: ProducerFn) -> None:
    """Install (or replace) the producer for *kind*."""
    _PRODUCERS[kind] = fn


def producer_kinds() -> list:
    """Registered point kinds, sorted (scenario validation, ``repro list``)."""
    return sorted(_PRODUCERS)


def producer_for(kind: str) -> ProducerFn:
    """Look up a producer; raises ConfigurationError for unknown kinds."""
    try:
        return _PRODUCERS[kind]
    except KeyError:
        raise ConfigurationError(
            f"no producer registered for point kind {kind!r}; known: {sorted(_PRODUCERS)}"
        ) from None


def execute_point(spec: PointSpec, fault=None, allow_hard_crash: bool = False) -> PointResult:
    """Run one spec in the current process (the pool-worker entry point).

    ``fault`` is an optional :class:`~repro.faults.FaultAction` the
    supervisor resolved for this (point, attempt); it is triggered *before*
    the producer runs, so injection can never perturb a computation it does
    not abort. ``allow_hard_crash`` tells a ``crash`` fault the process is
    an expendable pool worker (in-process callers get a raise instead).
    """
    if fault is not None:
        fault.trigger(allow_hard_crash=allow_hard_crash)
    fn = producer_for(spec.kind)
    start = time.perf_counter()
    result = fn(spec.kwargs, spec.seed)
    result.elapsed_s = time.perf_counter() - start
    return result


# -- arch / link encoding ------------------------------------------------------

#: ArchSpec fields a spec may carry when the arch is not a named preset.
_ARCH_FIELDS = tuple(
    f.name for f in dataclass_fields(ArchSpec) if f.name != "extras"
)


def encode_arch(arch: ArchSpec) -> Union[str, Tuple[Tuple[str, object], ...]]:
    """A spec-safe encoding of an architecture.

    Named presets encode as their name (compact, readable cache keys);
    anything else — e.g. the tiny synthetic archs the tests build — encodes
    as the full scalar field tuple so the worker can reconstruct it.
    ``extras`` (a free-form annotation dict, unused by the simulation) is
    not carried.
    """
    from repro.arch.presets import ALL_ARCHS

    preset = ALL_ARCHS.get(arch.name)
    if preset is not None and preset == arch:
        return arch.name
    return tuple((name, getattr(arch, name)) for name in _ARCH_FIELDS)


def resolve_arch(encoded) -> ArchSpec:
    """Inverse of :func:`encode_arch` (preset name or field tuple)."""
    if isinstance(encoded, str):
        from repro.arch.presets import get_arch

        return get_arch(encoded)
    return ArchSpec(**dict(encoded))


# -- producers -----------------------------------------------------------------


def _osu_producer(params: Dict[str, object], seed: int) -> PointResult:
    """The modified OSU bandwidth benchmark: one (size, depth) grid point."""
    from repro.bench.osu import OsuConfig, osu_bandwidth
    from repro.mem.cache import WayPartition
    from repro.mem.hierarchy import NetworkCacheConfig
    from repro.net.link import get_link

    partition_ways = params.get("partition_ways")
    network_cache_bytes = params.get("network_cache_bytes")
    cfg = OsuConfig(
        arch=resolve_arch(params["arch"]),
        link=get_link(params["link"]),
        queue_family=params.get("queue_family", "baseline"),
        heated=bool(params.get("heated", False)),
        msg_bytes=int(params.get("msg_bytes", 1)),
        search_depth=int(params.get("search_depth", 0)),
        iterations=int(params.get("iterations", 10)),
        warmup=int(params.get("warmup", 2)),
        seed=seed,
        fragmented=bool(params.get("fragmented", False)),
        partition=WayPartition(network_ways=int(partition_ways)) if partition_ways else None,
        network_cache=(
            NetworkCacheConfig(size_bytes=int(network_cache_bytes))
            if network_cache_bytes
            else None
        ),
        prefetch_enabled=bool(params.get("prefetch_enabled", True)),
        prefetcher=params.get("prefetcher"),
    )
    point = osu_bandwidth(cfg)
    return PointResult(
        y=point.mibps,
        yerr=point.mibps_std,
        mem_stats=point.mem_stats,
        extras={
            "latency_us": point.latency_us,
            "network_bound": float(point.network_bound),
            "match_cycles_mean": point.match_cycles.mean,
        },
    )


def _app_producer(params: Dict[str, object], seed: int) -> PointResult:
    """One proxy-application run (Figures 8-10)."""
    from repro.apps import build_app
    from repro.apps.base import AppConfig
    from repro.net.link import get_link

    app = build_app(
        str(params["app"]),
        match_list_length=params.get("match_list_length"),
    )
    cfg = AppConfig(
        arch=resolve_arch(params["arch"]),
        nranks=int(params["nranks"]),
        link=get_link(params["link"]),
        queue_family=params.get("queue_family", "baseline"),
        heated=bool(params.get("heated", False)),
        fragmented=bool(params.get("fragmented", False)),
        seed=seed,
    )
    result = app.run(cfg)
    return PointResult(
        y=result.runtime_s,
        extras={
            "compute_s": result.compute_s,
            "comm_s": result.comm_s,
            "match_cycles_per_msg": result.match_cycles_per_msg,
        },
    )


def _heater_micro_producer(params: Dict[str, object], seed: int) -> PointResult:
    """Section 4.3 random-access micro-benchmark (cold + hot in one point).

    Cold and hot runs share one RNG stream inside
    :func:`~repro.bench.heater_micro.heater_microbenchmark`, so they are a
    single point: splitting them would change the drawn access patterns.
    """
    from repro.bench.heater_micro import heater_microbenchmark

    result = heater_microbenchmark(
        resolve_arch(params["arch"]),
        region_bytes=int(params.get("region_bytes", 4 * 1024 * 1024)),
        samples=int(params.get("samples", 2048)),
        seed=seed,
    )
    return PointResult(
        y=result.cold_ns,
        extras={"hot_ns": result.hot_ns, "speedup": result.speedup},
    )


def _colocated_producer(params: Dict[str, object], seed: int) -> PointResult:
    """One (mechanism, co-located rank count) cell of the pressure study."""
    from repro.bench.colocated import colocated_point

    cycles = colocated_point(
        resolve_arch(params["arch"]),
        str(params["mechanism"]),
        int(params["ranks"]),
        depth=int(params.get("depth", 2048)),
        working_set_bytes=int(params.get("working_set_bytes", 4 * 1024 * 1024)),
        iterations=int(params.get("iterations", 2)),
        seed=seed,
    )
    return PointResult(y=cycles)


def _traffic_producer(params: Dict[str, object], seed: int) -> PointResult:
    """One open-loop traffic run (overload figures; see repro.traffic).

    The point's y value is the measured phase's ``metric`` (p99 sojourn by
    default); every other measured-phase statistic rides along in extras,
    so exported sweeps carry the full loss-system picture per point. A
    ``queue_capacity`` of 0 (TOML has no null) means unbounded.
    """
    from repro.traffic import TrafficConfig, run_traffic

    capacity = int(params.get("queue_capacity", 0))
    cfg = TrafficConfig(
        arch=resolve_arch(params["arch"]),
        queue_family=params.get("queue_family", "baseline"),
        heated=bool(params.get("heated", False)),
        fragmented=bool(params.get("fragmented", False)),
        seed=seed,
        arrival_rate=float(params.get("arrival_rate", 0.2)),
        zipf_alpha=float(params.get("zipf_alpha", 1.0)),
        n_tags=int(params.get("n_tags", 64)),
        nranks=int(params.get("nranks", 1024)),
        msg_bytes=int(params.get("msg_bytes", 1024)),
        n_warmup=int(params.get("n_warmup", 200)),
        n_measured=int(params.get("n_measured", 1000)),
        queue_capacity=capacity if capacity > 0 else None,
        admission=str(params.get("admission", "drop-tail")),
        recv_window=int(params.get("recv_window", 64)),
        search_depth=int(params.get("search_depth", 0)),
        flush_every=int(params.get("flush_every", 0)),
    )
    result = run_traffic(cfg)
    measured = result.measured
    metric = str(params.get("metric", "p99_sojourn_us"))
    extras = measured.as_dict()
    extras["heater_passes"] = float(result.heater_passes)
    return PointResult(
        y=measured.metric(metric),
        mem_stats=result.mem_stats,
        extras=extras,
    )


def _offload_producer(params: Dict[str, object], seed: int) -> PointResult:
    """One (matching engine, queue depth) cell of the offload-cliff study."""
    import numpy as np

    from repro.matching import Envelope, MatchEngine, MatchItem, make_pattern, make_queue
    from repro.offload import BXI_LIKE, PSM2_LIKE, OffloadedMatchQueue

    nics = {"software-only": None, "psm2-like": PSM2_LIKE, "bxi-like": BXI_LIKE}
    nic_name = str(params.get("nic", "software-only"))
    if nic_name not in nics:
        raise ConfigurationError(f"unknown offload nic {nic_name!r}; known: {sorted(nics)}")
    nic = nics[nic_name]
    arch = resolve_arch(params["arch"])
    depth = int(params["depth"])
    hier = arch.build_hierarchy()
    engine = MatchEngine(hier)
    q = make_queue("baseline", port=engine, rng=np.random.default_rng(seed + 1))
    if nic is not None:
        q = OffloadedMatchQueue(q, nic, engine=engine, ghz=arch.ghz)
    for seq in range(depth):
        q.post(make_pattern(0, 10_000 + seq, 0, seq=seq))
    q.post(make_pattern(1, 7, 0, seq=depth + 5))
    hier.flush()
    probe = MatchItem.from_envelope(Envelope(1, 7, 0), seq=999_999)
    _, cycles = engine.timed(lambda: q.match_remove(probe))
    return PointResult(y=float(cycles))


register_producer("osu", _osu_producer)
register_producer("app", _app_producer)
register_producer("heater-micro", _heater_micro_producer)
register_producer("colocated", _colocated_producer)
register_producer("offload", _offload_producer)
register_producer("traffic", _traffic_producer)
