"""Golden digests for the cache kernel.

One seeded stream of mixed operations (demand line runs, network-class
accesses, write-allocate stores, heater touches, flushes) drives a
:class:`~repro.mem.hierarchy.MemoryHierarchy`, and everything it exposes is
hashed into one digest:

* every per-step :meth:`~repro.mem.result.AccessResult.signature`
  (``repr``-encoded floats, so cycle totals must match to the last bit);
* every per-level counter (hits/misses/evictions/prefetch fills+hits);
* occupancy, per-class occupancy, and the full recency order of every set
  of every cache, so eviction *choices*, not just eviction *counts*, are
  pinned — checked every 50 ops and at the end.

Scenarios cover the full policy matrix (LRU / tree-PLRU / RANDOM) crossed
with way-partitioning and the dedicated network cache, on deliberately tiny
geometries so sets overflow and eviction paths actually run. RANDOM-policy
drives also pin the RNG consumption order: one extra or missing draw changes
every later victim.

The digests in :data:`GOLDEN` were captured while the simulator still had
three interchangeable cache kernels, and all three produced exactly these
values; any change to a digest is a change to the simulated machine.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mem.cache import CLS_DEFAULT, CLS_NETWORK, EvictionPolicy, WayPartition
from repro.mem.hierarchy import MemoryHierarchy, NetworkCacheConfig
from repro.mem.kernel import resolve_kernel

POLICIES = (EvictionPolicy.LRU, EvictionPolicy.PLRU, EvictionPolicy.RANDOM)

#: Tiny geometries: few sets, low associativity, so a short op stream
#: overflows sets and exercises every eviction/partition/flush path.
GEOMETRY = dict(
    n_cores=2,
    l1_size=4096,
    l1_assoc=4,
    l1_latency=4.0,
    l2_size=16384,
    l2_assoc=4,
    l2_latency=12.0,
    l3_size=65536,
    l3_assoc=8,
    l3_latency=30.0,
    dram_latency=200.0,
)

N_OPS = 400

GOLDEN = {
    "ops-nonetc-nopart-lru": "90e8958a0224f814",
    "ops-nonetc-nopart-plru": "467dfb10ecd535ab",
    "ops-nonetc-nopart-random": "7972a58da3202f39",
    "ops-nonetc-part-lru": "9b7fc87ed5be962f",
    "ops-nonetc-part-plru": "b04347b817a102fe",
    "ops-nonetc-part-random": "67a2cdb318069336",
    "ops-netc-nopart-lru": "8fe3c00637c24a1d",
    "ops-netc-nopart-plru": "5e2311b006193a24",
    "ops-netc-nopart-random": "1d66257e27a9aed5",
    "ops-netc-part-lru": "dc2dd9951828aba6",
    "ops-netc-part-plru": "4edb2098d21ccdaa",
    "ops-netc-part-random": "f9b630352479b320",
    "flush-lru": "cb2d837948ee8605",
    "flush-plru": "b38788a8ae6b20b3",
    "flush-random": "b3881873bc2377bb",
    # No eviction runs here, so LRU and RANDOM leave the same state.
    "run-contiguous-lru": "185b325da1fc0ab9",
    "run-contiguous-random": "185b325da1fc0ab9",
    "run-gapped-lru": "837f26fecde9416c",
    "run-gapped-random": "837f26fecde9416c",
}


def build(policy, with_partition, with_netcache, seed=1234):
    """One hierarchy on the tiny geometry, with its own seeded RNG."""
    return MemoryHierarchy(
        policy=policy,
        partition=WayPartition(network_ways=2) if with_partition else None,
        network_cache=NetworkCacheConfig(size_bytes=2048) if with_netcache else None,
        rng=np.random.default_rng(seed),
        **GEOMETRY,
    )


def caches_of(hier):
    """Every cache in the hierarchy, labelled, in a stable order."""
    out = [("l3", hier.l3)]
    for core in hier.cores:
        out.append((core.l1.name, core.l1))
        out.append((core.l2.name, core.l2))
        if core.netcache is not None:
            out.append((core.netcache.name, core.netcache))
    return out


def state_of(hier):
    """Full observable state: counters, occupancy and recency per set."""
    out = [repr(sorted(hier.stats().items()))]
    for name, cache in caches_of(hier):
        out.append(name)
        out.append(repr([
            getattr(cache.stats, field)
            for field in ("hits", "misses", "prefetch_fills", "prefetch_hits",
                          "evictions", "flushes")
        ]))
        out.append(repr([
            cache.occupancy(),
            cache.occupancy(CLS_DEFAULT),
            cache.occupancy(CLS_NETWORK),
        ]))
        out.append(repr([cache.recency(idx) for idx in range(cache.nsets)]))
    return "\n".join(out)


class Digest:
    """Accumulates step signatures and state snapshots into one hash."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, text) -> None:
        self._h.update(str(text).encode())
        self._h.update(b"\0")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def drive(hier, digest, *, seed=99, n_ops=N_OPS):
    """Apply one seeded op stream to *hier*, recording into *digest*.

    The mix is weighted toward demand line runs (the hot path) but includes
    every mutating entry point; addresses reuse a small footprint so lines
    collide, re-fill, and get evicted rather than streaming cold forever.
    """
    rng = np.random.default_rng(seed)
    has_netcache = hier.cores[0].netcache is not None
    for op_i in range(n_ops):
        op = rng.integers(10)
        core = int(rng.integers(hier.n_cores))
        addr = int(rng.integers(0, 1 << 18)) & ~0x3F
        nbytes = int(rng.integers(1, 8)) * 64
        first, last = addr >> 6, (addr + nbytes - 1) >> 6
        if op < 5:  # demand run, default class
            digest.add(hier.access_lines(core, first, last).signature())
        elif op < 7:  # demand run, network class (netcache path when present)
            digest.add(hier.access_lines(core, first, last, CLS_NETWORK).signature())
        elif op == 7:  # write-allocate store
            cls = CLS_NETWORK if has_netcache else CLS_DEFAULT
            digest.add(hier.write_tx(core, addr, nbytes, cls).signature())
        elif op == 8:  # heater touch (refresh/install split)
            digest.add(hier.touch_shared_tx(core, addr, nbytes).signature())
        else:  # occasional flush (protection-respecting variant included)
            respect = bool(rng.integers(2))
            hier.flush(respect_protection=respect)
            digest.add(f"flush {respect}")
        if op_i % 50 == 0:
            digest.add(state_of(hier))
    digest.add(state_of(hier))


def run_ops(policy, with_partition, with_netcache):
    hier = build(policy, with_partition, with_netcache)
    digest = Digest()
    drive(hier, digest)
    return digest.hexdigest()


def run_full_flush(policy):
    hier = build(policy, True, True)
    digest = Digest()
    drive(hier, digest, n_ops=100)
    hier.flush(respect_protection=False)
    digest.add(state_of(hier))
    drive(hier, digest, seed=7, n_ops=100)
    return digest.hexdigest()


def _lines_of(spec):
    """A (lines, vis, total) triple from a compact (line, visits) spec."""
    lines = [ln for ln, _ in spec]
    vis = [v for _, v in spec]
    return lines, vis, sum(vis)


def run_access_run(policy, gapped):
    """Warm a run's lines, apply it, then try a run with one cold line."""
    hier = build(policy, False, False)
    digest = Digest()
    step = 2 if gapped else 1
    resident = [(8 + i * step, 1 + (i % 3)) for i in range(24)]
    lines, vis, total = _lines_of(resident)
    for ln in lines:
        digest.add(hier.access_lines(0, ln, ln).signature())
    accepted = hier.access_run(0, lines, vis, total)
    assert accepted
    digest.add(state_of(hier))
    # A run touching a non-resident line is rejected, mutating nothing.
    cold = lines + [lines[-1] + 64]
    before = state_of(hier)
    assert not hier.access_run(0, cold, vis + [2], total + 2)
    assert state_of(hier) == before
    digest.add(before)
    return digest.hexdigest()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("with_partition", (False, True), ids=["nopart", "part"])
@pytest.mark.parametrize("with_netcache", (False, True), ids=["nonetc", "netc"])
def test_kernels_bit_identical(policy, with_partition, with_netcache):
    key = (
        f"ops-{'netc' if with_netcache else 'nonetc'}-"
        f"{'part' if with_partition else 'nopart'}-{policy}"
    )
    assert run_ops(policy, with_partition, with_netcache) == GOLDEN[key]


@pytest.mark.parametrize("policy", POLICIES)
def test_kernels_identical_after_full_flush(policy):
    """An unprotected flush mid-stream, then a second op stream."""
    assert run_full_flush(policy) == GOLDEN[f"flush-{policy}"]


@pytest.mark.parametrize("policy", (EvictionPolicy.LRU, EvictionPolicy.RANDOM))
@pytest.mark.parametrize("gapped", (False, True), ids=["contiguous", "gapped"])
def test_access_run_golden(policy, gapped):
    """access_run accepts a warm run, rejects a cold one without mutating."""
    key = f"run-{'gapped' if gapped else 'contiguous'}-{policy}"
    assert run_access_run(policy, gapped) == GOLDEN[key]


def test_access_run_rejects_flagged_lines():
    """A pending prefetch flag anywhere in the run forces the scalar replay."""
    hier = build(EvictionPolicy.LRU, False, False)
    lines = list(range(32, 56))
    vis = [1] * len(lines)
    for ln in lines:
        hier.access_lines(0, ln, ln)
    # Plant a prefetched fill inside the run's span (a refill of a resident
    # line keeps its clean state, so drop it first).
    hier.cores[0].l1.invalidate(lines[7])
    hier.cores[0].l1.fill(lines[7], CLS_DEFAULT, prefetched=True, penalty=3.0)
    before = state_of(hier)
    assert not hier.access_run(0, lines, vis, len(lines))
    assert state_of(hier) == before


def test_resolve_kernel_names_the_one_kernel():
    assert resolve_kernel(None) == resolve_kernel("reference") == "reference"
    with pytest.raises(ConfigurationError, match="unknown memory kernel 'soa'"):
        resolve_kernel("soa")
