"""Open-loop workload generation: Poisson arrivals, Zipf tag popularity.

The closed-loop benchmarks replay fixed grids — the next message is injected
only after the previous one completed, so the simulator can never be
overloaded. This module generates *open-loop* traffic the way icarus's
``StationaryPacketLevelWorkload`` does: arrivals follow a Poisson process
(exponential inter-arrival gaps at a configured rate), each message's tag is
drawn from a Zipf popularity distribution (a few tags receive most of the
traffic — workload skew, not benchmark order, decides cache residency), and
the schedule is split into an explicit warmup phase followed by a measured
phase.

Everything is a *lazy* generator: a million-event schedule is produced
on demand from fixed-size draw buffers, never materialized as a list, so
long runs complete in bounded memory. All randomness comes from
:func:`repro.sim.rng.stream_seed`-derived named streams, so schedules are
bit-reproducible for a fixed root seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import RngRegistry

#: Draws taken from the RNG per refill; a speed/laziness compromise (the
#: buffer, not the schedule, is the resident state).
_CHUNK = 1024


@dataclass(frozen=True)
class TrafficEvent:
    """One message arrival of an open-loop schedule."""

    index: int  # position in the schedule (0-based)
    t_arrive: float  # absolute arrival time, in cycles
    rank: int  # sending rank (envelope src)
    tag: int  # message tag (Zipf popularity rank, 0 = most popular)
    nbytes: int  # payload size
    measured: bool  # False during warmup, True in the measured phase


class PoissonArrivals:
    """Exponential inter-arrival gaps with a given mean, in cycles.

    Iterating yields an endless stream of gap lengths; draws happen in
    fixed-size chunks so the generator is lazy but not one-RNG-call-per-event
    slow.
    """

    def __init__(
        self, mean_gap_cycles: float, rng: np.random.Generator, *, chunk: int = _CHUNK
    ) -> None:
        if mean_gap_cycles <= 0:
            raise ConfigurationError(
                f"mean inter-arrival gap must be positive, got {mean_gap_cycles}"
            )
        self.mean_gap_cycles = float(mean_gap_cycles)
        self._rng = rng
        self._chunk = int(chunk)

    def __iter__(self) -> Iterator[float]:
        while True:
            for gap in self._rng.exponential(self.mean_gap_cycles, self._chunk):
                yield float(gap)


class ZipfTagPopularity:
    """Zipf(alpha) popularity over ``n`` tags (0 = most popular).

    ``P(tag = i) ∝ (i + 1) ** -alpha``; ``alpha = 0`` is uniform. Sampling
    inverts the cumulative distribution with ``searchsorted`` over chunked
    uniform draws.
    """

    def __init__(
        self, n: int, alpha: float, rng: np.random.Generator, *, chunk: int = _CHUNK
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one tag, got {n}")
        if not np.isfinite(alpha) or alpha < 0:
            raise ConfigurationError(
                f"zipf alpha must be a finite number >= 0, got {alpha}"
            )
        self.n = int(n)
        self.alpha = float(alpha)
        self._rng = rng
        self._chunk = int(chunk)
        weights = np.arange(1, self.n + 1, dtype=np.float64) ** -self.alpha
        self._cdf = np.cumsum(weights / weights.sum())
        self._cdf[-1] = 1.0  # guard against rounding at the top

    def pmf(self) -> np.ndarray:
        """The popularity distribution itself (tests, analysis)."""
        return np.diff(self._cdf, prepend=0.0)

    def __iter__(self) -> Iterator[int]:
        while True:
            draws = np.searchsorted(self._cdf, self._rng.random(self._chunk), side="right")
            for tag in draws:
                yield int(tag)


def open_loop_events(
    *,
    rate_per_us: float,
    ghz: float,
    zipf_alpha: float,
    n_tags: int,
    nranks: int,
    msg_bytes: int,
    n_warmup: int,
    n_measured: int,
    seed: int,
    chunk: int = _CHUNK,
) -> Iterator[TrafficEvent]:
    """The full open-loop schedule as a lazy :class:`TrafficEvent` stream.

    ``rate_per_us`` is the offered load in mean arrivals per simulated
    microsecond; with a core at *ghz* that is a mean gap of
    ``ghz * 1000 / rate`` cycles. The first ``n_warmup`` events carry
    ``measured=False``, the next ``n_measured`` carry ``measured=True``,
    then the stream ends. Arrival times, tags, and source ranks each come
    from their own :class:`~repro.sim.rng.RngRegistry` named stream, so any
    one of them can be varied (or replayed) independently of the others.
    """
    if rate_per_us <= 0:
        raise ConfigurationError(
            f"arrival rate must be positive (events/us), got {rate_per_us}"
        )
    if n_warmup < 0 or n_measured < 1:
        raise ConfigurationError(
            f"need n_warmup >= 0 and n_measured >= 1, got {n_warmup}/{n_measured}"
        )
    registry = RngRegistry(seed)
    gaps = iter(
        PoissonArrivals(
            ghz * 1000.0 / rate_per_us, registry.stream("traffic:arrivals"), chunk=chunk
        )
    )
    tags = iter(
        ZipfTagPopularity(
            n_tags, zipf_alpha, registry.stream("traffic:tags"), chunk=chunk
        )
    )
    rank_rng = registry.stream("traffic:ranks")
    total = n_warmup + n_measured
    t = 0.0
    index = 0
    while index < total:
        ranks = rank_rng.integers(0, nranks, size=min(chunk, total - index))
        for rank in ranks:
            t += next(gaps)
            yield TrafficEvent(
                index=index,
                t_arrive=t,
                rank=int(rank),
                tag=next(tags),
                nbytes=msg_bytes,
                measured=index >= n_warmup,
            )
            index += 1
