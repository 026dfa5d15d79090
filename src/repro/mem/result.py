"""Access transactions: per-level attribution for the demand path.

The legacy hot path (`MemoryHierarchy.access`) returns a bare float — total
cycles — and discards *where* each line was served, even though the paper's
whole argument is about who hits in which level (a match traversal that hits
in the shared L3 instead of DRAM *is* the hot-caching effect, Figure 3).

:class:`AccessResult` is the per-transaction record: one instance describes
one demand access (possibly spanning many lines) with per-level hit counts,
prefetch coverage, residual prefetch penalty and total cycles.
:class:`LevelStats` is the cheap accumulator used up the stack: the match
engine folds every transaction into one, benchmarks snapshot it per measured
phase, and the reporters render the per-level hit-attribution tables.

Both are ``__slots__`` classes rather than dataclasses: they live on the
hottest call path in the repository and are mutated millions of times per
figure; attribute slots keep them allocation- and access-cheap, and the
``out=`` reuse convention on the hierarchy's ``*_tx`` methods means steady
state allocates nothing at all.
"""

from __future__ import annotations

from typing import Iterable, Optional

#: Attribution column order used by snapshots and reporters.
LEVEL_FIELDS = ("netcache_hits", "l1_hits", "l2_hits", "l3_hits", "dram_fills")

#: Human labels for :data:`LEVEL_FIELDS`, in the same order.
LEVEL_LABELS = ("netcache", "L1", "L2", "L3", "DRAM")


class AccessResult:
    """Outcome of one demand transaction through the hierarchy.

    ``lines`` counts the cache lines the transaction traversed; exactly one
    of the per-level counters is incremented per line (the level that served
    it), so the level counters always sum to ``lines`` on the demand path.
    ``prefetch_covered`` counts lines whose serving hit landed on a
    previously prefetched line, and ``penalty_cycles`` is the residual
    latency those late prefetches still exposed. Write/heater transactions
    reuse the same shape (see ``write_tx`` / ``touch_shared_tx``).
    """

    __slots__ = (
        "lines",
        "cycles",
        "netcache_hits",
        "l1_hits",
        "l2_hits",
        "l3_hits",
        "dram_fills",
        "prefetch_covered",
        "penalty_cycles",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every field (reused via the ``out=`` convention)."""
        self.lines = 0
        self.cycles = 0.0
        self.netcache_hits = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.l3_hits = 0
        self.dram_fills = 0
        self.prefetch_covered = 0
        self.penalty_cycles = 0.0

    # -- derived views --------------------------------------------------------

    @property
    def hits(self) -> int:
        """Lines served by any cache level (everything but DRAM)."""
        return self.netcache_hits + self.l1_hits + self.l2_hits + self.l3_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lines served without going to DRAM."""
        return self.hits / self.lines if self.lines else 0.0

    def as_dict(self) -> dict:
        """All counters as a plain dict (stable keys, reporter-friendly)."""
        return {
            "lines": self.lines,
            "cycles": self.cycles,
            "netcache_hits": self.netcache_hits,
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "l3_hits": self.l3_hits,
            "dram_fills": self.dram_fills,
            "prefetch_covered": self.prefetch_covered,
            "penalty_cycles": self.penalty_cycles,
        }

    def signature(self) -> tuple:
        """Bit-exact comparable identity of the transaction.

        Floats are ``repr``-encoded so two results compare equal only when
        every accumulated cycle count is identical to the last bit — the
        comparison the golden cache-kernel digests are built on.
        """
        return (
            self.lines,
            repr(self.cycles),
            self.netcache_hits,
            self.l1_hits,
            self.l2_hits,
            self.l3_hits,
            self.dram_fills,
            self.prefetch_covered,
            repr(self.penalty_cycles),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        served = ", ".join(
            f"{label}={getattr(self, field)}"
            for label, field in zip(LEVEL_LABELS, LEVEL_FIELDS)
            if getattr(self, field)
        )
        return f"AccessResult(lines={self.lines}, cycles={self.cycles}, {served})"


class LevelStats:
    """Accumulator over many :class:`AccessResult` transactions.

    The match engine holds one and folds every load transaction into it;
    ``snapshot()`` is what travels up to benchmark points, figure sweeps and
    the CLI's ``--mem-stats`` table.
    """

    __slots__ = (
        "loads",
        "lines",
        "cycles",
        "netcache_hits",
        "l1_hits",
        "l2_hits",
        "l3_hits",
        "dram_fills",
        "prefetch_covered",
        "penalty_cycles",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Clear accumulated state/counters."""
        self.loads = 0
        self.lines = 0
        self.cycles = 0.0
        self.netcache_hits = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.l3_hits = 0
        self.dram_fills = 0
        self.prefetch_covered = 0
        self.penalty_cycles = 0.0

    def add(self, tx: AccessResult) -> None:
        """Fold one transaction in."""
        self.loads += 1
        self.lines += tx.lines
        self.cycles += tx.cycles
        self.netcache_hits += tx.netcache_hits
        self.l1_hits += tx.l1_hits
        self.l2_hits += tx.l2_hits
        self.l3_hits += tx.l3_hits
        self.dram_fills += tx.dram_fills
        self.prefetch_covered += tx.prefetch_covered
        self.penalty_cycles += tx.penalty_cycles

    def merge(self, other: "LevelStats") -> None:
        """Fold another accumulator in (e.g. across sweep points)."""
        self.loads += other.loads
        self.lines += other.lines
        self.cycles += other.cycles
        self.netcache_hits += other.netcache_hits
        self.l1_hits += other.l1_hits
        self.l2_hits += other.l2_hits
        self.l3_hits += other.l3_hits
        self.dram_fills += other.dram_fills
        self.prefetch_covered += other.prefetch_covered
        self.penalty_cycles += other.penalty_cycles

    def copy(self) -> "LevelStats":
        """An independent copy (benchmark points keep one per phase)."""
        out = LevelStats()
        out.merge(self)
        return out

    # -- derived views --------------------------------------------------------

    @property
    def hits(self) -> int:
        """Lines served by any cache level (everything but DRAM)."""
        return self.netcache_hits + self.l1_hits + self.l2_hits + self.l3_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lines served without going to DRAM."""
        return self.hits / self.lines if self.lines else 0.0

    def attribution(self) -> dict:
        """Fraction of lines served per level (sums to 1 when lines > 0)."""
        lines = self.lines
        if not lines:
            return {label: 0.0 for label in LEVEL_LABELS}
        return {
            label: getattr(self, field) / lines
            for label, field in zip(LEVEL_LABELS, LEVEL_FIELDS)
        }

    def snapshot(self) -> dict:
        """All counters plus the derived rates, as a plain dict."""
        return {
            "loads": self.loads,
            "lines": self.lines,
            "cycles": self.cycles,
            "netcache_hits": self.netcache_hits,
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "l3_hits": self.l3_hits,
            "dram_fills": self.dram_fills,
            "prefetch_covered": self.prefetch_covered,
            "penalty_cycles": self.penalty_cycles,
            "hit_rate": self.hit_rate,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "LevelStats":
        """Rebuild an accumulator from a :meth:`snapshot` dict.

        Derived keys (``hit_rate``) and unknown keys are ignored; missing
        counters default to zero, so snapshots from older schemas load.
        """
        out = cls()
        out.loads = int(data.get("loads", 0))
        out.lines = int(data.get("lines", 0))
        out.cycles = float(data.get("cycles", 0.0))
        out.netcache_hits = int(data.get("netcache_hits", 0))
        out.l1_hits = int(data.get("l1_hits", 0))
        out.l2_hits = int(data.get("l2_hits", 0))
        out.l3_hits = int(data.get("l3_hits", 0))
        out.dram_fills = int(data.get("dram_fills", 0))
        out.prefetch_covered = int(data.get("prefetch_covered", 0))
        out.penalty_cycles = float(data.get("penalty_cycles", 0.0))
        return out

    @classmethod
    def merged(cls, parts: Iterable[Optional["LevelStats"]]) -> "LevelStats":
        """Merge any number of accumulators (``None`` entries are skipped)."""
        out = cls()
        for part in parts:
            if part is not None:
                out.merge(part)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LevelStats(loads={self.loads}, lines={self.lines}, "
            f"hit_rate={self.hit_rate:.3f})"
        )
