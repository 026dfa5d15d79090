"""Verified capture/replay of pure-reject arrivals (the batch driver's core).

Under sustained overload the open-loop driver spends almost all of its time
on one event shape: an arrival whose tag matches no posted receive walks the
*entire* PRQ (a miss visits every entry), then bounces off a full UMQ under
drop-tail admission. Such an event mutates nothing structural — no queue
content changes, no cache line is filled or evicted, no RNG stream is
consumed — it only advances counters and the clock by amounts that are a
pure function of the (unchanged) PRQ contents.

:class:`RejectReplayer` exploits that, without trusting it blindly:

1. **Capture.** While two consecutive eligible events run through the real
   engine, every port call (``load``/``load_run``/``charge``/scan brackets)
   is recorded, along with exact counter deltas.
2. **Verify.** The replayer arms only if both captures produced the same
   op sequence and deltas from *different* probe tags (evidence the scan is
   probe-independent — true for the linear-walk families this is gated to),
   every touched line was a clean L1 hit, and the cycle deltas are
   integer-valued floats (exact to add).
3. **Replay.** Streaks of consecutive eligible events are then applied
   arithmetically: the per-probe clock addends — reconstructed from the
   engine's geometry memo exactly as ``load_run``'s per-probe branch
   computes them — are folded with a carry-seeded ``np.cumsum`` (the same
   sequential float64 additions the engine would perform, so the clock is
   bit-identical even while fractional), and all integer-valued counters
   advance by exact multiples.

Anything else — a posted receive, a fast match, an unexpected admission, a
flush — invalidates the armed state; the next eligible event re-captures.

Replay legality leans on two facts worth stating. A miss scan of an
unchanged queue is *idempotent* for the observable cache state: LRU
promotions of the same line sequence leave the same relative recency order
(the L1 must not be PLRU — ``hierarchy.run_latency`` already excludes it;
its mid-queue promotion is not idempotent), and an all-hit scan fills and
evicts nothing. Skipping the scan therefore leaves every *decision-bearing*
state exactly where the legacy loop leaves it. What does drift are
host-invisible tallies nothing reads back into results: per-cache
``CacheStats`` hit counts and ``demand_accesses`` lag by the replayed
visits (relative recency order — the input to every eviction decision — is
identical), and only the searched queue's own ``QueueStats`` is advanced,
not any nested sub-structure's. ``TrafficResult``, ``mem_stats``, and every
engine counter are replayed exactly; the lockstep equivalence suite pins
that.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

import numpy as np

from repro.errors import MatchingError
from repro.matching.envelope import Envelope
from repro.matching.linkedlist import BaselineLinkedList
from repro.matching.lla import LinkedListOfArrays
from repro.mem.layout import LINE_SHIFT
from repro.mpi.message import Message

#: Queue families whose miss scan is structurally probe-independent (a miss
#: walks every entry in layout order). Binned structures (hashmap, fourd,
#: openmpi) walk probe-dependent subsets, so they never arm — the batch
#: driver still runs, it just takes the per-event path.
_LINEAR_FAMILIES = (BaselineLinkedList, LinkedListOfArrays)

#: Engine methods shadowed during a capture event.
_CAPTURED_OPS = ("load", "load_run", "store", "hint", "charge", "begin_scan", "end_scan")


def reject_replayer_for(session) -> Optional["RejectReplayer"]:
    """Build a replayer for *session* if its config is eligible, else None.

    Eligibility is static per run: drop-tail admission (a full queue then
    deterministically rejects), no heater (heater catch-up makes op costs
    clock-dependent), no software prefetch (hints would mutate cache state),
    a linear-walk PRQ family, and a hierarchy whose L1 the scan-run fast
    path already certifies (LRU/RANDOM policy, integral latency, no
    netcache interception — ``run_latency`` is not None).
    """
    admission = session.umq_admission
    if admission is None or getattr(session.umq, "policy", None) != "drop-tail":
        return None
    if session.heater is not None:
        return None
    engine = session.engine
    if engine.software_prefetch:
        return None
    if not isinstance(session.prq, _LINEAR_FAMILIES):
        return None
    if engine.hierarchy.run_latency(engine.core_id, engine.mem_class) is None:
        return None
    return RejectReplayer(session)


class RejectReplayer:
    """Capture -> verify -> arm -> streak-replay state machine."""

    def __init__(self, session) -> None:
        self._proc = session.proc
        self._engine = session.engine
        self._prq_stats = session.prq.stats
        self._admission = session.umq_admission
        # 0 = no capture held, 1 = one capture held, 2 = armed.
        self._state = 0
        self._held_sig = None
        self._held_tag = -1
        # Armed replay data (see _arm).
        self._B: Optional[np.ndarray] = None
        self._per_event = None

    @property
    def armed(self) -> bool:
        """True when :meth:`consume` will replay instead of capturing.

        The driver uses this to know whether a consume ran the real process
        path (capture — the process' sequence cursor advanced on its own) or
        replayed arithmetically (the driver must re-sync the cursor).
        """
        return self._state == 2

    def invalidate(self) -> None:
        """Queue or cache state changed: drop captures and armed data."""
        self._state = 0
        self._held_sig = None
        self._B = None
        self._per_event = None

    # -- capture ---------------------------------------------------------------

    def _snapshot(self):
        e = self._engine
        ls = e.level_stats
        qs = self._prq_stats
        ad = self._admission
        return (
            e.loads, e.runs, e.fast_runs, e.run_probes, e.stores, e.sw_prefetches,
            ls.loads, ls.lines, ls.l1_hits, ls.netcache_hits, ls.l2_hits,
            ls.l3_hits, ls.dram_fills, ls.prefetch_covered,
            qs.posts, qs.matches, qs.failed_searches, qs.probes,
            ad.offered, ad.accepted, ad.rejected, ad.evicted,
            e.load_cycles, ls.cycles, ls.penalty_cycles, e.store_cycles_total,
        )

    def _capture(self, rank: int, tag: int, nbytes: int) -> int:
        """Run one eligible event for real, recording its engine op stream."""
        engine = self._engine
        ops = []
        record = ops.append

        def make_wrapper(name, orig):
            def wrapper(*args, _name=name, _orig=orig, **kwargs):
                if kwargs:  # keyword spellings still compare by value
                    record((_name,) + args + (tuple(sorted(kwargs.items())),))
                else:
                    record((_name,) + args)
                return _orig(*args, **kwargs)
            return wrapper

        before = self._snapshot()
        originals = [(name, getattr(engine, name)) for name in _CAPTURED_OPS]
        for name, orig in originals:
            setattr(engine, name, make_wrapper(name, orig))
        try:
            req = self._proc.handle_arrival(
                Message(Envelope(src=rank, tag=tag, cid=0), nbytes)
            )
        finally:
            for name, _ in originals:
                delattr(engine, name)
        after = self._snapshot()
        deltas = tuple(a - b for a, b in zip(after, before))
        if req is not None or deltas[20] != 1:  # rejected delta
            raise MatchingError(
                "traffic fast path: event classified eligible for pure-reject "
                f"capture did not reject (tag {tag}); driver bookkeeping desync"
            )
        sig = (tuple(ops), deltas)
        if self._state == 1 and sig == self._held_sig and tag != self._held_tag:
            if self._arm(sig):
                self._state = 2
            else:
                self._state = 0
                self._held_sig = None
        else:
            self._state = 1
            self._held_sig = sig
            self._held_tag = tag
        return 1

    # -- arming ----------------------------------------------------------------

    def _arm(self, sig) -> bool:
        """Derive exact replay data from a doubly-verified capture."""
        ops, d = sig
        (d_loads, d_runs, d_fast_runs, d_run_probes, d_stores, d_swpf,
         d_ls_loads, d_ls_lines, d_l1, d_net, d_l2, d_l3, d_dram, d_pfcov,
         d_posts, d_matches, d_failed, d_probes,
         d_offered, d_accepted, d_rejected, d_evicted,
         d_lc, d_lsc, d_pen, d_sc) = d
        engine = self._engine
        # Structural invariants of a pure reject: nothing but an all-L1-hit
        # scan plus (optionally) a reject charge.
        if (d_stores or d_swpf or d_sc or d_net or d_l2 or d_l3 or d_dram
                or d_pfcov or d_pen):
            return False
        if d_l1 != d_ls_lines or d_fast_runs != d_runs:
            return False
        if d_posts or d_matches or d_failed != 1 or d_evicted:
            return False
        if d_offered != 1 or d_accepted != 0 or d_rejected != 1:
            return False
        if not (float(d_lc).is_integer() and float(d_lsc).is_integer()):
            return False
        if not (float(engine.load_cycles).is_integer()
                and float(engine.level_stats.cycles).is_integer()):
            return False
        lat = engine.hierarchy.run_latency(engine.core_id, engine.mem_class)
        if lat is None:
            return False
        cc = engine.compare_cycles  # no heater => no interference term
        # Re-derive the per-probe clock addends by simulating the engine's
        # scan-bracket merge over the captured (pre-merge) op stream, then
        # reading run geometry from the engine's own memo. Every addend is
        # exactly the value load_run's per-probe branch adds.
        B = []
        lc_check = 0.0
        lsc_check = 0.0
        n_loads = 0

        def emit_load(addr, nbytes):
            nonlocal lc_check, lsc_check, n_loads
            if nbytes <= 0:
                c = cc
            else:
                nlines = ((addr + nbytes - 1) >> LINE_SHIFT) - (addr >> LINE_SHIFT) + 1
                mem = nlines * lat
                lsc_check += mem
                c = mem + cc
            B.append(c)
            lc_check += c
            n_loads += 1

        scan_active = False
        pending = None
        geometry = engine._geometry
        for op in ops:
            name = op[0]
            if name == "begin_scan":
                scan_active = True
            elif name == "end_scan":
                scan_active = False
                if pending is not None:
                    emit_load(*pending)
                    pending = None
            elif name == "hint":
                # Provably inert: arming requires software_prefetch off, and
                # the engine's hint() then returns before touching anything
                # (not even a pending bracketed load).
                continue
            elif name == "load":
                if len(op) != 3:
                    return False
                addr, nbytes = op[1], op[2]
                if scan_active:
                    if pending is not None:
                        emit_load(*pending)
                        pending = None
                    if nbytes > 0:
                        pending = (addr, nbytes)
                        continue
                emit_load(addr, nbytes)
            elif name == "load_run":
                if not 4 <= len(op) <= 6:
                    return False
                addr, nbytes = op[1], op[2]
                probes = op[3]
                spacing = op[4] if len(op) > 4 else None
                header = op[5] if len(op) > 5 else 0
                if not isinstance(header, int):
                    return False
                if scan_active and pending is not None:
                    if probes > 0 and not header and pending[0] + pending[1] == addr:
                        header = pending[1]
                    else:
                        emit_load(*pending)
                    pending = None
                if probes <= 0:
                    if header:
                        emit_load(addr - header, header)
                    continue
                geo = geometry.get((addr, nbytes, probes, spacing, header))
                if geo is None:
                    return False
                pv, _lines, _vis, total, nloads = geo[:5]
                for v in pv:
                    B.append(v * lat + cc)
                mem = total * lat
                lsc_check += mem
                lc_check += mem + nloads * cc
                n_loads += nloads
            elif name == "charge":
                if len(op) != 2:
                    return False
                B.append(op[1])
            else:  # store/hint observed: not a pure reject
                return False
        if pending is not None:
            return False
        # The analytic addends must reproduce the measured integral cycle
        # deltas exactly (both sides are integer-valued floats).
        if lc_check != d_lc or lsc_check != d_lsc or n_loads != d_loads:
            return False
        self._B = np.asarray(B, dtype=np.float64)
        self._per_event = (
            d_loads, d_runs, d_run_probes, d_ls_loads, d_ls_lines,
            d_probes, d_lc, d_lsc,
        )
        return True

    # -- replay ----------------------------------------------------------------

    def _replay(self, ts, tags, k: int, limit: int, counts) -> int:
        """Apply the longest legal streak of replays starting at event *k*."""
        engine = self._engine
        clock = engine.clock
        now = clock.now
        free = counts[tags[k:limit]] == 0
        reps = len(free) if free.all() else int(np.argmin(free))
        if reps <= 0:  # pragma: no cover - caller checked event k is free
            return 0
        B = self._B
        nB = len(B)
        # Carry-seeded cumulative fold: the exact sequential float64 adds
        # the engine would perform, tiled per replayed event.
        partials = np.cumsum(np.concatenate((np.asarray((now,)), np.tile(B, reps))))[1:]
        ends = partials[nB - 1::nB]
        if reps > 1:
            # Event k+m is replayable only if the clock is already at or past
            # its arrival after m replays (otherwise the legacy loop would
            # post receives / advance the clock there).
            ok = ends[:-1] >= ts[k + 1:k + reps]
            if not ok.all():
                reps = 1 + int(np.argmin(ok))
        clock.now = float(ends[reps - 1])
        (d_loads, d_runs, d_run_probes, d_ls_loads, d_ls_lines,
         d_probes, d_lc, d_lsc) = self._per_event
        engine.loads += d_loads * reps
        engine.runs += d_runs * reps
        engine.fast_runs += d_runs * reps
        engine.run_probes += d_run_probes * reps
        engine.load_cycles += d_lc * reps
        ls = engine.level_stats
        ls.loads += d_ls_loads * reps
        ls.lines += d_ls_lines * reps
        ls.l1_hits += d_ls_lines * reps
        ls.cycles += d_lsc * reps
        qs = self._prq_stats
        qs.probes += d_probes * reps
        qs.failed_searches += reps
        qs.last_probes = d_probes
        ad = self._admission
        ad.offered += reps
        ad.rejected += reps
        return reps

    # -- driver entry ----------------------------------------------------------

    def consume(self, ts, ranks, tags, k: int, limit: int, counts,
                nbytes: int) -> int:
        """Handle >= 1 eligible events starting at *k*; returns how many.

        The caller guarantees event *k* is eligible: drop-tail admission,
        full UMQ, no posted receive matches its tag, clock already at or
        past its arrival, and not a flush boundary. *limit* bounds the
        streak (block end, phase boundary, next flush). Capture events run
        the real engine and consume one event; armed streaks are replayed.
        The caller accounts one pure reject per consumed event (and must
        advance its sequence-number mirror by the same amount).
        """
        if self._state == 2:
            return self._replay(ts, tags, k, limit, counts)
        return self._capture(int(ranks[k]), int(tags[k]), nbytes)
