"""The supervising sweep service: many submissions, one worker pool.

:class:`SweepService` turns the one-shot :class:`~repro.exp.runner.Runner`
into a long-running facility. Clients submit whole
:class:`~repro.exp.plan.ExperimentPlan` grids concurrently; a single
supervisor thread multiplexes every admitted submission's points onto one
shared process pool, and the content-addressed store becomes what the
paper says hot match state should be — a semi-permanent shared cache with
admission, integrity, and eviction, one layer up.

The contract, in order of importance:

1. **Equivalence.** Each submission's results are repr-identical to a
   fault-free serial ``Runner.run`` of the same plan. Every point is an
   independent deterministic simulation and results are placed by plan
   index, so sharing work can't change anyone's answer.
2. **Cross-submission dedup.** Before a point executes it is resolved
   against (a) its journal, (b) the store, and (c) the **in-flight
   registry** keyed by content key. Two users submitting overlapping
   grids share one simulation of each shared point; the registry covers
   concurrent overlap, the store covers temporal overlap.
3. **Admission control.** The submission queue is bounded (drop-tail):
   a submission arriving at a full service is *rejected* — accounted in
   an :class:`~repro.matching.bounded.AdmissionStats`, exactly the
   semantics the bounded match queues apply to eager messages — rather
   than growing an unbounded backlog. ``submit`` raises
   :class:`~repro.errors.AdmissionError`; ``try_submit`` returns None.
4. **Crash recovery.** With a ``journal_dir``, every completed point is
   appended (flushed) to the submission's
   :class:`~repro.service.journal.CheckpointJournal`. A ``kill -9`` plus
   restart-and-resubmit replays the journal and recomputes **zero**
   completed points — with or without a store.
5. **Degradation ladder.** A worker that misses its ``heartbeat_s``
   deadline is *quarantined*: the pool's processes are terminated, the
   overdue point is charged an attempt (retryable with the same
   deterministic backoff as the Runner), innocent in-flight points are
   rescheduled at their same attempt, and a fresh pool replaces the dead
   one. A broken pool (worker crash) is rebuilt ``max_pool_rebuilds``
   times, then the service degrades to in-supervisor serial execution —
   still serving, just slower.
6. **Graceful drain.** ``shutdown(drain=True)`` finishes every admitted
   submission first; ``drain=False`` still harvests already-finished
   futures into the store and journals before terminating workers, so an
   impatient shutdown never discards completed simulation.

Store lifecycle: on ``start()`` the service runs the store's integrity
sweep (quarantining rot before any submission can read it) and applies
``max_store_bytes`` LRU eviction, re-applied periodically as results land.

Service-level chaos (:class:`~repro.faults.ServiceFaultPlan`) injects
submission-time client crashes, worker heartbeat stalls, and store
bit-rot during concurrent access — the failure modes the tests and the CI
chaos smoke drive through all of the above.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.analysis.series import Sweep
from repro.errors import AdmissionError, ConfigurationError, ServiceError
from repro.exp.plan import ExperimentPlan, PointResult, PointSpec
from repro.exp.producers import execute_point
from repro.exp.runner import backoff_delay, worker_pool
from repro.exp.store import ResultStore
from repro.faults.service import ServiceFaultPlan
from repro.matching.bounded import AdmissionStats
from repro.service.journal import CheckpointJournal

#: How many store puts between periodic LRU eviction passes.
_EVICT_EVERY_PUTS = 16

#: Submission lifecycle states.
SUBMISSION_STATES = ("queued", "running", "done", "aborted")


@dataclass
class SubmissionReport:
    """Per-submission accounting (every point lands in exactly one bucket)."""

    name: str = ""
    total: int = 0
    #: Points whose execution this submission triggered (first subscriber).
    executed: int = 0
    #: Points served from the result store at resolve time.
    cached: int = 0
    #: Points shared with another subscription (in-flight registry dedup).
    shared: int = 0
    #: Points recovered from the checkpoint journal (restart resume).
    replayed: int = 0
    #: Points that exhausted every attempt (their result slot stays None).
    failed: int = 0
    retried: int = 0
    elapsed_s: float = 0.0
    state: str = "queued"
    #: Human-readable failure notes (one per failed point).
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.state == "done" and self.failed == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "shared": self.shared,
            "replayed": self.replayed,
            "failed": self.failed,
            "retried": self.retried,
            "elapsed_s": self.elapsed_s,
            "state": self.state,
            "failures": list(self.failures),
        }


@dataclass
class ServiceStats:
    """Service-lifetime counters (the ``repro status`` headline)."""

    submitted: int = 0
    completed: int = 0
    #: Distinct point executions across all submissions (dedup makes this
    #: the number of *unique* fresh points, not the sum of plan sizes).
    executed: int = 0
    cached: int = 0
    shared: int = 0
    replayed: int = 0
    failed_points: int = 0
    retried: int = 0
    #: Workers quarantined by the heartbeat watchdog.
    stalled: int = 0
    crashes: int = 0
    pool_rebuilds: int = 0
    degraded_serial: bool = False
    rot_injected: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "executed": self.executed,
            "cached": self.cached,
            "shared": self.shared,
            "replayed": self.replayed,
            "failed_points": self.failed_points,
            "retried": self.retried,
            "stalled": self.stalled,
            "crashes": self.crashes,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded_serial": self.degraded_serial,
            "rot_injected": self.rot_injected,
        }


class Submission:
    """A client's handle on one admitted plan."""

    def __init__(self, name: str, plan: ExperimentPlan) -> None:
        self.name = name
        self.plan = plan
        self.results: List[Optional[PointResult]] = [None] * len(plan)
        self.report = SubmissionReport(name=name, total=len(plan))
        self.journal: Optional[CheckpointJournal] = None
        self._replayed: Dict[int, PointResult] = {}
        self._pending = 0
        self._started_at = time.perf_counter()
        self._done = threading.Event()

    @property
    def state(self) -> str:
        return self.report.state

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> List[Optional[PointResult]]:
        """Block until the submission finishes; results in plan order.

        Failed points (exhausted attempts, or an aborted shutdown) are
        None slots — the ``on_error="collect"`` convention.
        """
        if not self._done.wait(timeout):
            raise ServiceError(
                f"submission {self.name!r} did not finish within {timeout:g}s"
            )
        return self.results

    def sweep(self, timeout: Optional[float] = None) -> Sweep:
        """Wait and reduce (plan order — the serial-equivalence point)."""
        results = self.wait(timeout)
        return self.plan.reduce(results, allow_missing=True)


@dataclass
class _KeyWork:
    """One distinct computation the service currently owes somebody."""

    key: str
    spec: PointSpec
    subscribers: List[Tuple[Submission, int]] = field(default_factory=list)
    attempt: int = 0


class SweepService:
    """See module docstring. Use as a context manager or ``start()``/
    ``shutdown()``; ``submit()``/``try_submit()`` from any thread."""

    def __init__(
        self,
        *,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        queue_capacity: int = 8,
        heartbeat_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        max_pool_rebuilds: int = 1,
        max_store_bytes: Optional[int] = None,
        fault_plan: Optional[ServiceFaultPlan] = None,
        integrity_sweep: bool = True,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ConfigurationError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        if backoff_s < 0 or backoff_cap_s < 0:
            raise ConfigurationError("backoff_s and backoff_cap_s must be >= 0")
        if max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
            )
        self.jobs = jobs
        self.store = store
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.queue_capacity = queue_capacity
        self.heartbeat_s = heartbeat_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.max_pool_rebuilds = max_pool_rebuilds
        self.max_store_bytes = max_store_bytes
        self.fault_plan = (
            fault_plan if fault_plan is not None else ServiceFaultPlan.from_env()
        )
        self.integrity_sweep = integrity_sweep

        self.admission = AdmissionStats()
        self.stats = ServiceStats()
        #: Entries quarantined by the startup integrity sweep.
        self.swept_corrupt = 0

        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._incoming: Deque[Submission] = deque()
        self._active_n = 0  # queued + running submissions (admission gauge)
        self._submissions: List[Submission] = []  # every admitted, in order
        self._submit_counter = 0  # offered submissions (fault addressing)
        self._dispatch_counter = 0  # points handed to workers
        self._put_counter = 0  # store writes (fault addressing + evict cadence)
        self._closing = False
        self._abort = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "SweepService":
        """Run store lifecycle duties, then launch the supervisor thread."""
        if self._thread is not None:
            raise ServiceError("service already started")
        if self.store is not None:
            if self.integrity_sweep:
                self.swept_corrupt = self.store.integrity_sweep()
            if self.max_store_bytes is not None:
                self.store.evict_lru(self.max_store_bytes)
        self._thread = threading.Thread(
            target=self._serve_loop, name="sweep-service", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service.

        ``drain=True`` finishes every admitted submission first (graceful);
        ``drain=False`` aborts: already-finished futures are still
        harvested into the store/journals, unfinished submissions complete
        with None slots in state ``"aborted"``.
        """
        with self._lock:
            self._closing = True
            if not drain:
                self._abort = True
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise ServiceError("service supervisor did not stop in time")
            self._thread = None

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- submission (any thread) -----------------------------------------------

    def submit(self, plan: ExperimentPlan, *, name: Optional[str] = None) -> Submission:
        """Admit one plan, or raise :class:`AdmissionError` (drop-tail)."""
        with self._lock:
            if self._closing:
                raise ServiceError("service is shutting down; submission refused")
            nth = self._submit_counter
            self._submit_counter += 1
            self.admission.offered += 1
            if self.fault_plan is not None and self.fault_plan.submit_crashes(nth):
                # The injected client death: admission saw the offer, but no
                # slot is held and nothing is scheduled — the service must
                # carry on as if the client vanished mid-handshake (it did).
                from repro.errors import InjectedFaultError

                raise InjectedFaultError(
                    f"injected submit-crash fault (submission #{nth})"
                )
            if self._active_n >= self.queue_capacity:
                self.admission.rejected += 1
                raise AdmissionError(
                    f"submission queue full ({self._active_n}/{self.queue_capacity}); "
                    "drop-tail rejected (retry later or raise queue_capacity)"
                )
            self.admission.accepted += 1
            self._active_n += 1
            self.stats.submitted += 1
            sub = Submission(name or f"sub-{nth}", plan)
            self._submissions.append(sub)
            self._incoming.append(sub)
        self._wake.set()
        return sub

    def try_submit(
        self, plan: ExperimentPlan, *, name: Optional[str] = None
    ) -> Optional[Submission]:
        """Like :meth:`submit` but returns None on rejection (the
        :meth:`~repro.matching.bounded.BoundedQueue.try_post` spelling)."""
        try:
            return self.submit(plan, name=name)
        except AdmissionError:
            return None

    def status(self) -> Dict[str, object]:
        """A JSON-able snapshot: admission, service stats, store, submissions."""
        with self._lock:
            subs = [s.report.to_dict() for s in self._submissions]
        doc: Dict[str, object] = {
            "admission": {
                "offered": self.admission.offered,
                "accepted": self.admission.accepted,
                "rejected": self.admission.rejected,
                "capacity": self.queue_capacity,
            },
            "service": self.stats.to_dict(),
            "submissions": subs,
        }
        if self.store is not None:
            stats = self.store.stats().to_dict()
            stats["swept_corrupt"] = self.swept_corrupt
            doc["store"] = stats
        if self.fault_plan:
            doc["injected_faults"] = self.fault_plan.describe()
        return doc

    # -- supervisor internals --------------------------------------------------

    def _journal_for(self, sub: Submission) -> Optional[CheckpointJournal]:
        if self.journal_dir is None:
            return None
        slug = "".join(c if c.isalnum() or c in "-_." else "_" for c in sub.name)
        return CheckpointJournal(
            self.journal_dir / f"{slug}.jsonl", sub.plan, name=sub.name
        )

    def _resolve_submission(
        self,
        sub: Submission,
        registry: Dict[str, _KeyWork],
        ready: Deque[Tuple[str, int]],
    ) -> None:
        """Place every point of a new submission: journal, store, registry,
        or fresh work — in plan order, so dedup is deterministic."""
        sub.report.state = "running"
        sub.journal = self._journal_for(sub)
        replayed: Dict[int, PointResult] = {}
        if sub.journal is not None:
            replayed = sub.journal.replay()
            sub.journal.open(resuming=bool(replayed))
        for i, spec in enumerate(sub.plan.points):
            hit = replayed.get(i)
            if hit is not None:
                sub.results[i] = hit
                sub.report.replayed += 1
                self.stats.replayed += 1
                continue
            key = spec.content_key()
            work = registry.get(key)
            if work is not None:
                work.subscribers.append((sub, i))
                sub._pending += 1
                continue
            stored = self.store.get(spec) if self.store is not None else None
            if stored is not None:
                sub.results[i] = stored
                sub.report.cached += 1
                self.stats.cached += 1
                self._journal_point(sub, i, spec, stored)
                continue
            work = _KeyWork(key=key, spec=spec, subscribers=[(sub, i)])
            registry[key] = work
            sub._pending += 1
            ready.append((key, 0))
        if sub._pending == 0:
            self._finalize(sub)

    def _journal_point(
        self, sub: Submission, i: int, spec: PointSpec, result: PointResult
    ) -> None:
        if sub.journal is not None:
            sub.journal.record(i, spec.content_key(), result)

    def _finalize(self, sub: Submission, state: str = "done") -> None:
        sub.report.state = state
        sub.report.elapsed_s = time.perf_counter() - sub._started_at
        if sub.journal is not None:
            sub.journal.close()
        with self._lock:
            self._active_n -= 1
        self.stats.completed += 1
        sub._done.set()

    def _store_result(self, work: _KeyWork, result: PointResult) -> None:
        """Persist one fresh result; service fault plan may rot it after."""
        if self.store is None:
            return
        nth = self._put_counter
        self._put_counter += 1
        self.store.put(work.spec, result)
        if self.fault_plan is not None and self.fault_plan.rots_put(nth):
            if self.store.corrupt(work.spec):
                self.stats.rot_injected += 1
        if (
            self.max_store_bytes is not None
            and self._put_counter % _EVICT_EVERY_PUTS == 0
        ):
            self.store.evict_lru(self.max_store_bytes)

    def _complete_work(
        self, registry: Dict[str, _KeyWork], work: _KeyWork, result: PointResult
    ) -> None:
        """Deliver one finished computation to every subscriber."""
        registry.pop(work.key, None)
        self._store_result(work, result)
        self.stats.executed += 1
        for n, (sub, i) in enumerate(work.subscribers):
            sub.results[i] = result
            if n == 0:
                sub.report.executed += 1
            else:
                sub.report.shared += 1
                self.stats.shared += 1
            self._journal_point(sub, i, work.spec, result)
            sub._pending -= 1
            if sub._pending == 0:
                self._finalize(sub)

    def _fail_work(
        self,
        registry: Dict[str, _KeyWork],
        work: _KeyWork,
        attempts: int,
        outcome: str,
        exc: Optional[BaseException],
    ) -> None:
        """A computation exhausted its attempts: collect-style failure for
        every subscriber (their slots stay None; the sweep skips them)."""
        registry.pop(work.key, None)
        note = (
            f"{work.spec.series!r}@{work.spec.x:g}: {outcome} after "
            f"{attempts} attempt(s)"
            + (f" [{type(exc).__name__}: {exc}]" if exc is not None else "")
        )
        for sub, _i in work.subscribers:
            sub.report.failed += 1
            self.stats.failed_points += 1
            sub.report.failures.append(note)
            sub._pending -= 1
            if sub._pending == 0:
                self._finalize(sub)

    def _after_failed_attempt(
        self,
        registry: Dict[str, _KeyWork],
        work: _KeyWork,
        outcome: str,
        exc: Optional[BaseException],
        delayed: List[Tuple[float, str, int]],
    ) -> None:
        """Schedule a deterministic-backoff retry or finalize the failure."""
        attempt = work.attempt
        if attempt < self.retries and not isinstance(exc, ConfigurationError):
            self.stats.retried += 1
            for sub, _i in work.subscribers:
                sub.report.retried += 1
            work.attempt += 1
            eligible = time.perf_counter() + backoff_delay(
                work.key, attempt, self.backoff_s, self.backoff_cap_s
            )
            delayed.append((eligible, work.key, work.attempt))
            return
        self._fail_work(registry, work, attempt + 1, outcome, exc)

    def _next_fault(self):
        """The stall (if any) for the next dispatched point."""
        nth = self._dispatch_counter
        self._dispatch_counter += 1
        if self.fault_plan is not None:
            return self.fault_plan.stall_for(nth)
        return None

    def _terminate_pool(self, pool: ProcessPoolExecutor) -> None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:
                pass

    def _drain_finished(
        self, registry: Dict[str, _KeyWork], in_flight: Dict
    ) -> None:
        """Harvest already-finished futures (no waiting): their results are
        real simulation and must reach the store/journals even on abort."""
        for fut, (work, _started) in list(in_flight.items()):
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                self._complete_work(registry, work, fut.result())
        in_flight.clear()

    # -- the supervisor loop ---------------------------------------------------

    def _serve_loop(self) -> None:  # noqa: C901 - one long supervision loop
        registry: Dict[str, _KeyWork] = {}  # the in-flight registry
        ready: Deque[Tuple[str, int]] = deque()
        delayed: List[Tuple[float, str, int]] = []  # (eligible_at, key, attempt)
        in_flight: Dict = {}  # future -> (work, started_at)
        pool: Optional[ProcessPoolExecutor] = None
        rebuilds_left = self.max_pool_rebuilds
        try:
            while True:
                # New submissions resolve first: store hits and journal
                # replays complete synchronously, fresh keys join `ready`.
                while True:
                    with self._lock:
                        sub = self._incoming.popleft() if self._incoming else None
                    if sub is None:
                        break
                    self._resolve_submission(sub, registry, ready)

                with self._lock:
                    closing, aborting = self._closing, self._abort
                    idle = (
                        not self._incoming
                        and not ready
                        and not delayed
                        and not in_flight
                    )
                if aborting:
                    break
                if closing and idle:
                    break
                if idle:
                    # Nothing to do: sleep until a submit/shutdown wakes us.
                    self._wake.wait(timeout=0.2)
                    self._wake.clear()
                    continue

                # Promote backoff-delayed retries whose timer elapsed.
                now = time.perf_counter()
                if delayed:
                    still = []
                    for eligible, key, attempt in delayed:
                        if eligible <= now and key in registry:
                            ready.append((key, attempt))
                        elif key in registry:
                            still.append((eligible, key, attempt))
                    delayed[:] = still

                if pool is None and not self.stats.degraded_serial and ready:
                    pool = worker_pool(self.jobs)

                if self.stats.degraded_serial:
                    # Bottom of the ladder: serve one point per iteration
                    # in-process, still checking for new submissions and
                    # shutdown between points.
                    if ready:
                        key, _attempt = ready.popleft()
                        work = registry.get(key)
                        if work is not None:
                            self._run_serial(registry, work, delayed)
                    elif delayed:
                        next_at = min(e for e, _k, _a in delayed)
                        self._wake.wait(
                            timeout=max(0.0, min(next_at - time.perf_counter(), 0.2))
                        )
                        self._wake.clear()
                    continue

                # Dispatch up to the pool width.
                broken: Optional[BaseException] = None
                while ready and pool is not None and len(in_flight) < self.jobs:
                    key, _attempt = ready.popleft()
                    work = registry.get(key)
                    if work is None:
                        continue
                    try:
                        fut = pool.submit(
                            execute_point, work.spec, self._next_fault(), True
                        )
                    except BrokenExecutor as exc:
                        ready.appendleft((key, work.attempt))
                        broken = exc
                        break
                    in_flight[fut] = (work, time.perf_counter())

                if broken is None and in_flight:
                    now = time.perf_counter()
                    tick = 0.1
                    if self.heartbeat_s is not None:
                        oldest = min(started for _w, started in in_flight.values())
                        tick = min(
                            tick, max(0.005, oldest + self.heartbeat_s - now)
                        )
                    if delayed:
                        nearest = min(e for e, _k, _a in delayed)
                        tick = min(tick, max(0.005, nearest - now))
                    finished, _ = wait(
                        set(in_flight), timeout=tick, return_when=FIRST_COMPLETED
                    )
                    for fut in finished:
                        work, _started = in_flight.pop(fut)
                        try:
                            result = fut.result()
                        except BrokenExecutor as exc:
                            self.stats.crashes += 1
                            self._after_failed_attempt(
                                registry, work, "crash", exc, delayed
                            )
                            broken = exc
                            break
                        except Exception as exc:
                            self._after_failed_attempt(
                                registry, work, "error", exc, delayed
                            )
                        else:
                            self._complete_work(registry, work, result)

                if broken is not None:
                    pool, rebuilds_left = self._handle_pool_break(
                        registry, pool, in_flight, delayed, broken, rebuilds_left
                    )
                    continue

                pool = self._heartbeat_watchdog(
                    registry, pool, in_flight, ready, delayed
                )
        finally:
            self._drain_finished(registry, in_flight)
            if pool is not None:
                self._terminate_pool(pool)
            # Anything still unresolved is an abort: hand clients their
            # partial results rather than a hang.
            for sub in list(self._submissions):
                if not sub.done:
                    sub._pending = 0
                    self._finalize(sub, state="aborted")

    def _run_serial(
        self,
        registry: Dict[str, _KeyWork],
        work: _KeyWork,
        delayed: List[Tuple[float, str, int]],
    ) -> None:
        """Degraded-mode execution of one computation in the supervisor."""
        try:
            result = execute_point(work.spec, self._next_fault(), False)
        except Exception as exc:
            self._after_failed_attempt(registry, work, "error", exc, delayed)
            return
        self._complete_work(registry, work, result)

    def _handle_pool_break(
        self,
        registry: Dict[str, _KeyWork],
        pool: Optional[ProcessPoolExecutor],
        in_flight: Dict,
        delayed: List[Tuple[float, str, int]],
        broken: BaseException,
        rebuilds_left: int,
    ) -> Tuple[Optional[ProcessPoolExecutor], int]:
        """A worker died. Harvest survivors, charge crashed attempts, then
        rebuild the pool — or degrade to serial once the budget is spent."""
        for fut, (work, _started) in list(in_flight.items()):
            in_flight.pop(fut)
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                self._complete_work(registry, work, fut.result())
                continue
            self.stats.crashes += 1
            self._after_failed_attempt(registry, work, "crash", broken, delayed)
        if pool is not None:
            self._terminate_pool(pool)
        if rebuilds_left > 0:
            self.stats.pool_rebuilds += 1
            warnings.warn(
                f"service worker pool broke ({broken!r}); rebuilding "
                f"({rebuilds_left - 1} rebuild(s) left before degrading)",
                RuntimeWarning,
                stacklevel=2,
            )
            return worker_pool(self.jobs), rebuilds_left - 1
        self.stats.degraded_serial = True
        warnings.warn(
            f"service worker pool broke again ({broken!r}) with no rebuild "
            "budget left; degrading to in-supervisor serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        return None, 0

    def _heartbeat_watchdog(
        self,
        registry: Dict[str, _KeyWork],
        pool: Optional[ProcessPoolExecutor],
        in_flight: Dict,
        ready: Deque[Tuple[str, int]],
        delayed: List[Tuple[float, str, int]],
    ) -> Optional[ProcessPoolExecutor]:
        """Quarantine workers that missed their heartbeat deadline.

        A stalled worker cannot be preempted individually, so the pool's
        processes are terminated wholesale: the overdue computation is
        charged a stall attempt (retryable), innocent in-flight points are
        rescheduled at their same attempt number, and a fresh pool
        replaces the quarantined one (an intentional rebuild, outside the
        crash budget) — PR 3's timeout ladder, now under a shared pool.
        """
        if self.heartbeat_s is None or not in_flight or pool is None:
            return pool
        now = time.perf_counter()
        overdue = [
            fut
            for fut, (_work, started) in in_flight.items()
            if now - started > self.heartbeat_s
        ]
        if not overdue:
            return pool
        for fut in overdue:
            work, _started = in_flight.pop(fut)
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                # Completed in the window between wait() and this scan.
                self._complete_work(registry, work, fut.result())
                continue
            self.stats.stalled += 1
            self._after_failed_attempt(registry, work, "stall", None, delayed)
        for fut in list(in_flight):
            work, _started = in_flight.pop(fut)
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                self._complete_work(registry, work, fut.result())
            else:
                ready.append((work.key, work.attempt))
        self._terminate_pool(pool)
        self.stats.pool_rebuilds += 1
        return worker_pool(self.jobs)
