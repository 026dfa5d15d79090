"""Plan execution: serial or process-parallel, cache-aware, supervised.

The runner owns *how* a plan's points execute; the plan owns *what* they
are. Four invariants:

1. **Bit-identical parallel output.** Every point is an independent
   simulation (its producer builds a fresh hierarchy/engine from the
   spec), so the same spec computes the same floats in any process.
   Results are placed by plan index and reduced in plan order — never in
   completion order — so ``jobs=N`` reproduces ``jobs=1`` exactly.
2. **Content-addressed reuse.** With a :class:`~repro.exp.store.ResultStore`
   attached, points whose content key is already stored are not executed;
   fresh results are written back, so an interrupted run resumes where it
   stopped and a re-run is a pure cache read.
3. **In-plan deduplication.** Two specs with the same content key (e.g. a
   figure's panel grids overlapping at a shared corner point) execute once.
4. **Faults are absorbed above the point, never inside it.** Supervision —
   per-point ``timeout_s``, ``retries`` with capped exponential backoff,
   process-pool crash recovery, the ``on_error`` policy — only decides
   *whether and when* a point runs. Point seeds are never reseeded on
   retry (only the backoff schedule's jitter is derived per attempt), so
   every surviving point of a faulty run is bit-identical to a fault-free
   run.

Failure semantics (``on_error``):

``fail_fast`` (default)
    The first terminal point failure aborts the run with
    :class:`~repro.errors.PointExecutionError` (cause-chained to the last
    worker exception). Before propagating — including on
    ``KeyboardInterrupt`` — the runner drains every already-finished
    future, persists those results to the store, and finalizes
    ``last_stats``/``last_report``, so an interrupted ``--resume`` run
    never discards completed in-flight work.
``collect``
    Terminal failures become :class:`PointFailure` records; the sweep
    completes with ``None`` in the failed slots (skipped by
    ``reduce(allow_missing=True)``) and :attr:`Runner.last_report` names
    every failed point, attempt, and exception type.

Worker crashes break the whole ``ProcessPoolExecutor`` (every in-flight
future dies); the runner rebuilds the pool ``max_pool_rebuilds`` times
(default once), then degrades gracefully to in-process serial execution
with a warning. Hung points cannot be preempted inside a worker, so a
blown deadline terminates the pool's processes, reschedules the innocent
in-flight points at their same attempt number, and charges an attempt to
the overdue point alone; under serial execution the overrun is detected
post-hoc (the point has already returned) and the result is discarded.

Deterministic fault injection (:mod:`repro.faults`) plugs in via the
``fault_plan`` parameter or the ``REPRO_INJECT_FAULTS`` env var, and is
resolved per (point index, attempt) supervisor-side, so workers carry no
shared fault state.

Every pool comes from :func:`worker_pool`, whose workers exit on their own
once the process that created them is gone, so a SIGKILLed supervisor
leaves no orphaned workers behind — idle or stalled mid-point.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.series import Sweep
from repro.errors import ConfigurationError, PointExecutionError
from repro.exp.plan import ExperimentPlan, PointResult, PointSpec, ProgressFn
from repro.exp.producers import execute_point
from repro.exp.store import ResultStore
from repro.faults.plan import FaultPlan

#: Accepted ``on_error`` policies (CLI spelling ``fail-fast`` is normalized).
ON_ERROR_POLICIES = ("fail_fast", "collect")

#: Version of the RunReport dict/JSON schema (``--report`` files, service
#: status endpoints). Bump when fields change meaning or disappear; adding
#: fields is backward-compatible and does not bump.
REPORT_SCHEMA = 1


def backoff_delay(content_key: str, attempt: int, base_s: float, cap_s: float) -> float:
    """Capped exponential backoff with deterministic per-attempt jitter.

    Shared by the :class:`Runner` and the sweep service so both layers
    retry on the same schedule. Three properties the tests pin:

    * **Deterministic** — the jitter is a SHA-256 over (key, attempt), so
      a replayed run waits exactly as long as the original.
    * **Non-decreasing in attempt** — the jitter factor lives in
      ``[1.0, 1.5)`` over an uncapped doubling base, so attempt ``a+1``'s
      floor (``2^(a+1) * base``) clears attempt ``a``'s ceiling
      (``1.5 * 2^a * base``), and the final ``min`` against the cap is
      monotone.
    * **Capped** — never exceeds ``cap_s``.

    Only the *retry schedule* is derived per attempt — point seeds are
    never touched, so a retried point recomputes the fault-free result.
    """
    if base_s <= 0.0:
        return 0.0
    digest = hashlib.sha256(f"{content_key}/retry/{attempt}".encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:8], "little") / float(1 << 64)
    return min(cap_s, base_s * (2.0 ** attempt) * (1.0 + 0.5 * jitter))


#: Seconds between a pool worker's checks that its supervisor is alive.
_PARENT_POLL_S = 0.5


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the supervisor is gone.

    A daemon thread records the parent pid and hard-exits the worker when
    it changes (the orphan was reparented). It runs beside the worker's
    main thread, so a worker stuck in a hung point exits too.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers exit when their supervisor dies."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent)


class _PointTimeout(Exception):
    """Internal marker: a point exceeded ``timeout_s`` (never escapes)."""


@dataclass
class RunStats:
    """Accounting for one :meth:`Runner.run` call."""

    total: int = 0
    #: Points actually simulated (pool or serial).
    executed: int = 0
    #: Points served from the result store.
    cached: int = 0
    #: Points aliased to an identical point earlier in the same plan.
    deduped: int = 0
    #: Points that terminally failed (``on_error="collect"`` only; a
    #: fail-fast failure raises instead). Includes aliases of failed points.
    failed: int = 0
    #: Retry attempts scheduled across all points.
    retried: int = 0
    elapsed_s: float = 0.0


@dataclass
class AttemptRecord:
    """One execution attempt of one plan point."""

    index: int
    series: str
    x: float
    attempt: int
    #: "ok" | "error" | "timeout" | "crash"
    outcome: str
    error_type: str = ""
    message: str = ""
    elapsed_s: float = 0.0


@dataclass
class PointFailure:
    """A point that exhausted every attempt (its result slot stays None)."""

    index: int
    series: str
    x: float
    content_key: str
    attempts: int
    outcome: str
    error_type: str = ""
    message: str = ""


@dataclass
class RunReport:
    """Structured failure-policy report of one :meth:`Runner.run` call.

    Everything the run's supervision did, machine-readable: per-point
    attempt records, terminal failures, retry/timeout/crash/pool counters,
    store-integrity events, and the fault plan that was injected (if any).
    Rendered by the CLI and exportable as JSON (``--report FILE``).
    """

    total: int = 0
    executed: int = 0
    cached: int = 0
    deduped: int = 0
    failed: int = 0
    retried: int = 0
    timeouts: int = 0
    #: Attempts lost to worker-process death (each casualty of a pool
    #: breakage counts one, since each lost an execution attempt).
    crashes: int = 0
    pool_rebuilds: int = 0
    degraded_serial: bool = False
    #: Store entries quarantined (renamed ``*.corrupt``) during this run.
    quarantined: int = 0
    #: Store entries deliberately bit-rotted by the active fault plan.
    corruptions_injected: int = 0
    elapsed_s: float = 0.0
    jobs: int = 1
    on_error: str = "fail_fast"
    #: Canonical entries of the active fault plan (empty when none).
    injected_faults: List[str] = field(default_factory=list)
    attempts: List[AttemptRecord] = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every point produced a result."""
        return self.failed == 0

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable dict (the ``--report`` schema).

        Carries ``schema`` (:data:`REPORT_SCHEMA`) so service status
        endpoints and archived ``--report`` artifacts stay
        forward-compatible: a consumer checks the version instead of
        sniffing fields.
        """
        doc = asdict(self)
        doc["schema"] = REPORT_SCHEMA
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output (e.g. a parsed
        ``--report`` file). Unknown keys are ignored — a newer producer's
        additive fields must not break an older consumer — but a schema
        *ahead* of this code is refused loudly rather than misread."""
        schema = doc.get("schema", REPORT_SCHEMA)
        if int(schema) > REPORT_SCHEMA:
            raise ConfigurationError(
                f"report schema {schema} is newer than supported ({REPORT_SCHEMA})"
            )
        known = {f.name for f in dataclass_fields(cls)}
        kwargs = {k: v for k, v in doc.items() if k in known}
        kwargs["attempts"] = [AttemptRecord(**a) for a in kwargs.get("attempts", [])]
        kwargs["failures"] = [PointFailure(**f) for f in kwargs.get("failures", [])]
        return cls(**kwargs)

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """A compact human-readable summary (the CLI's stderr epilogue)."""
        if self.total == 0:
            # An empty plan ran nothing: say so, instead of a misleading
            # "0 points — 0 executed, ... 0 failed" accounting line.
            lines = [
                f"run report: empty plan — nothing to run "
                f"(jobs={self.jobs}, on_error={self.on_error}, {self.elapsed_s:.2f}s)"
            ]
        elif self.executed == 0 and self.failed == 0 and self.cached:
            # Every point came from the store/dedup: the interesting fact
            # is that zero simulations ran, not a parade of zero counters.
            lines = [
                f"run report: {self.total} points — all served from cache "
                f"({self.cached} cached, {self.deduped} deduped; "
                f"jobs={self.jobs}, {self.elapsed_s:.2f}s)"
            ]
        else:
            lines = [
                f"run report: {self.total} points — {self.executed} executed, "
                f"{self.cached} cached, {self.deduped} deduped, {self.failed} failed "
                f"(jobs={self.jobs}, on_error={self.on_error}, {self.elapsed_s:.2f}s)"
            ]
        if (
            self.retried or self.timeouts or self.crashes or self.pool_rebuilds
            or self.degraded_serial or self.quarantined or self.corruptions_injected
        ):
            lines.append(
                f"  supervision: {self.retried} retries, {self.timeouts} timeouts, "
                f"{self.crashes} crashed attempts, {self.pool_rebuilds} pool rebuilds"
                + (", degraded to serial" if self.degraded_serial else "")
                + f", {self.quarantined} quarantined entries"
                + (
                    f", {self.corruptions_injected} corruptions injected"
                    if self.corruptions_injected
                    else ""
                )
            )
        if self.injected_faults:
            lines.append(f"  injected faults: {', '.join(self.injected_faults)}")
        for failure in self.failures:
            lines.append(
                f"  FAILED {failure.series!r}@{failure.x:g} (index {failure.index}): "
                f"{failure.outcome} after {failure.attempts} attempt(s)"
                + (f" [{failure.error_type}: {failure.message}]" if failure.error_type else "")
            )
        return "\n".join(lines)


@dataclass
class _RunCtx:
    """Mutable state shared by one run's supervision paths."""

    specs: List[PointSpec]
    results: List[Optional[PointResult]]
    stats: RunStats
    report: RunReport
    failed: Set[int] = field(default_factory=set)
    done: int = 0


@dataclass
class Runner:
    """Executes :class:`~repro.exp.plan.ExperimentPlan` objects.

    ``jobs`` is the process-pool width (1 = in-process serial execution);
    ``store`` enables content-addressed reuse; ``progress`` is called as
    ``progress(done, total, spec, result, cached)`` after every point, in
    completion order (presentation only — reduction order is plan order; a
    raising callback is disabled with a warning, never aborts the sweep).

    Supervision knobs: ``timeout_s`` (per-point deadline), ``retries``
    (extra attempts per point), ``backoff_s``/``backoff_cap_s`` (capped
    exponential retry delay with deterministic per-attempt jitter),
    ``on_error`` (``"fail_fast"`` or ``"collect"``), ``max_pool_rebuilds``
    (crash recoveries before degrading to serial), and ``fault_plan``
    (deterministic injection; defaults to ``REPRO_INJECT_FAULTS``).
    """

    jobs: int = 1
    store: Optional[ResultStore] = None
    progress: Optional[ProgressFn] = None
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0
    on_error: str = "fail_fast"
    max_pool_rebuilds: int = 1
    fault_plan: Optional[FaultPlan] = None
    #: Stats of the most recent :meth:`run` (read-only convenience).
    last_stats: RunStats = field(default_factory=RunStats, compare=False)
    #: Failure-policy report of the most recent :meth:`run`.
    last_report: RunReport = field(default_factory=RunReport, compare=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff_s and backoff_cap_s must be >= 0")
        if self.max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )
        self.on_error = self.on_error.replace("-", "_")
        if self.on_error not in ON_ERROR_POLICIES:
            raise ConfigurationError(
                f"on_error must be one of {list(ON_ERROR_POLICIES)}, got {self.on_error!r}"
            )
        if self.fault_plan is None:
            self.fault_plan = FaultPlan.from_env()
        self._progress_broken = False

    # -- execution -------------------------------------------------------------

    def run(self, plan: ExperimentPlan) -> List[Optional[PointResult]]:
        """Execute every point; returns results **in plan order**.

        Under ``on_error="collect"`` a failed point's slot is None and
        :attr:`last_report` carries its :class:`PointFailure`; under
        ``fail_fast`` the first terminal failure raises after completed
        in-flight results are flushed to the store.
        """
        start = time.perf_counter()
        specs = plan.points
        ctx = _RunCtx(
            specs=specs,
            results=[None] * len(specs),
            stats=RunStats(total=len(specs)),
            report=RunReport(
                total=len(specs),
                jobs=self.jobs,
                on_error=self.on_error,
                injected_faults=self.fault_plan.describe() if self.fault_plan else [],
            ),
        )
        # Installed up-front (and mutated in place) so an aborted run still
        # leaves finalized accounting behind.
        self.last_stats = ctx.stats
        self.last_report = ctx.report
        self._progress_broken = False
        quarantined_before = self.store.quarantined if self.store is not None else 0

        try:
            # Resolve store hits and in-plan duplicates first.
            first_by_key: Dict[str, int] = {}
            pending: List[int] = []  # canonical (first-occurrence) indices to run
            aliases: Dict[int, int] = {}  # duplicate index -> canonical index
            for i, spec in enumerate(specs):
                key = spec.content_key()
                canonical = first_by_key.get(key)
                if canonical is not None:
                    aliases[i] = canonical
                    continue
                first_by_key[key] = i
                hit = self.store.get(spec) if self.store is not None else None
                if hit is not None:
                    ctx.results[i] = hit
                    ctx.stats.cached += 1
                    self._report_point(ctx, i, True)
                else:
                    pending.append(i)

            if self.jobs > 1 and len(pending) > 1:
                self._run_pool(ctx, pending)
            else:
                for i in pending:
                    self._run_point_serial(ctx, i, start_attempt=0)

            # Fill duplicates from their canonical point (same computation, so
            # sharing the result object preserves bit-identical reduction).
            for i, canonical in aliases.items():
                ctx.results[i] = ctx.results[canonical]
                ctx.stats.deduped += 1
                if canonical in ctx.failed:
                    ctx.failed.add(i)
                self._report_point(ctx, i, True)
        finally:
            ctx.stats.failed = len(ctx.failed)
            ctx.stats.elapsed_s = time.perf_counter() - start
            report = ctx.report
            report.executed = ctx.stats.executed
            report.cached = ctx.stats.cached
            report.deduped = ctx.stats.deduped
            report.retried = ctx.stats.retried
            report.failed = ctx.stats.failed
            report.elapsed_s = ctx.stats.elapsed_s
            if self.store is not None:
                report.quarantined = self.store.quarantined - quarantined_before
        return ctx.results

    def run_sweep(self, plan: ExperimentPlan) -> Sweep:
        """Execute and reduce (plan order) into a figure sweep.

        With ``on_error="collect"`` failed points are simply absent from
        the reduced sweep (``allow_missing``); see :attr:`last_report`.
        """
        results = self.run(plan)
        return plan.reduce(results, allow_missing=self.on_error == "collect")

    # -- shared bookkeeping ----------------------------------------------------

    def _report_point(self, ctx: _RunCtx, i: int, cached: bool) -> None:
        """Invoke the progress callback, firewalled: presentation must not
        abort a sweep — a raising callback is disabled for the rest of the
        run (warned once)."""
        ctx.done += 1
        if self.progress is None or self._progress_broken:
            return
        try:
            self.progress(ctx.done, len(ctx.specs), ctx.specs[i], ctx.results[i], cached)
        except Exception as exc:
            self._progress_broken = True
            warnings.warn(
                f"progress callback raised {exc!r}; callback disabled for the "
                "rest of this run",
                RuntimeWarning,
                stacklevel=2,
            )

    def _fault_for(self, i: int, attempt: int):
        return self.fault_plan.action_for(i, attempt) if self.fault_plan else None

    def _store_put(self, ctx: _RunCtx, i: int, result: PointResult) -> None:
        if self.store is None:
            return
        self.store.put(ctx.specs[i], result)
        if self.fault_plan is not None and self.fault_plan.corrupts(i):
            if self.store.corrupt(ctx.specs[i]):
                ctx.report.corruptions_injected += 1

    def _point_succeeded(self, ctx: _RunCtx, i: int, result: PointResult) -> None:
        ctx.results[i] = result
        ctx.stats.executed += 1
        self._store_put(ctx, i, result)
        self._report_point(ctx, i, False)

    @staticmethod
    def _classify(outcome: str, exc: Optional[BaseException]) -> Tuple[str, str]:
        if outcome == "timeout":
            return "Timeout", str(exc) if exc is not None else "exceeded timeout_s"
        if outcome == "crash":
            return "WorkerCrash", str(exc) if exc is not None else "worker process died"
        if exc is not None:
            return type(exc).__name__, str(exc)
        return "", ""

    def _record_attempt(
        self,
        ctx: _RunCtx,
        i: int,
        attempt: int,
        outcome: str,
        exc: Optional[BaseException] = None,
        elapsed_s: float = 0.0,
    ) -> None:
        spec = ctx.specs[i]
        error_type, message = ("", "") if outcome == "ok" else self._classify(outcome, exc)
        ctx.report.attempts.append(
            AttemptRecord(
                index=i,
                series=spec.series,
                x=spec.x,
                attempt=attempt,
                outcome=outcome,
                error_type=error_type,
                message=message,
                elapsed_s=elapsed_s,
            )
        )

    def _backoff_delay(self, spec: PointSpec, attempt: int) -> float:
        """This runner's retry delay for (point, attempt); see
        :func:`backoff_delay` for the deterministic/monotone/capped
        contract."""
        return backoff_delay(spec.content_key(), attempt, self.backoff_s, self.backoff_cap_s)

    def _point_failed(
        self, ctx: _RunCtx, i: int, attempts: int, outcome: str, exc: Optional[BaseException]
    ) -> Optional[PointExecutionError]:
        """Record a terminal failure; returns the exception to raise under
        fail_fast, or None when the collect policy absorbs it."""
        spec = ctx.specs[i]
        error_type, message = self._classify(outcome, exc)
        ctx.failed.add(i)
        ctx.report.failures.append(
            PointFailure(
                index=i,
                series=spec.series,
                x=spec.x,
                content_key=spec.content_key(),
                attempts=attempts,
                outcome=outcome,
                error_type=error_type,
                message=message,
            )
        )
        if self.on_error == "collect":
            self._report_point(ctx, i, False)
            return None
        return PointExecutionError(
            f"point {spec.series!r}@{spec.x:g} (index {i}) failed after "
            f"{attempts} attempt(s): {outcome}"
            + (f" [{error_type}: {message}]" if error_type else ""),
            spec=spec,
            attempts=attempts,
        )

    def _after_failed_attempt(
        self,
        ctx: _RunCtx,
        i: int,
        attempt: int,
        outcome: str,
        exc: Optional[BaseException],
        delayed: List[Tuple[float, int, int]],
    ) -> Optional[PointExecutionError]:
        """Pool path: schedule a backoff retry or finalize the failure.

        Configuration errors are non-retryable — a misconfigured point can
        never succeed, so retrying it only burns the budget.
        """
        if attempt < self.retries and not isinstance(exc, ConfigurationError):
            ctx.stats.retried += 1
            eligible = time.perf_counter() + self._backoff_delay(ctx.specs[i], attempt)
            delayed.append((eligible, i, attempt + 1))
            return None
        return self._point_failed(ctx, i, attempt + 1, outcome, exc)

    # -- serial supervision ----------------------------------------------------

    def _run_point_serial(self, ctx: _RunCtx, i: int, start_attempt: int) -> None:
        """Attempt one point in-process until success, exhaustion, or abort.

        Serial deadlines are post-hoc: a hung point cannot be preempted in
        the caller's own process, so an overrun is detected after the point
        returns and its result is discarded (kept deterministic by the
        retry recomputing the identical result on success).
        """
        spec = ctx.specs[i]
        attempt = start_attempt
        while True:
            t0 = time.perf_counter()
            try:
                result = execute_point(spec, self._fault_for(i, attempt), False)
                elapsed = time.perf_counter() - t0
                if self.timeout_s is not None and elapsed > self.timeout_s:
                    raise _PointTimeout(
                        f"ran {elapsed:.3f}s > timeout_s={self.timeout_s:g} "
                        "(serial: detected post-hoc)"
                    )
            except KeyboardInterrupt:
                # run()'s finally still finalizes stats; completed points
                # were flushed to the store as they finished.
                raise
            except Exception as exc:
                elapsed = time.perf_counter() - t0
                outcome = "timeout" if isinstance(exc, _PointTimeout) else "error"
                if outcome == "timeout":
                    ctx.report.timeouts += 1
                self._record_attempt(ctx, i, attempt, outcome, exc=exc, elapsed_s=elapsed)
                if attempt < self.retries and not isinstance(exc, ConfigurationError):
                    ctx.stats.retried += 1
                    time.sleep(self._backoff_delay(spec, attempt))
                    attempt += 1
                    continue
                failure = self._point_failed(ctx, i, attempt + 1, outcome, exc)
                if failure is not None:
                    raise failure from exc
                return
            else:
                self._record_attempt(ctx, i, attempt, "ok", elapsed_s=elapsed)
                self._point_succeeded(ctx, i, result)
                return

    # -- pool supervision ------------------------------------------------------

    def _run_pool(self, ctx: _RunCtx, pending: List[int]) -> None:
        workers = min(self.jobs, len(pending))
        ready: deque = deque((i, 0) for i in pending)
        delayed: List[Tuple[float, int, int]] = []  # (eligible_at, index, attempt)
        in_flight: Dict = {}  # future -> (index, attempt, deadline)
        pool: Optional[ProcessPoolExecutor] = worker_pool(workers)
        rebuilds_left = self.max_pool_rebuilds
        try:
            while ready or delayed or in_flight:
                now = time.perf_counter()
                if delayed:
                    still = []
                    for eligible, i, attempt in delayed:
                        if eligible <= now:
                            ready.append((i, attempt))
                        else:
                            still.append((eligible, i, attempt))
                    delayed[:] = still

                # Throttled to the pool width so a point's deadline clock
                # starts at (approximately) execution start, not while it
                # sits queued behind the whole grid.
                broken: Optional[BaseException] = None
                while ready and broken is None and len(in_flight) < workers:
                    i, attempt = ready.popleft()
                    try:
                        fut = pool.submit(
                            execute_point, ctx.specs[i], self._fault_for(i, attempt), True
                        )
                    except BrokenExecutor as exc:
                        ready.appendleft((i, attempt))
                        broken = exc
                        break
                    deadline = (
                        time.perf_counter() + self.timeout_s
                        if self.timeout_s is not None
                        else None
                    )
                    in_flight[fut] = (i, attempt, deadline)

                if broken is None and not in_flight:
                    # Only backoff-delayed retries remain: sleep to the nearest.
                    next_at = min(eligible for eligible, _, _ in delayed)
                    time.sleep(max(0.0, min(next_at - time.perf_counter(), 0.25)))
                    continue

                if broken is None:
                    now = time.perf_counter()
                    deadlines = [dl for (_, _, dl) in in_flight.values() if dl is not None]
                    # Any state change arrives as a completion, so with no
                    # deadline or backoff timers pending we can block until
                    # one — exactly like an unsupervised pool.
                    if not deadlines and not delayed:
                        tick: Optional[float] = None
                    else:
                        tick = 0.1
                        if deadlines:
                            tick = min(tick, max(0.005, min(deadlines) - now))
                        if delayed:
                            nearest = min(eligible for eligible, _, _ in delayed)
                            tick = min(tick, max(0.005, nearest - now))
                    finished, _ = wait(
                        set(in_flight), timeout=tick, return_when=FIRST_COMPLETED
                    )
                    for fut in finished:
                        i, attempt, _dl = in_flight.pop(fut)
                        broken = self._process_finished(ctx, fut, i, attempt, delayed)
                        if broken is not None:
                            break

                if broken is not None:
                    pool, rebuilds_left = self._handle_pool_break(
                        ctx, pool, in_flight, delayed, broken, workers, rebuilds_left
                    )
                    if pool is None:  # degraded to serial
                        break
                    continue

                pool = self._kill_overdue(ctx, pool, in_flight, ready, delayed, workers)

            if pool is None:
                # Degraded mode: finish everything outstanding in-process,
                # in plan order, preserving per-point attempt counts.
                outstanding = sorted(
                    list(ready) + [(i, attempt) for (_e, i, attempt) in delayed]
                )
                ready.clear()
                delayed.clear()
                for i, attempt in outstanding:
                    self._run_point_serial(ctx, i, start_attempt=attempt)
        except BaseException:
            # fail_fast or KeyboardInterrupt: persist every already-finished
            # sibling before propagating — an aborted --resume run must not
            # discard completed in-flight points.
            self._drain_finished(ctx, in_flight)
            raise
        finally:
            if pool is not None:
                self._terminate_pool(pool)

    def _process_finished(
        self,
        ctx: _RunCtx,
        fut,
        i: int,
        attempt: int,
        delayed: List[Tuple[float, int, int]],
    ) -> Optional[BaseException]:
        """Handle one completed future; returns the exception that broke the
        pool (all siblings are casualties) or None."""
        try:
            result = fut.result()
        except BrokenExecutor as exc:
            ctx.report.crashes += 1
            self._record_attempt(ctx, i, attempt, "crash", exc=exc)
            failure = self._after_failed_attempt(ctx, i, attempt, "crash", exc, delayed)
            if failure is not None:
                raise failure from exc
            return exc
        except Exception as exc:
            self._record_attempt(ctx, i, attempt, "error", exc=exc)
            failure = self._after_failed_attempt(ctx, i, attempt, "error", exc, delayed)
            if failure is not None:
                raise failure from exc
            return None
        self._record_attempt(ctx, i, attempt, "ok", elapsed_s=result.elapsed_s)
        self._point_succeeded(ctx, i, result)
        return None

    def _handle_pool_break(
        self,
        ctx: _RunCtx,
        pool: ProcessPoolExecutor,
        in_flight: Dict,
        delayed: List[Tuple[float, int, int]],
        broken: BaseException,
        workers: int,
        rebuilds_left: int,
    ) -> Tuple[Optional[ProcessPoolExecutor], int]:
        """A worker died. Harvest finished siblings, charge a crashed
        attempt to every casualty, then rebuild the pool — or, once the
        rebuild budget is spent, degrade to serial (returns pool=None)."""
        for fut in list(in_flight):
            i, attempt, _dl = in_flight.pop(fut)
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                result = fut.result()
                self._record_attempt(ctx, i, attempt, "ok", elapsed_s=result.elapsed_s)
                self._point_succeeded(ctx, i, result)
                continue
            ctx.report.crashes += 1
            self._record_attempt(ctx, i, attempt, "crash", exc=broken)
            failure = self._after_failed_attempt(ctx, i, attempt, "crash", broken, delayed)
            if failure is not None:
                raise failure from broken
        self._terminate_pool(pool)
        if rebuilds_left > 0:
            ctx.report.pool_rebuilds += 1
            warnings.warn(
                f"process pool broke ({broken!r}); rebuilding "
                f"({rebuilds_left - 1} rebuild(s) left before degrading to serial)",
                RuntimeWarning,
                stacklevel=2,
            )
            return worker_pool(workers), rebuilds_left - 1
        ctx.report.degraded_serial = True
        warnings.warn(
            f"process pool broke again ({broken!r}) with no rebuild budget left; "
            "degrading to in-process serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        return None, 0

    def _kill_overdue(
        self,
        ctx: _RunCtx,
        pool: ProcessPoolExecutor,
        in_flight: Dict,
        ready: deque,
        delayed: List[Tuple[float, int, int]],
        workers: int,
    ) -> ProcessPoolExecutor:
        """Enforce per-point deadlines. A hung worker cannot be preempted,
        so the pool's processes are terminated wholesale: the overdue point
        is charged a timeout attempt, innocent in-flight points are
        rescheduled at their same attempt number, and a fresh pool replaces
        the dead one (an intentional rebuild, outside the crash budget)."""
        if self.timeout_s is None or not in_flight:
            return pool
        now = time.perf_counter()
        overdue = [
            fut
            for fut, (_i, _a, deadline) in in_flight.items()
            if deadline is not None and now > deadline
        ]
        if not overdue:
            return pool
        for fut in overdue:
            i, attempt, _dl = in_flight.pop(fut)
            if fut.done():
                # Completed in the window between wait() and this scan.
                self._process_finished(ctx, fut, i, attempt, delayed)
                continue
            ctx.report.timeouts += 1
            self._record_attempt(
                ctx, i, attempt, "timeout", elapsed_s=float(self.timeout_s)
            )
            failure = self._after_failed_attempt(ctx, i, attempt, "timeout", None, delayed)
            if failure is not None:
                raise failure
        for fut in list(in_flight):
            i, attempt, _dl = in_flight.pop(fut)
            if fut.done():
                self._process_finished(ctx, fut, i, attempt, delayed)
            else:
                ready.append((i, attempt))
        self._terminate_pool(pool)
        ctx.report.pool_rebuilds += 1
        return worker_pool(workers)

    def _drain_finished(self, ctx: _RunCtx, in_flight: Dict) -> None:
        """Persist results of already-finished futures (no waiting) before a
        fail-fast or interrupt propagates."""
        for fut, (i, attempt, _dl) in list(in_flight.items()):
            if not fut.done() or fut.cancelled() or fut.exception() is not None:
                continue
            result = fut.result()
            self._record_attempt(ctx, i, attempt, "ok", elapsed_s=result.elapsed_s)
            self._point_succeeded(ctx, i, result)
        in_flight.clear()

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on hung or dead workers."""
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
