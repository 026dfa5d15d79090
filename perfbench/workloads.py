"""The benchmark's workloads: fixed work, simulated outputs and their checks.

Each workload is a fixed slice of one of the runs this repository exists to
produce, sized so that one repetition takes a few host seconds and a
measured run can repeat it and report medians:

``table1-scan``
    Table 1 rows through :func:`repro.decomp.bench.table1`. The
    linked-list PRQ scan against a ``NullPort`` does nearly all the work;
    the memory model, the heater and the traffic driver do none.
``fig6-temporal``
    Figure 6's Sandy Bridge panels (baseline, HC, LLA, HC+LLA) through the
    sweep runner: the cache model's miss/fill path and the heater's refresh
    passes carry the time.
``traffic-overload``
    The registered open-loop grid (4 variants, drop-tail UMQ of 256,
    ``flush_every`` 32) at a light, a medium and a saturating rate: the
    only workload that runs the open-loop driver and admission rejects.

The benchmark passes its ``--seed`` to the program as the run's seed; every
random input (thread interleavings, heap layouts, arrival schedules) is
drawn by the program from it. A workload's simulated outputs are recorded
per point as canonical text, so they can be digested and compared across
repetitions, traced and untraced runs, and against committed digests.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: The seed whose per-point output digests are committed (digests.json).
DEFAULT_SEED = 0

#: A point running longer than this counts as failed (post-hoc, serial).
POINT_TIMEOUT_S = 60.0

OnPoint = Optional[Callable[[], None]]


@dataclass
class RepResult:
    """One repetition of a workload's fixed work."""

    wall_s: float
    #: Host seconds per point, in execution order.
    point_times: List[float]
    #: Point key -> canonical simulated output (points that produced one).
    outputs: Dict[str, str]
    #: Point key -> reason, for points that raised or timed out.
    failed: Dict[str, str]
    #: Sweep accounting summed over the rep's Runner.run calls.
    total: int = 0
    executed: int = 0
    cached: int = 0
    #: Open-loop arrivals offered and rejected (traffic only).
    offered: int = 0
    rejected: int = 0
    #: Workload-specific reduced results the checks read.
    view: dict = field(default_factory=dict)


def canonical(value) -> object:
    """A JSON-ready, bit-exact rendering (floats as ``repr``)."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "__slots__") and not isinstance(value, (int, str)):
        return {name: canonical(getattr(value, name)) for name in value.__slots__}
    return value


def _text(value) -> str:
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def _point_output(result) -> str:
    """Canonical text of an exp PointResult (elapsed time excluded)."""
    return _text(
        {
            "y": result.y,
            "yerr": result.yerr,
            "extras": result.extras,
            "mem_stats": result.mem_stats,
        }
    )


class _SweepRun:
    """Runs exp plans serially with no store, recording per-point outcomes."""

    def __init__(self, on_point: OnPoint, after_point=None) -> None:
        from repro.exp import Runner

        self.on_point = on_point
        self.after_point = after_point
        self.runner = Runner(
            jobs=1,
            store=None,
            on_error="collect",
            timeout_s=POINT_TIMEOUT_S,
            progress=self._progress,
        )
        self.rep = RepResult(wall_s=0.0, point_times=[], outputs={}, failed={})
        self._prefix = ""

    def _progress(self, done, total, spec, result, cached) -> None:
        key = f"{self._prefix}{spec.series}@{spec.x:g}"
        if result is not None:
            self.rep.point_times.append(result.elapsed_s)
            self.rep.outputs[key] = _point_output(result)
        if self.after_point is not None:
            self.after_point(key, result)
        if self.on_point is not None:
            self.on_point()

    def run(self, prefix: str, plan):
        """Execute *plan*; returns the reduced sweep (failed points absent)."""
        self._prefix = prefix
        results = self.runner.run(plan)
        stats = self.runner.last_stats
        self.rep.total += stats.total
        self.rep.executed += stats.executed
        self.rep.cached += stats.cached
        for failure in self.runner.last_report.failures:
            key = f"{prefix}{failure.series}@{failure.x:g}"
            self.rep.failed[key] = f"{failure.outcome}: {failure.error_type} {failure.message}"
        return plan.reduce(results, allow_missing=True)


def _plan_keys(prefix: str, plan) -> List[str]:
    return [f"{prefix}{spec.series}@{spec.x:g}" for spec in plan.points]


class Workload:
    """Interface: prepare once per run, run many times, check each rep."""

    name = ""
    #: Every arrival reaches ``MpiProcess.handle_arrival`` (the traced run
    #: checks the arrival count against the handled count).
    arrivals_reach_process = True

    def prepare(self, seed: int):
        """Import the program and expand the inputs (this is set-up time)."""
        raise NotImplementedError

    def point_keys(self, prepared) -> List[str]:
        """Every point of one rep, in execution order."""
        raise NotImplementedError

    def arrivals(self, prepared) -> int:
        """Simulated message arrivals per rep, from the inputs alone."""
        raise NotImplementedError

    def run(self, prepared, on_point: OnPoint = None) -> RepResult:
        """Do the fixed work once; *on_point* is called after each point."""
        raise NotImplementedError

    def check(self, prepared, rep: RepResult) -> Dict[str, str]:
        """Seed-free checks: point key -> reason for every failing point."""
        raise NotImplementedError


# -- table1-scan ---------------------------------------------------------------

#: Table 1 rows (decomposition, stencil) -> paper (tr, ts, length, depth).
#: The two largest 27-point rows are left out: one trial of them costs more
#: host time than all of these rows together.
TABLE1_PAPER = {
    ((32, 32), "5pt"): (124, 128, 128, 32.51),
    ((64, 32), "5pt"): (188, 192, 192, 48.22),
    ((32, 32), "9pt"): (124, 132, 380, 85.18),
    ((64, 32), "9pt"): (188, 196, 572, 127.24),
    ((8, 8, 4), "7pt"): (184, 256, 256, 65.85),
    ((1, 1, 128), "7pt"): (128, 514, 514, 132.27),
    ((1, 1, 256), "7pt"): (256, 1026, 1026, 259.08),
    ((8, 8, 4), "27pt"): (184, 344, 2072, 410.02),
}

#: Mean search depth must land in this band around the paper's value.
DEPTH_BAND = (0.6, 1.45)


def _row_label(dims, stencil) -> str:
    return "x".join(str(d) for d in dims) + "/" + stencil


class Table1Scan(Workload):
    name = "table1-scan"
    trials = 3

    def prepare(self, seed: int):
        from repro.decomp import BlockDecomposition, get_stencil

        rows = list(TABLE1_PAPER)
        lengths = [
            BlockDecomposition(dims).counts(get_stencil(stencil)).list_length
            for dims, stencil in rows
        ]
        return {"seed": seed, "rows": rows, "lengths": lengths}

    def point_keys(self, prepared) -> List[str]:
        return [
            f"{_row_label(dims, stencil)}#{trial}"
            for dims, stencil in prepared["rows"]
            for trial in range(self.trials)
        ]

    def arrivals(self, prepared) -> int:
        return sum(prepared["lengths"]) * self.trials

    def run(self, prepared, on_point: OnPoint = None) -> RepResult:
        import repro.decomp.bench as decomp_bench

        inner = decomp_bench.run_decomposition
        times: List[float] = []
        depths: List[float] = []
        clock = time.perf_counter

        def timed_trial(*args, **kwargs):
            start = clock()
            depth = inner(*args, **kwargs)
            times.append(clock() - start)
            depths.append(depth)
            if on_point is not None:
                on_point()
            return depth

        decomp_bench.run_decomposition = timed_trial
        error = None
        rows = []
        start = clock()
        try:
            rows = decomp_bench.table1(
                trials=self.trials, seed=prepared["seed"], rows=prepared["rows"]
            )
        except Exception as exc:  # a raising trial fails the rest of the rep
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall = clock() - start
            decomp_bench.run_decomposition = inner
        keys = self.point_keys(prepared)
        outputs = {key: _text(depth) for key, depth in zip(keys, depths)}
        failed = {key: error for key in keys[len(depths):]} if error else {}
        return RepResult(
            wall_s=wall,
            point_times=times,
            outputs=outputs,
            failed=failed,
            view={"rows": rows},
        )

    def check(self, prepared, rep: RepResult) -> Dict[str, str]:
        bad: Dict[str, str] = {}
        lo, hi = DEPTH_BAND
        for res in rep.view["rows"]:
            key = (res.dims, res.stencil)
            tr, ts, length, depth = TABLE1_PAPER[key]
            got = (
                res.counts.receiving_threads,
                res.counts.sending_threads,
                res.counts.list_length,
            )
            reason = None
            if got != (tr, ts, length):
                reason = f"tr/ts/length {got} != paper {(tr, ts, length)}"
            elif not lo * depth < res.mean_search_depth < hi * depth:
                reason = f"mean depth {res.mean_search_depth:.2f} outside {lo}-{hi}x paper {depth}"
            if reason:
                label = _row_label(*key)
                for trial in range(self.trials):
                    bad[f"{label}#{trial}"] = reason
        return bad


# -- fig6-temporal ----------------------------------------------------------------

#: (panel, scenario, base overrides, x axis, x values). The x values are the
#: ones Figure 6's orderings are checked at (benchmarks/bench_fig6_temporal_snb.py).
FIG6_PANELS = (
    ("a", "temporal-msg-size", {"arch": "sandy-bridge"}, "msg_bytes", [256, 1 << 20]),
    ("b", "temporal-search-length", {"arch": "sandy-bridge", "msg_bytes": 1},
     "search_depth", [64, 512, 1024]),
    ("c", "temporal-search-length", {"arch": "sandy-bridge", "msg_bytes": 4096},
     "search_depth", [64, 512, 1024]),
)


class Fig6Temporal(Workload):
    name = "fig6-temporal"

    def prepare(self, seed: int):
        from repro.scenarios import get_scenario

        plans = []
        for panel, scenario, base, axis, xs in FIG6_PANELS:
            spec = get_scenario(scenario).quick()
            plans.append(
                (f"{panel}/", spec.with_overrides(base=base, matrix={axis: xs}, seed=seed).expand())
            )
        return {"plans": plans}

    def point_keys(self, prepared) -> List[str]:
        return [key for prefix, plan in prepared["plans"] for key in _plan_keys(prefix, plan)]

    def arrivals(self, prepared) -> int:
        from repro.bench.osu import OsuConfig

        total = 0
        for _, plan in prepared["plans"]:
            for spec in plan.points:
                kw = spec.kwargs
                total += int(kw.get("warmup", OsuConfig.warmup)) + int(kw["iterations"])
        return total

    def run(self, prepared, on_point: OnPoint = None) -> RepResult:
        start = time.perf_counter()
        sweep_run = _SweepRun(on_point)
        sweeps = {prefix: sweep_run.run(prefix, plan) for prefix, plan in prepared["plans"]}
        rep = sweep_run.rep
        rep.wall_s = time.perf_counter() - start
        rep.view = {"sweeps": sweeps}
        return rep

    def check(self, prepared, rep: RepResult) -> Dict[str, str]:
        """Figure 6's orderings (benchmarks/bench_fig6_temporal_snb.py)."""
        bad: Dict[str, str] = {}
        sweeps = rep.view["sweeps"]

        def at(panel, x):
            keys = [f"{panel}/{label}@{x:g}" for label in ("baseline", "HC", "LLA", "HC+LLA")]
            if any(key not in rep.outputs for key in keys):
                return None, keys
            sweep = sweeps[f"{panel}/"]
            return {label: sweep.series[label].at(x) for label in sweep.labels()}, keys

        def require(ok, keys, reason):
            if not ok:
                for key in keys:
                    bad.setdefault(key, reason)

        y, keys = at("a", 256)
        if y is not None:
            require(y["HC"] > y["baseline"], keys, "6a@256: HC <= baseline")
            require(y["HC+LLA"] >= y["LLA"] > y["baseline"], keys,
                    "6a@256: HC+LLA >= LLA > baseline fails")
        y, keys = at("a", 1 << 20)
        if y is not None:
            ys = list(y.values())
            require(max(ys) / min(ys) < 1.05, keys, "6a@1MiB: series do not converge within 5%")
        for depth in (64, 512, 1024):
            y, keys = at("b", depth)
            if y is not None:
                require(y["HC"] > y["baseline"], keys, f"6b@{depth}: HC <= baseline")
                require(y["HC+LLA"] > y["LLA"], keys, f"6b@{depth}: HC+LLA <= LLA")
        y, keys = at("c", 1024)
        if y is not None:
            require(y["HC+LLA"] > y["HC"] > y["baseline"], keys,
                    "6c@1024: HC+LLA > HC > baseline fails")
        return bad


# -- traffic-overload ----------------------------------------------------------------

#: Overrides of the registered grid: every variant at a light, a medium and
#: a saturating rate, with enough events per point that the 256-entry UMQ
#: fills and rejects at the saturating rate.
TRAFFIC_OVERRIDES = {
    "base": {"n_warmup": 200, "n_measured": 400},
    "matrix": {"arrival_rate": [0.2, 0.6, 1.2]},
}


class TrafficOverload(Workload):
    name = "traffic-overload"
    # Saturated drop-tail rejects may be replayed without the process.
    arrivals_reach_process = False

    def prepare(self, seed: int):
        from repro.scenarios import get_scenario

        spec = get_scenario("traffic-overload").with_overrides(seed=seed, **TRAFFIC_OVERRIDES)
        return {"plan": spec.expand()}

    def point_keys(self, prepared) -> List[str]:
        return _plan_keys("", prepared["plan"])

    def arrivals(self, prepared) -> int:
        return sum(
            int(spec.kwargs["n_warmup"]) + int(spec.kwargs["n_measured"])
            for spec in prepared["plan"].points
        )

    def run(self, prepared, on_point: OnPoint = None) -> RepResult:
        import repro.traffic as traffic

        inner = traffic.run_traffic
        captured: list = []
        runs: Dict[str, object] = {}

        def capture(cfg):
            result = inner(cfg)
            captured.append(result)
            return result

        def after_point(key, result):
            if result is not None and len(captured) == 1:
                runs[key] = captured[0]
            captured.clear()

        traffic.run_traffic = capture
        try:
            start = time.perf_counter()
            sweep_run = _SweepRun(on_point, after_point)
            sweep_run.run("", prepared["plan"])
            wall = time.perf_counter() - start
        finally:
            traffic.run_traffic = inner
        rep = sweep_run.rep
        rep.wall_s = wall
        for key, run in runs.items():
            phases = (run.warmup, run.measured)
            rep.offered += sum(p.events for p in phases)
            rep.rejected += sum(p.rejected + p.evicted for p in phases)
            rep.outputs[key] += _text(
                {
                    "warmup": run.warmup.as_dict(),
                    "measured": run.measured.as_dict(),
                    "heater_passes": run.heater_passes,
                }
            )
        rep.view = {"runs": runs}
        return rep

    def check(self, prepared, rep: RepResult) -> Dict[str, str]:
        """Admission conservation for every point, over both phases."""
        bad: Dict[str, str] = {}
        for spec in prepared["plan"].points:
            key = f"{spec.series}@{spec.x:g}"
            if key not in rep.outputs:
                continue
            run = rep.view["runs"].get(key)
            if run is None:
                bad[key] = "no traffic result captured for the point"
                continue
            phases = (run.warmup, run.measured)
            offered = sum(p.events for p in phases)
            accepted = sum(p.fast_matches + p.unexpected for p in phases)
            rejected = sum(p.rejected + p.evicted for p in phases)
            delivered = sum(p.delivered for p in phases)
            scheduled = int(spec.kwargs["n_warmup"]) + int(spec.kwargs["n_measured"])
            if offered != scheduled:
                bad[key] = f"offered {offered} != scheduled arrivals {scheduled}"
            elif offered != accepted + rejected:
                bad[key] = f"offered {offered} != accepted {accepted} + rejected {rejected}"
            elif delivered > accepted:
                bad[key] = f"delivered {delivered} > accepted {accepted}"
        return bad


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Table1Scan(), Fig6Temporal(), TrafficOverload())
}
