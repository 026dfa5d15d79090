"""The repository benchmark: end-to-end host time per workload, and a
traced per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload table1-scan --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

A run repeats the workload's fixed work (see ``workloads.py``) serially, in
one process, with no result store, for about ``--seconds`` seconds (at least
three repetitions) and checks the simulated outputs of every repetition.
With ``--trace 0`` it reports the end-to-end metrics; timings are medians
over repetitions (points are pooled across repetitions) and are printed
with their quartiles. With ``--trace 1`` it first repeats the work
untraced, then traced (``tracing.py``), and reports the per-layer metrics;
the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is one
point (a sweep cell, or one Table 1 trial); it fails if it raises, runs
past the point timeout, fails a check, differs from the committed digest
at the default seed, or differs between repetitions or between the traced
and untraced runs. ``--update-digests`` rewrites the committed digests from
a run at the default seed, after a deliberate change to the model.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "out"

#: Selector variables that would make the program run other than as users
#: run it by default; cleared before the program is imported.
CLEARED_ENV = ("REPRO_MEM_KERNEL", "REPRO_SCAN_BATCH", "REPRO_TRAFFIC_BATCH", "REPRO_INJECT_FAULTS")

#: Every run makes at least this many repetitions (traced runs: this many
#: untraced and this many traced ones at the least).
MIN_REPS = 3
MIN_TRACE_REPS = 2

#: No repetition starts once this many seconds of measuring have passed, so
#: a run ends well within three minutes whatever ``--seconds`` says.
MAX_MEASURE_S = 120.0

#: Fresh-interpreter set-up samples per run (``setup_s`` is their median).
SETUP_SAMPLES = 5

#: Imports the program and expands the workload's inputs in a fresh
#: interpreter; prints the seconds that took.
_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].prepare(int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def metric_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in the
    order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# -- statistics ------------------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of *values* (0 <= pct <= 100)."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(points_per_rep: int) -> int:
    """The highest whole percentile with at least ten points beyond it in
    the MIN_REPS repetitions every run makes (a run pools more, so the
    percentile is the same in every run of a workload)."""
    pooled = points_per_rep * MIN_REPS
    return max(0, int(100 * (pooled - 10) // pooled))


def quartiles(values):
    """(q1, median, q3); q1 = q3 = the value for a single sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# -- environment -----------------------------------------------------------------


def _prepare_environment() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}; run from a repository checkout")
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def describe_environment() -> dict:
    """How the program resolved its selectors, and the host."""
    from repro.matching.port import resolve_scan_batch
    from repro.mem.kernel import resolve_kernel
    from repro.traffic.mode import traffic_mode_label

    return {
        "kernel": resolve_kernel(None),
        "scan": "batch" if resolve_scan_batch(None) else "per-slot",
        "event_loop": traffic_mode_label(None),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def measure_setup(workload_name: str, seed: int) -> list:
    """Set-up seconds of SETUP_SAMPLES fresh interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), workload_name, str(seed)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- checking --------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(workload_name: str) -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload_name, {})


def failed_points(workload, prepared, rep, *, reference, expected_digests) -> dict:
    """Point key -> reason for every failing point of one repetition.

    *reference* is the first untraced repetition's outputs (None for that
    repetition itself); *expected_digests* are the committed digests, or
    None away from the default seed.
    """
    keys = workload.point_keys(prepared)
    bad = dict(rep.failed)
    for key in keys:
        if key not in rep.outputs:
            bad.setdefault(key, "no output")
    for key, reason in workload.check(prepared, rep).items():
        bad.setdefault(key, reason)
    if rep.executed != rep.total or rep.cached:
        for key in keys:
            bad.setdefault(key, f"runner executed {rep.executed}/{rep.total}, cached {rep.cached}")
    for key, text in rep.outputs.items():
        if reference is not None and reference.get(key) != text:
            bad.setdefault(key, "output differs from the first untraced repetition")
        if expected_digests is not None and expected_digests.get(key) != digest(text):
            bad.setdefault(key, "output differs from the committed digest")
    return bad


class Ledger:
    """Attempted/failed operations over every repetition of a run."""

    def __init__(self, workload, prepared, seed: int) -> None:
        from workloads import DEFAULT_SEED

        self.workload = workload
        self.prepared = prepared
        self.expected = load_digests(workload.name) if seed == DEFAULT_SEED else None
        if self.expected == {}:
            raise SystemExit(f"perfbench: no committed digests for {workload.name}")
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}

    def add(self, rep) -> None:
        keys = self.workload.point_keys(self.prepared)
        bad = failed_points(
            self.workload, self.prepared, rep,
            reference=self.reference, expected_digests=self.expected,
        )
        if self.reference is None:
            self.reference = rep.outputs
        self.attempted += len(keys)
        self.failed += len(bad)
        for key, reason in bad.items():
            self.reasons.setdefault(key, reason)

    def fail_repetition(self, label: str, reason: str) -> None:
        """A run-level check failed: every point of one repetition fails."""
        self.failed += len(self.workload.point_keys(self.prepared))
        self.reasons.setdefault(label, reason)

    def report(self) -> None:
        for key, reason in sorted(self.reasons.items()):
            print(f"FAILED {key}: {reason}")
        verdict = "correct" if self.failed == 0 else "INCORRECT"
        print(
            f"{verdict}: {self.failed} of {self.attempted} operations failed "
            f"(failed_frac {self.failed / max(1, self.attempted):.4g})"
        )


# -- runs ------------------------------------------------------------------------


def repeat(workload, prepared, seconds: float, min_reps: int, on_rep, on_point=None) -> list:
    """Run the fixed work until *seconds* are spent (at least *min_reps*)."""
    reps = []
    begin = time.perf_counter()
    while True:
        rep = workload.run(prepared, on_point)
        on_rep(rep)
        reps.append(rep)
        spent = time.perf_counter() - begin
        typical = statistics.median(r.wall_s for r in reps)
        if len(reps) >= min_reps and spent + typical > seconds:
            break
        if spent + typical > MAX_MEASURE_S:
            break
    return reps


def end_to_end(workload, seed: int, seconds: float) -> tuple:
    """The untraced run: returns (metrics, ledger)."""
    setup = measure_setup(workload.name, seed)
    prepared = workload.prepare(seed)
    ledger = Ledger(workload, prepared, seed)
    # Peak memory is read after the first repetition: the heap the process
    # keeps after freeing a repetition's caches keeps growing with the
    # number of repetitions, which depends on host speed.
    first_peak_mb = []

    def on_rep(rep):
        ledger.add(rep)
        if not first_peak_mb:
            first_peak_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    reps = repeat(workload, prepared, seconds, MIN_REPS, on_rep)

    walls = [r.wall_s for r in reps]
    points = [t for r in reps for t in r.point_times]
    per_rep = len(workload.point_keys(prepared))
    tail_pct = tail_percentile(per_rep)
    arrivals = workload.arrivals(prepared)
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "sim_msgs_per_s": arrivals / wall,
        "point_s.p50": percentile(points, 50),
        "point_s.tail": percentile(points, tail_pct),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": first_peak_mb[0],
    }
    spreads = {
        "wall_s": quartiles(walls),
        "sim_msgs_per_s": tuple(arrivals / w for w in reversed(quartiles(walls))),
        "setup_s": quartiles(setup),
    }
    print(f"repetitions {len(reps)}, points {len(points)} ({per_rep} per repetition), "
          f"arrivals {arrivals} per repetition")
    print("repetition wall_s: " + " ".join(_fmt(w) for w in walls))
    print(f"point_s.tail is p{tail_pct} of {len(points)} pooled point times")
    units = metric_units("end_to_end")
    for name, unit in units.items():
        line = f"{name:<16} {_fmt(values[name]):>12} {unit}"
        if name in spreads:
            q1, _, q3 = spreads[name]
            line += f"   [q1 {_fmt(q1)}, q3 {_fmt(q3)}]"
        print(line)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, ledger


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, seed: int, seconds: float) -> tuple:
    """The traced run: untraced repetitions, then traced ones."""
    from tracing import LAYERS, Tracer

    prepared = workload.prepare(seed)
    ledger = Ledger(workload, prepared, seed)
    plain = repeat(workload, prepared, seconds / 2, MIN_TRACE_REPS, ledger.add)

    tracer = Tracer()
    traced_totals = []

    def on_rep(rep):
        ledger.add(rep)
        totals = tracer.totals()
        totals["wall_s"] = rep.wall_s
        totals["rep"] = rep
        traced_totals.append(totals)
        tracer.reset_totals()

    tracer.install()
    try:
        tracer.reset_totals()
        repeat(workload, prepared, seconds / 2, MIN_TRACE_REPS, on_rep, tracer.end_point)
    finally:
        tracer.uninstall()

    first = traced_totals[0]
    for i, totals in enumerate(traced_totals[1:], start=1):
        if totals["counts"] != first["counts"] or totals["calls"] != first["calls"]:
            ledger.fail_repetition(
                f"traced repetition {i}", "per-layer counts differ from the first"
            )
    # unattributed = wall - (top-level span time), so this residual is how far
    # the layer self times plus unattributed time miss the traced wall time.
    residual = max(abs(sum(t["self_s"].values()) - t["root_s"]) for t in traced_totals)
    if residual > 1e-6:
        ledger.fail_repetition("accounting", f"self times miss the traced wall by {residual} s")
    c = first["counts"]
    rep0 = first["rep"]
    arrivals = workload.arrivals(prepared)
    if workload.arrivals_reach_process and c["arrivals"] != arrivals:
        ledger.fail_repetition("arrivals", f"{c['arrivals']} handled != {arrivals} from the inputs")

    def med(fn):
        return statistics.median(fn(t) for t in traced_totals)

    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = first["calls"][layer]
        values[f"{layer}.self_s"] = med(lambda t, layer=layer: t["self_s"][layer])
    mem_self = values["mem.self_s"]
    values.update({
        "exp.points_executed": rep0.executed,
        "exp.points_cached": rep0.cached,
        "traffic.offered": rep0.offered,
        "traffic.reject_frac": _ratio(rep0.rejected, rep0.offered),
        "mpi.unexpected_frac": _ratio(c["unexpected"], c["arrivals"]),
        "matching.searches": c["searches"],
        "matching.probes_per_search": _ratio(c["probes"], c["searches"]),
        "matching.found_frac": _ratio(c["found"], c["searches"]),
        "matching.engine.lines": c["engine_lines"],
        "mem.demand_accesses": c["demand_accesses"],
        "mem.l1_hit_frac": _ratio(c["l1_hits"], c["l1_accesses"]),
        "mem.l2_hit_frac": _ratio(c["l2_hits"], c["l2_accesses"]),
        "mem.l3_hit_frac": _ratio(c["l3_hits"], c["l3_accesses"]),
        "mem.dram_fills": c["dram_fills"],
        "mem.prefetch_useful_frac": _ratio(c["prefetch_hits"], c["prefetch_fills"]),
        "mem.lines_per_s": _ratio(c["demand_accesses"], mem_self),
        "hotcache.passes": c["heater_passes"],
        "hotcache.refreshed_frac": _ratio(c["heater_refreshed"], c["heater_lines"]),
        "hotcache.busy_cycles": c["heater_busy_cycles"],
        "unattributed.self_s": med(lambda t: t["wall_s"] - t["root_s"]),
        "trace.overhead_frac": med(lambda t: t["wall_s"])
        / statistics.median(r.wall_s for r in plain) - 1.0,
    })

    traced_wall = med(lambda t: t["wall_s"])
    print(f"repetitions {len(plain)} untraced, {len(traced_totals)} traced; "
          f"traced wall {_fmt(traced_wall)} s, spans {len(tracer.span_id)}")
    print(f"layer self times + unattributed - traced wall: residual {residual:.3g} s")
    units = metric_units("per_layer")
    for name, unit in units.items():
        print(f"{name:<28} {_fmt(values[name]):>14} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}.spans.npz"
    tracer.write(path, {"workload": workload.name, "seed": seed, **describe_environment()})
    print(f"spans written to {path.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, ledger


def update_digests(workload, seed: int) -> None:
    """Record the per-point output digests of one repetition."""
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        raise SystemExit(f"perfbench: digests are recorded at the default seed {DEFAULT_SEED}")
    prepared = workload.prepare(seed)
    rep = workload.run(prepared)
    bad = failed_points(workload, prepared, rep, reference=None, expected_digests=None)
    if bad:
        raise SystemExit(f"perfbench: refusing to record failing outputs: {bad}")
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    table[workload.name] = {key: digest(text) for key, text in sorted(rep.outputs.items())}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(rep.outputs)} digests for {workload.name}")


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="table1-scan, fig6-temporal, traffic-overload, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)

    _prepare_environment()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")
    workload = WORKLOADS[args.workload]
    if args.update_digests:
        update_digests(workload, args.seed)
        return 0

    env = describe_environment()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        metrics, ledger = per_layer(workload, args.seed, args.seconds)
    else:
        metrics, ledger = end_to_end(workload, args.seed, args.seconds)
    ledger.report()
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
