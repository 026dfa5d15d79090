"""Command-line entry point: regenerate any table or figure of the paper.

Usage (installed as ``repro``, or ``python -m repro``)::

    repro list                 # commands, registered scenarios, axes
    repro table1               # Table 1 rows
    repro fig1 [--motif amr]   # Figure 1 histograms
    repro layout               # Figure 2 cache-line packing arithmetic
    repro fig4 / fig5          # spatial locality panels (SNB / BDW)
    repro fig6 / fig7          # temporal locality panels (SNB / BDW)
    repro heater-micro         # section 4.3 random-access numbers
    repro fig8 / fig9 / fig10  # application studies
    repro ablation             # semi-permanent-occupancy proposal study
    repro run fig4_quick.toml  # any scenario file (or registered name)
    repro serve                # sweep service over a job directory
    repro submit fig4_quick.toml --job-dir d   # queue work for the server
    repro status --job-dir d   # server heartbeat + per-job progress

The figure subcommands are thin aliases over the scenario registry
(:mod:`repro.scenarios`): each one expands a named built-in scenario into
an :class:`~repro.exp.plan.ExperimentPlan` and renders the reduced sweep.
``repro run`` does the same for an arbitrary TOML/JSON scenario file — a
new experiment grid is a config file, not a driver.

Every command accepts ``--quick`` to shrink sweeps for a fast look. Sweep
commands additionally accept ``--jobs N`` (process-parallel execution,
bit-identical to serial), ``--cache-dir DIR`` (content-addressed result
store), and ``--resume`` (shorthand for the default cache directory) — see
:mod:`repro.exp`.

Failure semantics (see EXPERIMENTS.md "Failure semantics"): ``--retries N``
re-attempts failed points with capped exponential backoff, ``--timeout S``
bounds each point, ``--on-error collect`` completes the sweep past failed
points and reports them instead of aborting (``fail-fast``, the default,
aborts after flushing completed work to the store), ``--report FILE``
exports the structured RunReport as JSON, and ``--inject-faults SPEC``
(or ``REPRO_INJECT_FAULTS``) deterministically injects crashes, raises,
hangs, and store corruption to exercise all of the above.

``repro serve`` runs the supervised sweep service (:mod:`repro.service`)
over a file-based job directory: concurrent submissions share one worker
pool and one store with cross-submission dedup, bounded drop-tail
admission, per-submission checkpoint journals (kill -9 + restart resumes
with zero recomputation), a heartbeat watchdog, and LRU store eviction.
``repro submit`` queues a scenario; ``repro status`` reads progress —
both work with no server running. Service-level chaos goes through
``repro serve --inject-faults`` / ``REPRO_INJECT_SERVICE_FAULTS``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import render_series_table, render_table

#: Default --resume store location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default job directory for the service commands (serve/submit/status).
DEFAULT_JOB_DIR = ".repro-jobs"

#: Commands whose grids run through the repro.exp plan/runner subsystem.
_SWEEP_COMMANDS = (
    "fig4", "fig5", "fig6", "fig7",
    "fig8", "fig9", "fig10",
    "heater-micro", "ablation", "offload", "traffic", "run",
)

#: Commands that render sweeps as panels (charts/exports apply).
_PANEL_COMMANDS = ("fig4", "fig5", "fig6", "fig7", "traffic", "run")


def _seed(args: argparse.Namespace) -> int:
    """The run's seed: ``--seed`` if given, else the historical default 0."""
    seed = getattr(args, "seed", None)
    return 0 if seed is None else int(seed)


def _progress_to_stderr(done, total, spec, result, cached) -> None:
    if result is None:
        tag = " (failed)"
    elif cached:
        tag = " (cached)"
    else:
        tag = f" [{result.elapsed_s:.2f}s]"
    print(f"[exp] {done}/{total} {spec.series} @ {spec.x:g}{tag}", file=sys.stderr)


def _runner_from_args(args: argparse.Namespace):
    """Build the Runner a sweep command asked for (serial, quiet default)."""
    from repro.exp import ResultStore, Runner
    from repro.faults import FaultPlan

    jobs = getattr(args, "jobs", 1) or 1
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None and getattr(args, "resume", False):
        cache_dir = DEFAULT_CACHE_DIR
    store = ResultStore(cache_dir) if cache_dir else None
    progress = _progress_to_stderr if (jobs > 1 or store is not None) else None
    inject = getattr(args, "inject_faults", None)
    return Runner(
        jobs=jobs,
        store=store,
        progress=progress,
        retries=getattr(args, "retries", 0),
        timeout_s=getattr(args, "timeout", None),
        on_error=getattr(args, "on_error", "fail-fast"),
        fault_plan=FaultPlan.parse(inject) if inject else None,
    )


def _emit_report(runner, args: argparse.Namespace) -> None:
    """Render the run's failure-policy report (stderr) and export it.

    Quiet when nothing noteworthy happened and no export was requested; a
    command that runs several plans (the multi-panel figures) emits one
    report per run and the ``--report`` file keeps the last.
    """
    report = runner.last_report
    noteworthy = (
        report.failures
        or report.retried
        or report.timeouts
        or report.crashes
        or report.pool_rebuilds
        or report.degraded_serial
        or report.quarantined
        or report.corruptions_injected
    )
    if noteworthy:
        print(report.render(), file=sys.stderr)
    report_path = getattr(args, "report", None)
    if report_path:
        from pathlib import Path

        Path(report_path).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"[report written {report_path}]", file=sys.stderr)


def _scenario_plan(name: str, args: argparse.Namespace):
    """Expand a built-in scenario with the command's --quick/--seed applied."""
    from repro.scenarios import get_scenario

    spec = get_scenario(name)
    if args.quick:
        spec = spec.quick()
    return spec.with_overrides(seed=_seed(args)).expand()


def _cmd_table1(args: argparse.Namespace) -> None:
    from repro.decomp.bench import table1

    trials = 3 if args.quick else 10
    rows = [r.as_row() + (round(r.depth_std, 2),) for r in table1(trials=trials, seed=_seed(args))]
    print(
        render_table(
            ["Decomp.", "Stencil", "tr", "ts", "Length", "Search depth", "std"],
            rows,
            title="Table 1: Queue lengths and mean search depths",
        )
    )


def _cmd_fig1(args: argparse.Namespace) -> None:
    from repro.motifs import MOTIFS

    names = [args.motif] if args.motif else list(MOTIFS)
    for name in names:
        cls = MOTIFS[name]
        motif = cls(seed=_seed(args), sim_ranks=512 if args.quick else None)
        result = motif.run()
        rows = [
            (label, posted, unexpected)
            for (label, posted), (_, unexpected) in zip(
                result.posted_buckets(), result.unexpected_buckets()
            )
        ]
        print(
            render_table(
                ["Matchlist Length Bucket", "posted", "unexpected"],
                rows,
                title=f"Figure 1 ({name}): match list sizes at {result.nranks // 1024}K ranks",
            )
        )
        print()


def _cmd_layout(args: argparse.Namespace) -> None:
    from repro.matching.entry import (
        LLA_NODE_OVERHEAD,
        PRQ_ENTRY_BYTES,
        UMQ_ENTRY_BYTES,
        lla_entries_per_line,
        lla_node_bytes,
    )

    rows = []
    for label, entry in (("PRQ", PRQ_ENTRY_BYTES), ("UMQ", UMQ_ENTRY_BYTES)):
        per_line = lla_entries_per_line(entry)
        rows.append((label, entry, LLA_NODE_OVERHEAD, per_line, lla_node_bytes(per_line, entry)))
    print(
        render_table(
            ["queue", "entry bytes", "node overhead", "entries / 64B line", "node bytes"],
            rows,
            title="Figure 2: packing match entries into 64-byte cache lines",
        )
    )


def _render_panel(sweep, args: argparse.Namespace, stem: str) -> None:
    """Print one figure panel; *stem* names its export files deterministically,
    so stems are stable across repeated main() calls in one process."""
    if not sweep.series:
        # A zero-point plan (or one whose every point failed under
        # --on-error collect) has nothing to tabulate; say so instead of
        # printing a degenerate empty table.
        print(f"{sweep.title}: no points to render (empty plan or all points failed)")
        print()
        return
    print(render_series_table(sweep))
    if getattr(args, "mem_stats", False) and sweep.meta.get("mem_stats"):
        from repro.analysis.report import render_mem_stats_table

        print()
        print(render_mem_stats_table(sweep.meta["mem_stats"]))
    if getattr(args, "chart", False):
        from repro.analysis.plot import render_ascii_chart

        print()
        print(render_ascii_chart(sweep))
    export_dir = getattr(args, "export", None)
    if export_dir:
        from pathlib import Path

        from repro.analysis.export import write_sweep

        Path(export_dir).mkdir(parents=True, exist_ok=True)
        for suffix in (".csv", ".json"):
            path = Path(export_dir) / (stem + suffix)
            write_sweep(path, sweep)
            print(f"[exported {path}]")
    print()


def _locality_fig(flavor: str, arch_name: str, args: argparse.Namespace) -> None:
    """Three panels of Figures 4-7: (a) message-size sweep at queue depth
    1024, then the search-length sweep at (b) 1 B and (c) 4 KiB messages."""
    from repro.scenarios import get_scenario

    runner = _runner_from_args(args)
    panels = (
        (f"{flavor}-msg-size", None),
        (f"{flavor}-search-length", 1),
        (f"{flavor}-search-length", 4096),
    )
    for panel, (scenario, msg_bytes) in zip("abc", panels):
        spec = get_scenario(scenario)
        if args.quick:
            spec = spec.quick()
        base = {"arch": arch_name}
        if msg_bytes is not None:
            base["msg_bytes"] = msg_bytes
        plan = spec.with_overrides(base=base, seed=_seed(args)).expand()
        _render_panel(runner.run_sweep(plan), args, f"{args.command}_panel_{panel}")
        _emit_report(runner, args)


def _cmd_heater_micro(args: argparse.Namespace) -> None:
    paper = {"sandy-bridge": (47.5, 22.9), "broadwell": (38.5, 22.8)}
    plan = _scenario_plan("heater-micro", args)
    runner = _runner_from_args(args)
    results = runner.run(plan)
    rows = []
    for spec, result in zip(plan.points, results):
        cold_p, hot_p = paper[spec.series]
        if result is None:  # failed under --on-error collect
            rows.append((spec.series, "FAILED", "FAILED", cold_p, hot_p))
            continue
        rows.append(
            (spec.series, round(result.y, 1), round(result.extras["hot_ns"], 1), cold_p, hot_p)
        )
    print(
        render_table(
            ["arch", "cold ns", "hot ns", "paper cold", "paper hot"],
            rows,
            title="Section 4.3: cache heater random-access micro-benchmark",
        )
    )
    _emit_report(runner, args)


def _cmd_fig8(args: argparse.Namespace) -> None:
    from repro.apps import fig8_amg_scaling

    runner = _runner_from_args(args)
    sweep = fig8_amg_scaling(seed=_seed(args), runner=runner)
    print(render_series_table(sweep))
    try:
        base, lla = sweep.series["Baseline"], sweep.series["LLA"]
        pct = 100.0 * (base.at(1024) - lla.at(1024)) / base.at(1024)
        print(f"\nLLA runtime improvement at 1024 ranks: {pct:.2f}% (paper: 2.9%)")
    except (KeyError, ValueError):  # points lost to --on-error collect
        print("\nLLA runtime improvement at 1024 ranks: n/a (points missing)")
    _emit_report(runner, args)


def _cmd_fig9(args: argparse.Namespace) -> None:
    from repro.apps import fig9_minife_lengths

    runner = _runner_from_args(args)
    sweep = fig9_minife_lengths(seed=_seed(args), runner=runner)
    print(render_series_table(sweep))
    try:
        base, lla = sweep.series["Baseline"], sweep.series["LLA"]
        pct = 100.0 * (base.at(2048) - lla.at(2048)) / base.at(2048)
        print(f"\nLLA runtime improvement at queue length 2048: {pct:.2f}% (paper: 2.3%)")
    except (KeyError, ValueError):
        print("\nLLA runtime improvement at queue length 2048: n/a (points missing)")
    _emit_report(runner, args)


def _cmd_fig10(args: argparse.Namespace) -> None:
    from repro.apps import fig10_fds_speedups

    runner = _runner_from_args(args)
    scales = (1024, 4096, 8192) if args.quick else None
    sweep = fig10_fds_speedups(
        scales=scales or (128, 256, 512, 1024, 2048, 4096, 8192),
        seed=_seed(args),
        runner=runner,
    )
    print(render_series_table(sweep))
    _emit_report(runner, args)


def _cmd_ablation(args: argparse.Namespace) -> None:
    plan = _scenario_plan("ablation", args)
    runner = _runner_from_args(args)
    results = runner.run(plan)
    rows = []
    mem_stats = {}
    for spec, result in zip(plan.points, results):
        arch_name, label = spec.series.split(": ", 1)
        if result is None:  # failed under --on-error collect
            rows.append((arch_name, label, "FAILED"))
            continue
        rows.append((arch_name, label, round(result.y, 4)))
        mem_stats[spec.series] = result.mem_stats
    print(
        render_table(
            ["arch", "occupancy mechanism", "bandwidth (MiBps), 1B msgs"],
            rows,
            title=plan.title,
        )
    )
    if getattr(args, "mem_stats", False):
        from repro.analysis.report import render_mem_stats_table

        print()
        print(render_mem_stats_table(mem_stats))
    _emit_report(runner, args)


def _cmd_offload(args: argparse.Namespace) -> None:
    plan = _scenario_plan("offload", args)
    runner = _runner_from_args(args)
    results = runner.run(plan)
    rows = [
        (spec.series, int(spec.x), "FAILED" if result is None else round(result.y))
        for spec, result in zip(plan.points, results)
    ]
    print(
        render_table(
            ["matching engine", "queue depth", "cycles/search"],
            rows,
            title=plan.title,
        )
    )
    _emit_report(runner, args)


def _cmd_traffic(args: argparse.Namespace) -> None:
    """The open-loop overload study (the 'traffic-overload' scenario)."""
    plan = _scenario_plan("traffic-overload", args)
    runner = _runner_from_args(args)
    sweep = runner.run_sweep(plan)
    _render_panel(sweep, args, "traffic_overload")
    _emit_report(runner, args)


def _cmd_run(args: argparse.Namespace) -> None:
    """Expand and run one scenario — a registered name or a TOML/JSON file."""
    from pathlib import Path

    from repro.scenarios import SCENARIO_SUFFIXES, get_scenario, load_scenario

    target = args.scenario
    path = Path(target)
    if path.exists() or path.suffix.lower() in SCENARIO_SUFFIXES:
        spec = load_scenario(path)
    else:
        spec = get_scenario(target)
    if args.quick:
        spec = spec.quick()
    if getattr(args, "seed", None) is not None:
        spec = spec.with_overrides(seed=args.seed)
    plan = spec.expand()
    print(
        f"[scenario {spec.name} ({spec.source}): {len(plan.points)} points]",
        file=sys.stderr,
    )
    runner = _runner_from_args(args)
    sweep = runner.run_sweep(plan)
    stem = "run_" + "".join(c if c.isalnum() else "_" for c in spec.name)
    _render_panel(sweep, args, stem)
    _emit_report(runner, args)


def _cmd_validate(args: argparse.Namespace) -> None:
    from repro.validation import run_validation

    report = run_validation(quick=args.quick)
    print(report.render())
    if not report.passed:
        sys.exit(1)


def _service_from_args(args: argparse.Namespace):
    """Build the SweepService that ``repro serve`` asked for."""
    from repro.exp import ResultStore
    from repro.faults import ServiceFaultPlan
    from repro.service import SweepService

    cache_dir = args.cache_dir
    if cache_dir is None and args.resume:
        cache_dir = DEFAULT_CACHE_DIR
    inject = args.inject_faults
    return SweepService(
        jobs=args.jobs,
        store=ResultStore(cache_dir) if cache_dir else None,
        queue_capacity=args.queue_capacity,
        heartbeat_s=args.heartbeat,
        retries=args.retries,
        max_store_bytes=args.max_store_bytes,
        fault_plan=ServiceFaultPlan.parse(inject) if inject else None,
    )


def _cmd_serve(args: argparse.Namespace) -> None:
    """Run the sweep service over a job directory until idle/interrupted."""
    from repro.service import serve

    service = _service_from_args(args)
    print(
        f"[serve] job dir {args.job_dir} (jobs={args.jobs}, "
        f"capacity={args.queue_capacity})",
        file=sys.stderr,
    )
    try:
        finished = serve(
            args.job_dir,
            service,
            poll_s=args.poll,
            max_idle_s=args.max_idle,
            max_jobs=args.max_jobs,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("[serve] interrupted; drained and stopped", file=sys.stderr)
        return
    stats = service.stats
    print(
        f"[serve] stopped: {finished} job(s) finished, "
        f"{stats.executed} executed / {stats.cached} cached / "
        f"{stats.shared} shared / {stats.replayed} replayed point(s)",
        file=sys.stderr,
    )


def _cmd_submit(args: argparse.Namespace) -> None:
    """Queue one scenario into a job directory (served by 'repro serve')."""
    from repro.service import JobDirectory

    jobdir = JobDirectory(args.job_dir)
    job_id = jobdir.submit(args.scenario, quick=args.quick, seed=args.seed)
    print(job_id)


def _cmd_status(args: argparse.Namespace) -> None:
    """Report a job directory: server heartbeat, jobs, store health."""
    import json

    doc = _job_status_doc(args.job_dir)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    service = doc.get("service")
    if service:
        svc = service.get("service", {})
        adm = service.get("admission", {})
        when = "stopped" if "stopped_at" in service else "running"
        print(
            f"service: {when} (pid {service.get('pid', '?')}) — "
            f"admission {adm.get('accepted', 0)}/{adm.get('offered', 0)} accepted, "
            f"{adm.get('rejected', 0)} rejected; "
            f"{svc.get('executed', 0)} executed, {svc.get('cached', 0)} cached, "
            f"{svc.get('shared', 0)} shared, {svc.get('replayed', 0)} replayed, "
            f"{svc.get('stalled', 0)} stalled, {svc.get('crashes', 0)} crashed"
        )
        store = service.get("store")
        if store:
            print(
                f"store: {store.get('entries', 0)} entries "
                f"({store.get('entry_bytes', 0)} B), "
                f"{store.get('corrupt', 0)} quarantined, "
                f"{store.get('swept_corrupt', 0)} swept at startup, "
                f"{store.get('evicted', 0)} evicted"
            )
    else:
        print("service: no server has written a heartbeat yet")
    rows = []
    for job in doc.get("jobs", []):
        report = job.get("report") or {}
        rows.append(
            (
                job.get("job", "?"),
                job.get("scenario") or "?",
                job.get("state", "?"),
                report.get("total", ""),
                report.get("executed", ""),
                report.get("cached", ""),
                report.get("shared", ""),
                report.get("replayed", ""),
                report.get("failed", ""),
            )
        )
    if rows:
        print()
        print(
            render_table(
                ["job", "scenario", "state", "points", "executed", "cached",
                 "shared", "replayed", "failed"],
                rows,
                title=f"Jobs in {doc['root']}",
            )
        )
    else:
        print(f"no jobs in {doc['root']}")


def _job_status_doc(job_dir: str) -> dict:
    from repro.service import JobDirectory

    return JobDirectory(job_dir).status()


_COMMANDS = {
    "table1": ("Table 1: thread-decomposition queue lengths/search depths", _cmd_table1),
    "fig1": ("Figure 1: motif match-list histograms", _cmd_fig1),
    "layout": ("Figure 2: cache-line packing arithmetic", _cmd_layout),
    "fig4": ("Figure 4: spatial locality, Sandy Bridge", lambda a: _locality_fig("spatial", "sandy-bridge", a)),
    "fig5": ("Figure 5: spatial locality, Broadwell", lambda a: _locality_fig("spatial", "broadwell", a)),
    "fig6": ("Figure 6: temporal locality, Sandy Bridge", lambda a: _locality_fig("temporal", "sandy-bridge", a)),
    "fig7": ("Figure 7: temporal locality, Broadwell", lambda a: _locality_fig("temporal", "broadwell", a)),
    "heater-micro": ("Section 4.3 heater micro-benchmark", _cmd_heater_micro),
    "fig8": ("Figure 8: AMG2013 scaling", _cmd_fig8),
    "fig9": ("Figure 9: MiniFE queue lengths", _cmd_fig9),
    "fig10": ("Figure 10: FDS factor speedups", _cmd_fig10),
    "ablation": ("Section 4.6 occupancy-mechanism ablation", _cmd_ablation),
    "offload": ("Section 2.2 hardware-offload capacity cliff", _cmd_offload),
    "traffic": ("Open-loop overload study: tail latency/rejection vs load", _cmd_traffic),
    "run": ("Run a scenario: a registered name or a TOML/JSON spec file", _cmd_run),
    "validate": ("Run all DESIGN.md section 7 reproduction criteria", _cmd_validate),
    "serve": ("Run the sweep service over a job directory", _cmd_serve),
    "submit": ("Queue a scenario into a job directory", _cmd_submit),
    "status": ("Show a job directory's server/job/store state", _cmd_status),
}

#: Commands that speak the file-based job-directory protocol, not sweeps.
_SERVICE_COMMANDS = ("serve", "submit", "status")


def _cmd_list(args: argparse.Namespace) -> None:
    from repro.scenarios import iter_axes, iter_scenarios

    print(render_table(["command", "regenerates"], [(k, v[0]) for k, v in _COMMANDS.items()]))
    print()
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None and getattr(args, "resume", False):
        cache_dir = DEFAULT_CACHE_DIR
    if cache_dir:
        from repro.exp import ResultStore

        stats = ResultStore(cache_dir).stats()
        print(
            render_table(
                ["entries", "bytes", "corrupt", "tmp"],
                [(stats.entries, stats.entry_bytes, stats.corrupt, stats.tmp)],
                title=f"Result store at {cache_dir}",
            )
        )
        print()
    print(
        render_table(
            ["scenario", "kind", "points", "description"],
            [
                (s.name, s.kind or "per-grid", s.total_points(), s.description or s.title)
                for s in iter_scenarios()
            ],
            title="Registered scenarios (repro run <name> or <file.toml|file.json>)",
        )
    )
    print()
    print(
        render_table(
            ["axis", "legal values", "meaning"],
            [(a.name, a.values, a.help) for a in iter_axes()],
            title="Scenario axes (keys of 'base' and 'matrix' sections)",
        )
    )
    print()
    from repro.mem.prefetch import PREFETCHER_CATALOGUE, PREFETCHER_MODES

    print(
        render_table(
            ["unit", "model"],
            list(PREFETCHER_CATALOGUE),
            title="Prefetch units (the 'prefetcher' axis composes them)",
        )
    )
    print()
    print(
        render_table(
            ["prefetcher mode", "configuration"],
            list(PREFETCHER_MODES),
            title="Prefetcher modes (values of the 'prefetcher' axis)",
        )
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser (shared flags live on parents)."""
    from repro._version import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of 'The Case for Semi-Permanent "
        "Cache Occupancy' (ICPP'18) on the simulated substrate.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Execution flags shared by every experiment command.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quick", action="store_true", help="reduced sweeps")
    common.add_argument("--seed", type=int, default=None,
                        help="root RNG seed (default 0; 'repro run' defaults "
                        "to the scenario file's own seed)")

    # Runner/store/failure-policy flags shared by the sweep commands.
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run sweep points on N processes "
                       "(bit-identical to serial)")
    sweep.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="content-addressed result store; completed "
                       "points are reused, fresh ones written back")
    sweep.add_argument("--resume", action="store_true",
                       help=f"shorthand for --cache-dir {DEFAULT_CACHE_DIR}")
    sweep.add_argument("--retries", type=int, default=0, metavar="N",
                       help="re-attempt each failed point up to N times "
                       "(capped exponential backoff; point seeds are "
                       "never changed, so retried output is bit-identical)")
    sweep.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-point deadline in seconds; an overdue "
                       "pool worker is terminated and the point "
                       "rescheduled (serial: detected post-hoc)")
    sweep.add_argument("--on-error", choices=["fail-fast", "collect"],
                       default="fail-fast",
                       help="fail-fast: abort on the first exhausted "
                       "point (completed work is still flushed to the "
                       "store); collect: finish the sweep, report "
                       "failed points, and render what survived")
    sweep.add_argument("--report", metavar="FILE", default=None,
                       help="write the structured RunReport (attempts, "
                       "failures, supervision counters) as JSON")
    sweep.add_argument("--inject-faults", metavar="SPEC", default=None,
                       help="deterministic fault injection, e.g. "
                       "'crash@1,hang@2:1:0.5,corrupt@3' "
                       "(kind@index[:attempts[:seconds]]; kinds: crash, "
                       "raise, hang, corrupt); also via "
                       "REPRO_INJECT_FAULTS")

    # Rendering flags for the commands that print sweeps as panels.
    render = argparse.ArgumentParser(add_help=False)
    render.add_argument("--chart", action="store_true", help="ASCII charts too")
    render.add_argument("--export", metavar="DIR", default=None,
                        help="write each panel as CSV + JSON into DIR")
    render.add_argument("--mem-stats", action="store_true",
                        help="per-level hit-attribution table per variant")

    # Job-directory flag shared by the service commands.
    jobdir = argparse.ArgumentParser(add_help=False)
    jobdir.add_argument("--job-dir", metavar="DIR", default=DEFAULT_JOB_DIR,
                        help=f"file-based job directory (default {DEFAULT_JOB_DIR})")

    for name, (help_text, _) in _COMMANDS.items():
        parents = []
        if name not in _SERVICE_COMMANDS or name == "submit":
            parents.append(common)
        if name in _SWEEP_COMMANDS:
            parents.append(sweep)
        if name in _PANEL_COMMANDS:
            parents.append(render)
        if name in _SERVICE_COMMANDS:
            parents.append(jobdir)
        p = sub.add_parser(name, help=help_text, parents=parents)
        if name == "fig1":
            p.add_argument("--motif", choices=["amr", "sweep3d", "halo3d"], default=None)
        if name == "ablation":
            p.add_argument("--mem-stats", action="store_true",
                           help="per-level hit-attribution table per variant")
        if name == "run":
            p.add_argument("scenario", metavar="FILE|NAME",
                           help="a .toml/.json scenario file, or a registered "
                           "scenario name (see 'repro list')")
        if name == "serve":
            p.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker pool width shared by all submissions")
            p.add_argument("--cache-dir", metavar="DIR", default=None,
                           help="content-addressed result store shared by "
                           "all submissions (integrity-swept at startup)")
            p.add_argument("--resume", action="store_true",
                           help=f"shorthand for --cache-dir {DEFAULT_CACHE_DIR}")
            p.add_argument("--queue-capacity", type=int, default=8, metavar="N",
                           help="bounded submission queue (drop-tail beyond)")
            p.add_argument("--heartbeat", type=float, default=None, metavar="S",
                           help="quarantine workers silent for S seconds "
                           "(pool rebuilt, points rescheduled)")
            p.add_argument("--retries", type=int, default=0, metavar="N",
                           help="re-attempt failed/stalled points up to N "
                           "times (deterministic capped backoff)")
            p.add_argument("--max-store-bytes", type=int, default=None,
                           metavar="B", help="LRU-evict the store above B "
                           "bytes of entries")
            p.add_argument("--max-idle", type=float, default=None, metavar="S",
                           help="exit after S seconds with nothing queued or "
                           "running (default: serve until interrupted)")
            p.add_argument("--max-jobs", type=int, default=None, metavar="N",
                           help="exit after N jobs reach a terminal state")
            p.add_argument("--poll", type=float, default=0.1, metavar="S",
                           help="queue poll interval")
            p.add_argument("--inject-faults", metavar="SPEC", default=None,
                           help="service-level chaos, e.g. 'submit-crash@1,"
                           "worker-stall@3:0.5,store-rot@0' "
                           "(kind@n[:seconds]); also via "
                           "REPRO_INJECT_SERVICE_FAULTS")
        if name == "submit":
            p.add_argument("scenario", metavar="FILE|NAME",
                           help="a .toml/.json scenario file, or a registered "
                           "scenario name (see 'repro list')")
        if name == "status":
            p.add_argument("--json", action="store_true",
                           help="machine-readable status document")
    list_p = sub.add_parser("list", help="list commands, scenarios, and scenario axes")
    list_p.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="also report this result store's inventory")
    list_p.add_argument("--resume", action="store_true",
                        help=f"shorthand for --cache-dir {DEFAULT_CACHE_DIR}")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.errors import ScenarioError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        _cmd_list(args)
        return 0
    from repro.errors import ConfigurationError

    try:
        _COMMANDS[args.command][1](args)
    except (ConfigurationError, ScenarioError) as exc:
        # Config mistakes (bad axis, unknown scenario, malformed file or
        # fault spec) are user errors, not tracebacks.
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
