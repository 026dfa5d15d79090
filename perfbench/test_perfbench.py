"""Tests of the benchmark itself: checks hold away from the default seed,
perturbed outputs are caught, and the command keeps its output contract.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

#: A seed other than workloads.DEFAULT_SEED, so no committed digest applies.
OTHER_SEED = 7


@pytest.fixture(autouse=True)
def _default_selectors(monkeypatch):
    for name in run.CLEARED_ENV:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="module")
def reps():
    """One repetition of every workload at OTHER_SEED."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        prepared = workload.prepare(OTHER_SEED)
        out[name] = (workload, prepared, workload.run(prepared))
    return out


def _failures(workload, prepared, rep, expected_digests=None):
    return run.failed_points(
        workload, prepared, rep, reference=None, expected_digests=expected_digests
    )


def test_every_workload_passes_its_checks_at_another_seed(reps):
    for name, (workload, prepared, rep) in reps.items():
        assert _failures(workload, prepared, rep) == {}, name
        assert len(rep.outputs) == len(workload.point_keys(prepared)), name
        assert len(rep.point_times) == len(rep.outputs), name


def test_other_seed_gives_other_outputs_than_the_digests(reps):
    workload, prepared, rep = reps["fig6-temporal"]
    expected = run.load_digests(workload.name)
    assert set(expected) == set(rep.outputs)
    assert _failures(workload, prepared, rep, expected), "seed must reach the program"


def test_default_seed_matches_committed_digests():
    workload = workloads.WORKLOADS["fig6-temporal"]
    prepared = workload.prepare(workloads.DEFAULT_SEED)
    rep = workload.run(prepared)
    expected = run.load_digests(workload.name)
    assert _failures(workload, prepared, rep, expected) == {}

    key = sorted(rep.outputs)[0]
    rep.outputs[key] = rep.outputs[key].replace("1", "2", 1)
    assert set(_failures(workload, prepared, rep, expected)) == {key}


def test_perturbed_table1_depth_fails_the_band(reps):
    workload, prepared, rep = reps["table1-scan"]
    rows = rep.view["rows"]
    perturbed = dataclasses.replace(rows[0], mean_search_depth=rows[0].mean_search_depth * 2)
    rep = dataclasses.replace(rep, view={"rows": [perturbed] + rows[1:]})
    bad = _failures(workload, prepared, rep)
    assert sorted(bad) == [f"32x32/5pt#{t}" for t in range(workload.trials)]


def test_perturbed_traffic_counts_fail_conservation(reps):
    workload, prepared, rep = reps["traffic-overload"]
    key, result = next(iter(rep.view["runs"].items()))
    measured = dataclasses.replace(result.measured, rejected=result.measured.rejected + 1)
    runs = dict(rep.view["runs"])
    runs[key] = dataclasses.replace(result, measured=measured)
    rep = dataclasses.replace(rep, view={"runs": runs})
    assert set(_failures(workload, prepared, rep)) == {key}


def test_perturbed_fig6_ordering_fails(reps):
    workload, prepared, rep = reps["fig6-temporal"]
    sweep = rep.view["sweeps"]["c/"]
    hc, base = sweep.series["HC"], sweep.series["baseline"]
    i = hc.index_of(1024)
    saved = hc.y[i]
    hc.y[i] = base.y[base.index_of(1024)] * 0.5
    try:
        bad = _failures(workload, prepared, rep)
    finally:
        hc.y[i] = saved
    assert set(bad) == {f"c/{label}@1024" for label in ("baseline", "HC", "LLA", "HC+LLA")}


def test_store_or_cache_use_fails_every_point(reps):
    workload, prepared, rep = reps["fig6-temporal"]
    rep = dataclasses.replace(rep, cached=1)
    assert set(_failures(workload, prepared, rep)) == set(workload.point_keys(prepared))


def _command(tmp_root: Path, *args: str):
    return subprocess.run(
        [sys.executable, str(tmp_root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=tmp_root,
    )


def test_traced_command_contract_at_another_seed():
    proc = _command(
        ROOT, "--workload", "fig6-temporal", "--seed", str(OTHER_SEED),
        "--seconds", "1", "--trace", "1",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 * 32
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["exp.points_cached"] == 0
    assert metrics["exp.points_executed"] == 32
    assert metrics["decomp.calls"] == 0 and metrics["traffic.offered"] == 0
    assert metrics["mem.calls"] > 0 and metrics["hotcache.passes"] > 0


def test_command_fails_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _command(
        tmp_path, "--workload", "table1-scan", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
