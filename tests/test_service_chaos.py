"""Chaos tests for the sweep service: the robustness acceptance suite.

Each test injects one service-level failure mode — client death at submit
time, silent worker stalls under the heartbeat watchdog, store bit-rot
during concurrent access, and a real ``kill -9`` of a serving process —
and asserts the two properties that make the service trustworthy:

* no point is ever lost or duplicated (every slot filled exactly once,
  or reported failed — never silently absent, never computed twice when
  a journal/store/registry already holds it);
* whatever survives is repr-identical to a fault-free serial run.
"""

import json
import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.arch import SANDY_BRIDGE
from repro.bench.figures import plan_temporal_msg_size
from repro.errors import ConfigurationError, InjectedFaultError
from repro.exp import ResultStore, Runner
from repro.faults import ServiceFault, ServiceFaultPlan
from repro.service import JobDirectory, SweepService


def fig6_plan():
    return plan_temporal_msg_size(
        SANDY_BRIDGE, depth=64, msg_sizes=(8, 1024), iterations=2, seed=0
    )


def serial_sweep(plan):
    return plan.reduce(Runner(jobs=1).run(plan))


class TestFaultPlanGrammar:
    def test_parse_describe_roundtrip(self):
        spec = "submit-crash@1,worker-stall@3:0.5,store-rot@0"
        plan = ServiceFaultPlan.parse(spec)
        assert plan.describe() == ["submit-crash@1", "worker-stall@3:0.5", "store-rot@0"]
        assert len(plan) == 3 and bool(plan)

    def test_stall_defaults_long(self):
        plan = ServiceFaultPlan.parse("worker-stall@2")
        action = plan.stall_for(2)
        assert action is not None and action.kind == "hang" and action.seconds == 30.0
        assert plan.stall_for(1) is None

    def test_queries_address_occurrences(self):
        plan = ServiceFaultPlan.parse("submit-crash@1,store-rot@2")
        assert not plan.submit_crashes(0) and plan.submit_crashes(1)
        assert not plan.rots_put(0) and plan.rots_put(2)

    def test_bad_specs_are_configuration_errors(self):
        for bad in ("stall@1", "worker-stall", "worker-stall@x", "worker-stall@1:2:3"):
            with pytest.raises(ConfigurationError, match="bad service fault"):
                ServiceFaultPlan.parse(bad)
        with pytest.raises(ConfigurationError, match="unknown service fault"):
            ServiceFault(kind="nap", index=0)
        with pytest.raises(ConfigurationError, match=">= 0"):
            ServiceFault(kind="store-rot", index=-1)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_INJECT_SERVICE_FAULTS", raising=False)
        assert ServiceFaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_INJECT_SERVICE_FAULTS", "store-rot@1")
        plan = ServiceFaultPlan.from_env()
        assert plan is not None and plan.rots_put(1)


class TestSubmitCrash:
    def test_service_survives_client_death_at_submit(self):
        fault = ServiceFaultPlan.parse("submit-crash@1")
        with SweepService(jobs=1, fault_plan=fault) as service:
            first = service.submit(fig6_plan(), name="before")
            with pytest.raises(InjectedFaultError, match="submit-crash"):
                service.submit(fig6_plan(), name="victim")
            third = service.submit(fig6_plan(), name="after")
            results_first = first.wait(timeout=120)
            results_third = third.wait(timeout=120)
        # The crashed client held no slot and scheduled no work; everyone
        # else is served completely and correctly.
        want = repr(serial_sweep(fig6_plan()))
        assert repr(fig6_plan().reduce(results_first)) == want
        assert repr(fig6_plan().reduce(results_third)) == want
        assert service.admission.offered == 3 and service.admission.accepted == 2
        assert service.stats.submitted == 2 and service.stats.completed == 2


class TestWorkerStall:
    def test_watchdog_quarantines_stall_and_retries(self):
        """A silently stalled worker is detected by the heartbeat deadline,
        the pool is rebuilt, the point retried: no loss, no duplication,
        results identical to a fault-free serial run."""
        plan = fig6_plan()
        fault = ServiceFaultPlan.parse("worker-stall@1:30")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with SweepService(jobs=2, heartbeat_s=0.3, retries=1,
                              backoff_s=0.01, fault_plan=fault) as service:
                sub = service.submit(plan, name="stalled")
                results = sub.wait(timeout=120)
        assert service.stats.stalled == 1
        assert service.stats.pool_rebuilds >= 1
        assert sub.report.retried == 1 and sub.report.failed == 0
        assert all(r is not None for r in results)
        assert repr(plan.reduce(results)) == repr(serial_sweep(fig6_plan()))

    def test_stall_without_retries_fails_only_that_point(self):
        plan = fig6_plan()
        fault = ServiceFaultPlan.parse("worker-stall@0:30")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with SweepService(jobs=2, heartbeat_s=0.3, retries=0,
                              fault_plan=fault) as service:
                sub = service.submit(plan, name="lossy")
                results = sub.wait(timeout=120)
        assert service.stats.stalled == 1
        assert sub.report.failed == 1
        assert sum(1 for r in results if r is None) == 1
        (note,) = sub.report.failures
        assert "stall" in note
        # Everything that survived is still bit-correct.
        want = serial_sweep(fig6_plan())
        got = plan.reduce(results, allow_missing=True)
        for label, series in got.series.items():
            for x, y in zip(series.x, series.y):
                assert want.series[label].at(x) == y


class TestStoreRot:
    def test_rot_during_concurrent_access_is_contained(self, tmp_path):
        """An entry rotted mid-service hurts nobody: concurrent readers
        already hold their results, the next service's integrity sweep
        quarantines it, and exactly one point recomputes."""
        plan = fig6_plan()
        store = ResultStore(tmp_path / "store")
        fault = ServiceFaultPlan.parse("store-rot@0")
        with SweepService(jobs=2, store=store, fault_plan=fault) as service:
            a = service.submit(plan, name="a")
            b = service.submit(fig6_plan(), name="b")
            results_a, results_b = a.wait(timeout=120), b.wait(timeout=120)
        assert service.stats.rot_injected == 1
        want = repr(serial_sweep(fig6_plan()))
        assert repr(plan.reduce(results_a)) == want
        assert repr(fig6_plan().reduce(results_b)) == want
        # Startup of the next service finds and quarantines the rot...
        fresh = ResultStore(tmp_path / "store")
        with SweepService(jobs=2, store=fresh) as second:
            c = second.submit(fig6_plan(), name="c")
            results_c = c.wait(timeout=120)
        assert second.swept_corrupt == 1
        # ...and only the rotted point recomputes; nothing lost, nothing
        # duplicated, figure unchanged.
        assert c.report.executed == 1 and c.report.cached == len(plan) - 1
        assert repr(fig6_plan().reduce(results_c)) == want


_KILL_SCENARIO = {
    "name": "kill-me",
    "kind": "osu",
    "x": "iterations",
    "base": {"arch": "sandy-bridge", "link": "auto", "depth": 256, "msg_bytes": 8},
    "matrix": {"iterations": list(range(2, 26))},
    "seed": 3,
}

_SERVE_DRIVER = """\
import sys
from repro.service import JobDirectory, SweepService, serve

service = SweepService(jobs=2)
finished = serve(JobDirectory(sys.argv[1]), service, poll_s=0.02, max_idle_s=0.3)
stats = service.stats
print(f"SERVED {finished} replayed={stats.replayed} executed={stats.executed}")
"""


def _stat_fields(pid):
    """Fields of /proc/<pid>/stat after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
            stat = f.read()
    except OSError:
        return None
    return stat.rpartition(")")[2].split()


def _children(pid):
    """Pids whose parent is *pid*, read from /proc."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def _alive(pid):
    """True while *pid* runs (a zombie has already exited)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


class TestSigkillRecovery:
    @pytest.mark.timeout(120)
    def test_kill_dash_nine_resumes_with_zero_recompute(self, tmp_path):
        """SIGKILL a serving process mid-sweep; a restarted server on the
        same job directory replays the journal and recomputes only the
        points that never completed."""
        total = len(_KILL_SCENARIO["matrix"]["iterations"])
        scenario = tmp_path / "kill-me.json"
        scenario.write_text(json.dumps(_KILL_SCENARIO), encoding="utf-8")
        driver = tmp_path / "driver.py"
        driver.write_text(_SERVE_DRIVER, encoding="utf-8")
        jobdir = JobDirectory(tmp_path / "jd")
        job_id = jobdir.submit(str(scenario), job_id="victim")
        journal_path = jobdir.journals_dir / "victim.jsonl"

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        # Pin the first life open: one dispatched point hangs far longer
        # than the test, and with no heartbeat configured the server waits
        # on it forever — so the kill window cannot be missed, while the
        # other worker keeps journaling completed points.
        env["REPRO_INJECT_SERVICE_FAULTS"] = "worker-stall@3:600"
        first = subprocess.Popen(
            [sys.executable, str(driver), str(jobdir.root)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    lines = journal_path.read_text(encoding="utf-8").count("\n")
                except OSError:
                    lines = 0
                if lines >= 6:  # header + >= 5 completed points on disk
                    break
                assert first.poll() is None, "server exited before the kill"
                time.sleep(0.02)
            else:
                pytest.fail("server never journaled enough points to kill")
            workers = _children(first.pid)
            os.kill(first.pid, signal.SIGKILL)
        finally:
            first.wait(timeout=30)
        assert first.returncode == -signal.SIGKILL
        # The pool workers (one pinned by the stall) must not outlive the
        # supervisor: they notice the parent is gone and exit.
        assert workers, "the server had no pool workers to check"
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in workers if _alive(pid)], "orphaned pool workers"

        recorded = journal_path.read_text(encoding="utf-8").count("\n") - 1
        assert recorded >= 5

        env.pop("REPRO_INJECT_SERVICE_FAULTS")
        second = subprocess.run(
            [sys.executable, str(driver), str(jobdir.root)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=120, text=True,
        )
        assert second.returncode == 0, second.stdout
        (line,) = [l for l in second.stdout.splitlines() if l.startswith("SERVED")]
        _, finished, replayed_f, executed_f = line.split()
        replayed = int(replayed_f.split("=")[1])
        executed = int(executed_f.split("=")[1])
        assert int(finished) == 1
        # Zero recomputation: every journaled point replayed, the rest —
        # and only the rest — executed. (>= because the dying server may
        # have journaled a final point after our last read.)
        assert replayed >= recorded
        assert executed == total - replayed

        # No loss, no duplication: the journal ends with exactly one
        # record per point, and the job is done with a full result set.
        doc_lines = journal_path.read_text(encoding="utf-8").splitlines()
        indices = [json.loads(l)["i"] for l in doc_lines[1:]]
        assert sorted(indices) == list(range(total))
        status = jobdir.status()
        (job,) = status["jobs"]
        assert job["job"] == job_id and job["state"] == "done"
        rows = json.loads(
            (jobdir.jobs_dir / job_id / "result.json").read_text(encoding="utf-8")
        )["rows"]
        assert len(rows) == total
