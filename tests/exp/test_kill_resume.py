"""Kill/resume and watchdog harness: sweeps survive preemption.

Two preemption shapes, both driven for real rather than mocked:

- **SIGKILL mid-sweep**: a subprocess runs a journaled sweep and is
  SIGKILLed after at least one point has durably completed; an
  in-process :meth:`SweepRunner.resume` then finishes the run and must
  match an uninterrupted run byte-for-byte, recomputing only the
  missing points.
- **Frozen workers**: sweep workers SIGSTOP themselves (the signature
  of preemption/freezing — heartbeats stop because the *process* stops
  being scheduled); the watchdog must kill and requeue them under the
  retry budget, and raise a typed, point-naming
  :class:`SweepWorkerHang` when the budget is exhausted.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import SweepError, SweepWorkerHang
from repro.exp import ResultCache, RunJournal, SweepPoint, SweepRunner, journal_path
from repro.exp.families import register_family
from repro.sim import SweepCacheCollector, TelemetryHub

pytestmark = pytest.mark.durability


# Families are registered at import time so forked pool workers (and the
# test process's own resume path) resolve them by name.
def _kill_slow(params, seed):
    time.sleep(params.get("sleep", 0.0))
    return {"value": params["x"] * 10 + seed}


def _self_stopper(params, seed):
    os.kill(os.getpid(), signal.SIGSTOP)  # freeze: heartbeats cease
    return {"value": params["x"]}


def _once_stopper(params, seed):
    flag = params["flag"]
    if not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGSTOP)
    return {"value": params["x"] + seed}


register_family("kill-slow", _kill_slow)
register_family("self-stopper", _self_stopper)
register_family("once-stopper", _once_stopper)


DRIVER = textwrap.dedent(
    """
    import sys, time
    from repro.exp import ResultCache, SweepPoint, SweepRunner
    from repro.exp.families import register_family

    def _kill_slow(params, seed):
        time.sleep(params.get("sleep", 0.0))
        return {"value": params["x"] * 10 + seed}

    register_family("kill-slow", _kill_slow)
    points = [
        SweepPoint(family="kill-slow", params={"x": i, "sleep": 0.3}, seed=3)
        for i in range(6)
    ]
    print("ready", flush=True)
    SweepRunner(cache=ResultCache()).run(points, run_id=sys.argv[1])
    """
)


def _points(n=6, sleep=0.3):
    return [
        SweepPoint(family="kill-slow", params={"x": i, "sleep": sleep}, seed=3)
        for i in range(n)
    ]


def _journal_done_count(run_id):
    try:
        with open(journal_path(run_id), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except FileNotFoundError:
        return 0
    count = 0
    for line in lines[1:]:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("type") == "done":
            count += 1
    return count


class TestSigkillResume:
    def test_sigkilled_sweep_resumes_bit_identically(self, tmp_path):
        run_id = "run-sigkill"
        script = tmp_path / "driver.py"
        script.write_text(DRIVER, encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script), run_id],
            env=env,
            cwd=os.getcwd(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if _journal_done_count(run_id) >= 1:
                    break
                if proc.poll() is not None:
                    out, err = proc.communicate()
                    pytest.fail(
                        "driver exited before it could be killed:\n"
                        + err.decode(errors="replace")
                    )
                time.sleep(0.02)
            else:
                pytest.fail("driver never journaled a completed point")
            proc.kill()  # SIGKILL: no cleanup, no atexit, mid-sweep
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        done_at_kill = _journal_done_count(run_id)
        assert 1 <= done_at_kill < 6  # killed mid-run, not after the end

        # Uninterrupted reference run against a separate cache.
        expected = SweepRunner(cache=ResultCache(str(tmp_path / "ref"))).run(
            _points(sleep=0.0)
        )

        # Resume in-process against the journal + cache the victim left.
        collector = SweepCacheCollector()
        hub = TelemetryHub([collector])
        runner = SweepRunner(cache=ResultCache(telemetry=hub), telemetry=hub)
        resumed = runner.resume(run_id)
        assert resumed == expected
        assert collector.hits >= done_at_kill  # journaled points not recomputed
        assert collector.misses == 6 - collector.hits
        assert RunJournal.load(run_id).done == set(range(6))

    def test_resume_params_come_from_journal(self, tmp_path):
        # resume() takes no point list: the journal alone reconstructs it.
        runner = SweepRunner(cache=ResultCache())
        first = runner.run(_points(n=3, sleep=0.0), run_id="run-recon")
        again = SweepRunner(cache=ResultCache()).resume("run-recon")
        assert again == first


class TestWatchdog:
    def test_hang_timeout_idle_on_healthy_run(self):
        points = _points(n=4, sleep=0.0)
        serial = SweepRunner(workers=0).run(points)
        watched = SweepRunner(workers=2, hang_timeout=5.0).run(points)
        assert watched == serial

    def test_frozen_worker_exhausts_retries_with_typed_error(self):
        points = [SweepPoint(family="self-stopper", params={"x": 1}, seed=0)]
        runner = SweepRunner(workers=2, hang_timeout=0.6, retries=0)
        with pytest.raises(SweepWorkerHang) as excinfo:
            runner.run(points)
        message = str(excinfo.value)
        assert "family='self-stopper'" in message
        assert "hash=" in message
        assert "stopped heartbeating" in message

    def test_frozen_worker_requeued_within_budget(self, tmp_path):
        flag = str(tmp_path / "hung-once.flag")
        points = [
            SweepPoint(family="once-stopper", params={"x": i, "flag": flag}, seed=2)
            for i in range(3)
        ]
        collector = SweepCacheCollector()
        hub = TelemetryHub([collector])
        runner = SweepRunner(workers=2, hang_timeout=0.6, retries=1, telemetry=hub)
        results = runner.run(points)
        assert [r["value"] for r in results] == [2, 3, 4]
        events = [event for event, _ in collector._log]
        assert "hang" in events
        assert "requeue" in events
        assert "heartbeat" in events

    def test_hang_budget_charged_per_point_not_globally(self, tmp_path):
        # Two different points each hang once; with retries=1 the budget
        # is per point, so the run still completes.
        flag_a = str(tmp_path / "a.flag")
        flag_b = str(tmp_path / "b.flag")
        points = [
            SweepPoint(family="once-stopper", params={"x": 0, "flag": flag_a}, seed=0),
            SweepPoint(family="once-stopper", params={"x": 1, "flag": flag_b}, seed=0),
        ]
        runner = SweepRunner(workers=2, hang_timeout=0.6, retries=1)
        results = runner.run(points)
        assert [r["value"] for r in results] == [0, 1]

    def test_watchdog_config_validated(self):
        with pytest.raises(SweepError, match="hang_timeout"):
            SweepRunner(workers=1, hang_timeout=0.0)
