"""Supervised parallel sweep execution: pool, crashes, quarantine, drain.

The fast tests monkeypatch ``repro.runner.run_spec`` with small fakes; the
supervisor uses fork-started workers, so children inherit the patch and
the fake runs inside real worker processes.  The slow tests at the bottom
drive the real CLI / real simulator through subprocesses.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro.runner
from repro.configs import ProcessorConfig, Scheme
from repro.errors import SimTimeoutError
from repro.reliability import (
    CellSpec,
    RetryPolicy,
    RunEngine,
    RunJournal,
    FaultSchedule,
    Supervisor,
)
from repro.reliability.engine import DEFAULT_SEED_STEP
from repro.reliability import pool as pool_mod

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO, "src")


def _cells(apps, schemes=(Scheme.BASE,), **kwargs):
    return [
        CellSpec("spec", app, ProcessorConfig(scheme=scheme), **kwargs)
        for app in apps
        for scheme in schemes
    ]


def _strip_wall(journal_path):
    with open(journal_path) as handle:
        data = json.load(handle)
    for cell in data["cells"].values():
        for attempt in cell.get("attempts", ()):
            attempt.pop("wall_ms", None)
    return data


# --------------------------------------------------------------- fake runner

class _FakeCounters:
    def __init__(self, values):
        self._values = values

    def as_dict(self):
        return dict(self._values)


class _FakeResult:
    """Just enough RunResult surface for capture_metrics()."""

    def __init__(self, seed):
        self.cycles = 1000 + seed
        self.instructions = 500
        self.traffic_bytes = 64
        self.traffic_breakdown = {"data": 64}
        self.counters = _FakeCounters({"fake.counter": 1})
        self.sanitizer_report = None

    def count(self, name):
        return 1 if name == "fake.counter" else 0


def _fake_ok(app, config, seed=0, **kwargs):
    return _FakeResult(seed)


def _kill_self_on_base_seed(app, config, seed=0, **kwargs):
    if seed == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return _FakeResult(seed)


def _timeout_on_base_seed(app, config, seed=0, **kwargs):
    if seed == 0:
        raise SimTimeoutError(100, "injected")
    return _FakeResult(seed)


def _oom_on_mcf(app, config, seed=0, **kwargs):
    if app == "mcf":
        raise MemoryError("simulated allocation failure")
    return _FakeResult(seed)


def _stall_on_mcf(app, config, seed=0, **kwargs):
    if app == "mcf":
        time.sleep(30)
    return _FakeResult(seed)


def _slow_ok(app, config, seed=0, **kwargs):
    time.sleep(0.4)
    return _FakeResult(seed)


# ------------------------------------------------------------------- tests

class TestPoolBasics:
    def test_jobs_1_stays_serial(self, tmp_path):
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"),
            supervisor=Supervisor(jobs=1),
        )
        outcomes = engine.run_specs(_cells(["hmmer"], instructions=200))
        assert [o.status for o in outcomes] == ["ok"]
        assert engine.supervisor.stats["workers_spawned"] == 0

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        specs = _cells(
            ["hmmer", "mcf"], (Scheme.BASE, Scheme.IS_SPECTRE),
            instructions=200,
        )
        serial = RunEngine(journal=RunJournal(tmp_path / "serial.json"))
        serial_out = serial.run_specs(specs)

        sup = Supervisor(jobs=2, heartbeat_timeout=30.0)
        par = RunEngine(
            journal=RunJournal(tmp_path / "par.json"), supervisor=sup
        )
        par_out = par.run_specs(specs)

        assert [o.cell_id for o in par_out] == [o.cell_id for o in serial_out]
        assert all(o.status == "ok" for o in par_out)
        assert [o.result.cycles for o in par_out] == [
            o.result.cycles for o in serial_out
        ]
        a = _strip_wall(tmp_path / "serial.json")
        b = _strip_wall(tmp_path / "par.json")
        a["experiment"] = b["experiment"] = ""
        assert a == b

        # A retryable failure on the base seed, then success on the
        # bumped one: both paths journal the same attempt history.
        monkeypatch.setattr(repro.runner, "run_spec", _timeout_on_base_seed)
        RunEngine(journal=RunJournal(tmp_path / "serial-retry.json")).run_specs(
            specs
        )
        RunEngine(
            journal=RunJournal(tmp_path / "par-retry.json"),
            supervisor=Supervisor(jobs=2, heartbeat_timeout=30.0),
        ).run_specs(specs)
        a = _strip_wall(tmp_path / "serial-retry.json")
        b = _strip_wall(tmp_path / "par-retry.json")
        assert a == b
        assert [
            [(x["status"], x["seed"]) for x in cell["attempts"]]
            for cell in a["cells"].values()
        ] == [[("failed", 0), ("ok", DEFAULT_SEED_STEP)]] * len(specs)

    def test_resume_serves_cached_cells_without_workers(self, tmp_path):
        specs = _cells(["hmmer"], instructions=200)
        path = tmp_path / "j.json"
        RunEngine(journal=RunJournal(path)).run_specs(specs)

        sup = Supervisor(jobs=2)
        engine = RunEngine(
            journal=RunJournal(path), resume=True, supervisor=sup
        )
        outcomes = engine.run_specs(specs)
        assert [o.status for o in outcomes] == ["cached"]
        assert sup.stats["workers_spawned"] == 0
        assert outcomes[0].result.cycles is not None


class TestCrashIsolation:
    def test_worker_sigkill_retries_with_bumped_seed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _kill_self_on_base_seed)
        specs = _cells(["mcf", "hmmer"])
        sup = Supervisor(jobs=2, heartbeat_timeout=30.0, quarantine_crashes=3)
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"),
            policy=RetryPolicy(max_attempts=3),
            supervisor=sup,
        )
        outcomes = engine.run_specs(specs)
        # Both cells crash their worker at seed 0, then succeed on the
        # bumped seed -- the crash consumed an attempt, it did not reset
        # the sequence.
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert sup.stats["workers_crashed"] == 2
        for spec in specs:
            record = RunJournal(tmp_path / "j.json").get(spec.cell_id)
            assert [a["status"] for a in record["attempts"]] == [
                "failed", "ok",
            ]
            assert record["attempts"][0]["error_class"] == "WorkerCrashError"
            assert record["attempts"][1]["seed"] == DEFAULT_SEED_STEP

    def test_repeated_crashes_quarantine_the_cell(
        self, tmp_path, monkeypatch
    ):
        def always_kill(app, config, seed=0, **kwargs):
            if app == "mcf":
                os.kill(os.getpid(), signal.SIGKILL)
            return _FakeResult(seed)

        monkeypatch.setattr(repro.runner, "run_spec", always_kill)
        sup = Supervisor(jobs=2, heartbeat_timeout=30.0)
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"),
            policy=RetryPolicy(max_attempts=5),
            supervisor=sup,
        )
        outcomes = engine.run_specs(_cells(["mcf", "hmmer"]))
        statuses = {o.cell_id.split(":")[1]: o for o in outcomes}
        assert statuses["mcf"].status == "poisoned"
        assert not statuses["mcf"].ok
        assert statuses["hmmer"].status == "ok"
        assert sup.stats["cells_quarantined"] == 1
        # Quarantine preempts the retry budget: exactly 2 crash attempts.
        record = RunJournal(tmp_path / "j.json").get(statuses["mcf"].cell_id)
        assert record["status"] == "poisoned"
        assert len(record["attempts"]) == 2
        assert "quarantined" in record["error_message"]

    def test_memory_error_is_contained_in_the_cell(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _oom_on_mcf)
        sup = Supervisor(jobs=2, heartbeat_timeout=30.0)
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"),
            policy=RetryPolicy(max_attempts=2),
            supervisor=sup,
        )
        outcomes = engine.run_specs(_cells(["mcf", "hmmer"]))
        statuses = {o.cell_id.split(":")[1]: o for o in outcomes}
        assert statuses["mcf"].status == "failed"
        assert statuses["mcf"].error_class == "MemoryError"
        assert statuses["hmmer"].status == "ok"
        # The worker survived the MemoryError: no process was lost.
        assert sup.stats["workers_crashed"] == 0
        # MemoryError is not retryable -- one attempt only.
        record = RunJournal(tmp_path / "j.json").get(statuses["mcf"].cell_id)
        assert len(record["attempts"]) == 1

    def test_heartbeat_stall_kills_and_quarantines(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _stall_on_mcf)
        sup = Supervisor(jobs=2, heartbeat_timeout=0.5, poll_interval=0.05)
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"),
            policy=RetryPolicy(max_attempts=4),
            supervisor=sup,
        )
        outcomes = engine.run_specs(_cells(["mcf", "hmmer"]))
        statuses = {o.cell_id.split(":")[1]: o for o in outcomes}
        assert statuses["mcf"].status == "poisoned"
        assert statuses["hmmer"].status == "ok"
        assert sup.stats["heartbeat_kills"] == 2
        assert "heartbeat" in statuses["mcf"].error_message

    def test_supervisor_rss_poll_kills_over_ceiling(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _slow_ok)
        # Fake the parent-side RSS probe: every worker instantly looks
        # enormous, so the polling path (not the in-worker rlimit) fires.
        monkeypatch.setattr(
            pool_mod, "_rss_bytes", lambda pid: 10**12
        )
        sup = Supervisor(
            jobs=1, max_rss=2**30, heartbeat_timeout=30.0, poll_interval=0.05
        )
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"),
            policy=RetryPolicy(max_attempts=2),
            supervisor=sup,
        )
        outcomes = sup.run_specs(engine, _cells(["mcf"]))
        assert outcomes[0].status == "poisoned"
        assert sup.stats["rss_kills"] >= 1
        assert "RSS" in outcomes[0].error_message

    def test_rss_bytes_reads_proc(self):
        rss = pool_mod._rss_bytes(os.getpid())
        assert rss is None or rss > 0

    def test_sanitizer_violation_transports_across_the_pipe(self, tmp_path):
        # A record-mode sanitizer report produced inside a worker must
        # reach the supervisor and fail the cell exactly like the serial
        # engine: journaled report, failed status, no retry.
        spec = CellSpec(
            "parsec", "fluidanimate", ProcessorConfig(scheme=Scheme.BASE),
            instructions=600, sanitize="record",
        )
        schedule = FaultSchedule.parse(["inv.drop:nth=1"])
        sup = Supervisor(jobs=2, heartbeat_timeout=60.0)
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"),
            policy=RetryPolicy(max_attempts=3),
            supervisor=sup,
            fault_schedule=schedule,
        )
        outcomes = engine.run_specs([spec])
        assert outcomes[0].status == "failed"
        assert "violation" in outcomes[0].error_message
        record = RunJournal(tmp_path / "j.json").get(spec.cell_id)
        assert record["status"] == "failed"
        assert len(record["attempts"]) == 1  # never retryable
        report = record["attempts"][0]["sanitizer"]
        assert report["violation_count"] >= 1


class TestGracefulDrain:
    def test_drain_finishes_in_flight_and_keeps_journal(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _slow_ok)
        specs = _cells(["a", "b", "c", "d"])
        sup = Supervisor(jobs=1, heartbeat_timeout=30.0, poll_interval=0.05)
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"), supervisor=sup
        )
        raised = []

        def run():
            try:
                sup.run_specs(engine, specs)
            except KeyboardInterrupt as error:
                raised.append(error)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.6)  # let the first cell land, second be in flight
        sup.request_drain()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert raised, "drain must surface as KeyboardInterrupt"
        assert sup.drained and not sup.hard_abort

        journal = RunJournal(tmp_path / "j.json")
        done = journal.completed_ids()
        assert 1 <= len(done) < len(specs)
        assert len(engine.outcomes) == len(done)

        # Resume picks up exactly the remaining cells, serially.
        engine2 = RunEngine(
            journal=RunJournal(tmp_path / "j.json"), resume=True
        )
        outcomes = engine2.run_specs(specs)
        assert all(o.ok for o in outcomes)
        cached = [o for o in outcomes if o.status == "cached"]
        assert len(cached) == len(done)


@pytest.mark.slow
class TestSubprocessSupervision:
    """Real processes, real simulator: kill -9 the supervisor, determinism."""

    DRIVER = """
import sys
sys.path.insert(0, {src!r})
from repro.configs import ProcessorConfig, Scheme
from repro.reliability import CellSpec, RunEngine, RunJournal, Supervisor

specs = [
    CellSpec("spec", app, ProcessorConfig(scheme=Scheme.BASE),
             instructions=8000)
    for app in ("mcf", "hmmer", "bzip2", "sjeng")
]
engine = RunEngine(
    journal=RunJournal({journal!r}, experiment="t"),
    resume=True,
    supervisor=Supervisor(jobs=2, heartbeat_timeout=60.0),
)
engine.run_specs(specs)
print("COMPLETE", flush=True)
"""

    def test_resume_after_supervisor_kill9(self, tmp_path):
        journal_path = str(tmp_path / "j.json")
        script = self.DRIVER.format(src=SRC, journal=journal_path)

        # Run 1: SIGKILL the whole supervisor once the first cell lands.
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if os.path.exists(journal_path):
                try:
                    if RunJournal(journal_path).completed_ids():
                        break
                except Exception:
                    pass
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)

        journal = RunJournal(journal_path)
        done_before = set(journal.completed_ids())
        assert done_before, "first run should have journaled >= 1 cell"

        # Run 2: resume to completion; journaled cells are not re-run.
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert "COMPLETE" in out.stdout
        final = RunJournal(journal_path)
        assert len(final.completed_ids()) == 4

    def test_serial_and_parallel_sweeps_bit_identical(self, tmp_path):
        """CLI sweeps under different PYTHONHASHSEED and --jobs produce
        identical journals (modulo wall-clock) and identical stdout."""
        outputs, journals = [], []
        for jobs, hashseed in (("1", "1"), ("4", "2")):
            journal_dir = tmp_path / f"jrn{jobs}"
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC
            env["PYTHONHASHSEED"] = hashseed
            out = subprocess.run(
                [
                    sys.executable, "-m", "repro.experiments", "figure4",
                    "--apps", "mcf,hmmer", "--instructions", "400",
                    "--no-rc", "--jobs", jobs,
                    "--journal-dir", str(journal_dir),
                ],
                capture_output=True, text=True, timeout=600, env=env,
                cwd=REPO,
            )
            assert out.returncode == 0, out.stderr
            outputs.append(out.stdout)
            journals.append(_strip_wall(journal_dir / "spec-matrix.json"))
        assert outputs[0] == outputs[1]
        assert journals[0] == journals[1]
