"""Lease pool: per-task futures, crash attribution, deadlines, fd hygiene.

Same trick as the supervisor tests: ``repro.runner.run_spec`` is
monkeypatched with small fakes and the fork start method carries the
patch into real worker processes.
"""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro.runner
from repro.configs import ProcessorConfig, Scheme
from repro.errors import WorkerCrashError
from repro.reliability import (
    CellSpec,
    LeasePool,
    PoolClosedError,
    RetryPolicy,
    RunEngine,
    RunJournal,
    Supervisor,
)
from repro.reliability.pool import parse_size
from repro.reliability.worker import PARENT_CHECK_S, worker_main


SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def _cell(app, **kwargs):
    return CellSpec("spec", app, ProcessorConfig(scheme=Scheme.BASE), **kwargs)


class _FakeCounters:
    def __init__(self, values):
        self._values = values

    def as_dict(self):
        return dict(self._values)


class _FakeResult:
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


def _kill_on_seed0(app, config, seed=0, **kwargs):
    if seed == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return _FakeResult(seed)


def _always_kill(app, config, seed=0, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


def _stall(app, config, seed=0, **kwargs):
    time.sleep(30)


def _slow_ok(app, config, seed=0, **kwargs):
    time.sleep(0.3)
    return _FakeResult(seed)


@pytest.fixture
def pool():
    pools = []

    def make(**kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("heartbeat_timeout", 30.0)
        kwargs.setdefault("poll_interval", 0.01)
        p = LeasePool(**kwargs).start()
        pools.append(p)
        return p

    yield make
    for p in pools:
        p.close(kill=True)


class TestLeasing:
    def test_leases_resolve_to_attempt_results(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)
        p = pool()
        futures = [p.submit(_cell("mcf"), seed=s) for s in (0, 7, 13)]
        results = [f.result(timeout=30) for f in futures]
        assert [r.status for r in results] == ["ok"] * 3
        # The seed reached the worker: the fake encodes it in cycles.
        assert [r.metrics["cycles"] for r in results] == [1000, 1007, 1013]
        assert p.stats["leases_completed"] == 3

    def test_submit_to_unstarted_or_closed_pool_fails_fast(self):
        p = LeasePool(workers=1)
        with pytest.raises(PoolClosedError):
            p.submit(_cell("mcf")).result(timeout=5)
        p.start()
        p.close(kill=True)
        with pytest.raises(PoolClosedError):
            p.submit(_cell("mcf")).result(timeout=5)

    def test_worker_crash_fails_only_its_lease(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _kill_on_seed0)
        p = pool()
        doomed = p.submit(_cell("mcf"), seed=0)
        fine = p.submit(_cell("hmmer"), seed=5)
        with pytest.raises(WorkerCrashError):
            doomed.result(timeout=30)
        assert fine.result(timeout=30).status == "ok"
        # Caller-side retry with a bumped seed lands on a fresh worker.
        retry = p.submit(_cell("mcf"), seed=9973)
        assert retry.result(timeout=30).status == "ok"
        assert p.stats["workers_crashed"] == 1
        assert p.stats["workers_spawned"] == 3  # 2 initial + 1 respawn

    def test_pool_replenishes_across_repeated_crashes(
        self, pool, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _kill_on_seed0)
        p = pool(workers=2)
        for _ in range(4):
            with pytest.raises(WorkerCrashError):
                p.submit(_cell("mcf"), seed=0).result(timeout=30)
        assert p.submit(_cell("mcf"), seed=1).result(timeout=30).status == "ok"
        assert p.stats["workers_crashed"] == 4

    def test_heartbeat_stall_kills_the_lease(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _stall)
        p = pool(heartbeat_timeout=0.4)
        with pytest.raises(WorkerCrashError) as err:
            p.submit(_cell("mcf")).result(timeout=30)
        assert err.value.kind == "heartbeat"
        assert p.stats["heartbeat_kills"] == 1

    def test_deadline_soft_path_fires_in_worker(self, pool, monkeypatch):
        # wall_clock_s reaches the worker as a WallClockGuard: the run
        # fails with a retryable SimTimeoutError, no SIGKILL involved.
        def slow_sim(app, config, seed=0, watchdog=None, **kwargs):
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if watchdog is not None:
                    watchdog(0)
                time.sleep(0.01)
            return _FakeResult(seed)

        monkeypatch.setattr(repro.runner, "run_spec", slow_sim)
        p = pool()
        result = p.submit(
            _cell("mcf"), deadline=time.monotonic() + 0.3
        ).result(timeout=30)
        assert result.status == "failed"
        assert result.error_class == "SimTimeoutError"
        assert RetryPolicy().is_retryable(result.error)
        assert p.stats["deadline_kills"] == 0  # backstop never needed

    def test_deadline_hard_backstop_kills_wedged_worker(
        self, pool, monkeypatch
    ):
        # A worker that ignores its watchdog entirely hits the pool-side
        # SIGKILL backstop: the lease fails instead of hanging forever.
        monkeypatch.setattr(repro.runner, "run_spec", _stall)
        p = pool(deadline_grace=0.2)
        with pytest.raises(WorkerCrashError) as err:
            p.submit(
                _cell("mcf"), deadline=time.monotonic() + 0.3
            ).result(timeout=30)
        assert err.value.kind == "deadline"
        assert p.stats["deadline_kills"] == 1

    def test_expired_deadline_fails_before_dispatch(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _stall)
        p = pool(workers=1, deadline_grace=0.2)
        blocker = p.submit(_cell("mcf"), deadline=time.monotonic() + 0.5)
        queued = p.submit(_cell("hmmer"), deadline=time.monotonic() + 0.1)
        with pytest.raises(WorkerCrashError) as err:
            queued.result(timeout=30)
        assert err.value.kind == "deadline"
        with pytest.raises(WorkerCrashError):
            blocker.result(timeout=30)

    def test_close_kill_fails_inflight_leases(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _stall)
        p = pool(workers=1)
        inflight = p.submit(_cell("mcf"))
        queued = p.submit(_cell("hmmer"))
        time.sleep(0.2)  # let the first lease dispatch
        p.close(kill=True)
        with pytest.raises(WorkerCrashError) as err:
            inflight.result(timeout=5)
        assert err.value.kind == "shutdown"
        with pytest.raises(PoolClosedError):
            queued.result(timeout=5)

    def test_snapshot_is_json_shaped(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)
        p = pool()
        p.submit(_cell("mcf")).result(timeout=30)
        snap = p.snapshot()
        assert len(snap["workers"]) == 2
        assert snap["backlog"] == 0
        assert snap["stats"]["leases_completed"] == 1


def _open_fds():
    gc.collect()
    return len(os.listdir("/proc/self/fd"))


class TestFdHygiene:
    def test_no_fd_growth_across_quarantines(self, tmp_path, monkeypatch):
        """50 quarantined cells (one worker SIGKILL each) must not grow
        the supervisor process's fd table: pipes and process handles are
        released at reap time, not left to garbage-collector timing."""
        monkeypatch.setattr(repro.runner, "run_spec", _always_kill)
        # Warm-up run: first multiprocessing use opens persistent fds
        # (resource tracker, /dev/shm arena) that are not per-quarantine.
        sup = Supervisor(
            jobs=2, heartbeat_timeout=30.0, poll_interval=0.01,
            quarantine_crashes=1,
        )
        engine = RunEngine(
            journal=RunJournal(tmp_path / "warm.json"),
            policy=RetryPolicy(max_attempts=1),
            supervisor=sup,
        )
        engine.run_specs([_cell("warmup")])

        before = _open_fds()
        sup = Supervisor(
            jobs=2, heartbeat_timeout=30.0, poll_interval=0.01,
            quarantine_crashes=1,
        )
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"),
            policy=RetryPolicy(max_attempts=1),
            supervisor=sup,
        )
        outcomes = engine.run_specs([_cell(f"app{i}") for i in range(50)])
        assert sup.stats["cells_quarantined"] == 50
        assert all(o.status == "poisoned" for o in outcomes)
        after = _open_fds()
        assert after <= before + 2, (
            f"fd table grew from {before} to {after} across 50 quarantines"
        )

    def test_lease_pool_releases_fds_across_crashes(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _kill_on_seed0)
        p = pool(workers=2)
        with pytest.raises(WorkerCrashError):
            p.submit(_cell("warmup"), seed=0).result(timeout=30)
        before = _open_fds()
        for _ in range(20):
            with pytest.raises(WorkerCrashError):
                p.submit(_cell("mcf"), seed=0).result(timeout=30)
        after = _open_fds()
        assert after <= before + 2, (
            f"fd table grew from {before} to {after} across 20 crashes"
        )


class TestDispatchLatency:
    """The supervision thread wakes on ``submit`` and ``close``.

    Every case runs with a 5 s ``poll_interval``: a lease or a close that
    waited out the poll would take seconds, not milliseconds.
    """

    POLL = 5.0

    def test_lease_on_an_idle_pool_dispatches_at_once(
        self, pool, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)
        p = pool(workers=1, poll_interval=self.POLL)
        assert p.submit(_cell("mcf"), seed=1).result(timeout=30).status == "ok"
        # The supervision thread is now back in its wait, with nothing
        # queued: the next lease must wake it.
        start = time.monotonic()
        result = p.submit(_cell("mcf"), seed=2).result(timeout=30)
        elapsed = time.monotonic() - start
        assert result.status == "ok"
        assert elapsed < 1.0, f"idle pool took {elapsed:.2f}s to serve a lease"

    def test_close_of_an_idle_pool_is_prompt(self):
        p = LeasePool(workers=1, poll_interval=self.POLL).start()
        time.sleep(0.1)  # let supervision settle into its wait
        start = time.monotonic()
        p.close()
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"closing an idle pool took {elapsed:.2f}s"

    def test_close_waits_for_the_lease_in_flight(self, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _slow_ok)
        p = LeasePool(workers=1, poll_interval=self.POLL).start()
        lease = p.submit(_cell("mcf"), seed=3)
        deadline = time.monotonic() + 10
        while p.snapshot()["inflight"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        p.close()
        assert lease.result(timeout=0).metrics["cycles"] == 1003

    def test_concurrent_submitters_all_resolve(self, pool, monkeypatch):
        """More workers than cores, four submitting threads and a short
        switch interval: every lease resolves to its own result."""
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)
        p = pool(workers=3, poll_interval=self.POLL)
        futures = {}

        def submitter(base):
            for seed in range(base, base + 25):
                futures[seed] = p.submit(_cell("mcf"), seed=seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=submitter, args=(base,))
                for base in (0, 100, 200, 300)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        cycles = {
            seed: future.result(timeout=60).metrics["cycles"]
            for seed, future in futures.items()
        }
        assert cycles == {seed: 1000 + seed for seed in futures}
        assert p.stats["leases_completed"] == 100

    def test_idle_pool_does_not_spin(self, pool, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)
        p = pool(workers=1, poll_interval=self.POLL)
        p.submit(_cell("mcf")).result(timeout=30)  # the pipe has been woken
        before = time.process_time()
        time.sleep(2.0)
        used = time.process_time() - before
        assert used < 0.1, f"idle pool used {used:.3f}s of CPU in 2 s"

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_start_close_cycles_leave_no_fds(self):
        # Warm-up cycle: the first pool maps the shared-memory arena the
        # heartbeat array lives in, which later pools reuse.
        LeasePool(workers=1, poll_interval=self.POLL).start().close()
        before = _open_fds()
        for _ in range(20):
            LeasePool(workers=1, poll_interval=self.POLL).start().close()
        after = _open_fds()
        assert after == before, (
            f"fd table went from {before} to {after} over 20 start/close"
        )


class TestLostLease:
    def test_lost_lease_resolves_after_the_respawn(self, pool, monkeypatch):
        """A crashed lease fails only once its replacement worker runs, so
        whoever sees the failure sees a whole pool (a slow respawn makes
        the window wide; the done callback observes it exactly)."""
        monkeypatch.setattr(repro.runner, "run_spec", _kill_on_seed0)
        spawn = LeasePool._spawn

        def slow_spawn(self, worker_id):
            time.sleep(0.3)
            return spawn(self, worker_id)

        monkeypatch.setattr(LeasePool, "_spawn", slow_spawn)
        p = pool(workers=2)
        seen = []
        lease = p.submit(_cell("mcf"), seed=0)
        lease.add_done_callback(lambda future: seen.append(p.snapshot()))
        with pytest.raises(WorkerCrashError):
            lease.result(timeout=30)
        seen.append(p.snapshot())
        for snap in seen:
            assert sum(w["alive"] for w in snap["workers"]) == 2, snap


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestParentDeath:
    PARENT_SCRIPT = """
import multiprocessing, sys, time
sys.path.insert(0, {src!r})
from repro.reliability import LeasePool
pool = LeasePool(workers=2).start()
print(*(child.pid for child in multiprocessing.active_children()), flush=True)
time.sleep(60)
"""

    def test_workers_exit_when_the_parent_is_sigkilled(self):
        with subprocess.Popen(
            [sys.executable, "-c", self.PARENT_SCRIPT.format(src=SRC)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            try:
                pids = [int(pid) for pid in proc.stdout.readline().split()]
            finally:
                proc.kill()
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_running, pids)):
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors, f"workers {survivors} outlived their parent"


def _worker_under_parent(task_recv, result_send, parent):
    try:
        worker_main(0, task_recv, result_send, {}, parent=parent)
    finally:
        # worker_main always leaves through os._exit; reaching here means
        # it returned or rejected its arguments.
        os._exit(2)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
class TestWorkerParentPid:
    def test_worker_exits_when_its_real_parent_is_not_the_given_one(self):
        # The pool hands each worker its own pid before the fork.  A pool
        # SIGKILLed before the worker first runs leaves a worker whose
        # real parent is already the reaper: the given pid must win.
        context = multiprocessing.get_context("fork")
        task_recv, task_send = context.Pipe(duplex=False)
        result_recv, result_send = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_under_parent,
            args=(task_recv, result_send, os.getppid()),
            daemon=True,
        )
        process.start()
        try:
            process.join(timeout=6 * PARENT_CHECK_S)
            assert process.exitcode == 1
        finally:
            if process.is_alive():
                process.kill()
                process.join()
            for conn in (task_recv, task_send, result_recv, result_send):
                conn.close()


@pytest.mark.parametrize("text, size", [
    ("512M", 512 * 2**20),
    ("2G", 2 * 2**30),
    ("1k", 2**10),
    ("1048576", 1048576),
])
def test_parse_size(text, size):
    assert parse_size(text) == size


def test_parse_size_rejects_malformed_value():
    with pytest.raises(ValueError):
        parse_size("12X")
