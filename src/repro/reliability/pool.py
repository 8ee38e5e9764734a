"""The crash-isolated worker pool, with a per-task *lease* API.

This is the only code that owns worker processes
(:mod:`repro.reliability.worker`).  Both callers are policy layers over
it: the batch :class:`~repro.reliability.supervisor.Supervisor` (sweep
retry, quarantine and journal) and the analysis service
(:mod:`repro.service`, caching, admission and request retry).

* :meth:`LeasePool.submit` takes one duck-typed cell spec (anything with
  ``.cell_id`` and ``.run(seed, max_cycles, watchdog, faults,
  heartbeat=None)``) and returns a :class:`concurrent.futures.Future`
  that resolves to the worker's
  :class:`~repro.reliability.worker.AttemptResult` — or raises
  :class:`~repro.errors.WorkerCrashError` if the worker died, stalled
  past its heartbeat deadline, breached the RSS ceiling, or blew its
  per-lease deadline;
* **deadline plumbing**: a per-lease wall-clock budget is propagated
  *into* the worker as a kernel watchdog
  (:class:`~repro.reliability.engine.WallClockGuard` — the run fails
  with a retryable ``SimTimeoutError``) and additionally enforced
  pool-side with a grace period — a worker wedged so hard its watchdog
  never fires is SIGKILLed, so a lease can never hang its caller;
* **supervision**: workers stamp a shared heartbeat array from the
  kernel's heartbeat hook; a busy worker whose stamp goes stale past
  ``heartbeat_timeout`` seconds is SIGKILLed.  ``max_rss`` is enforced
  twice: ``RLIMIT_AS`` inside the worker (allocations fail with a
  containable ``MemoryError``) and ``/proc/<pid>/statm`` polling here
  (SIGKILL past the ceiling, for leaks the rlimit cannot see).  Death is
  detected through the process sentinel;
* **a lost lease resolves only after the pool is whole again**: one
  place (``_reap``) writes off the lease of a dead or killed worker, and
  it does so after the replacement worker is spawned, so a caller that
  sees the failure also sees a full pool;
* **dispatch is event-driven**: ``submit()`` and ``close()`` write one
  byte to a self-pipe, and the supervision thread waits on that pipe
  next to the result pipes and the process sentinels, so a queued lease
  is dispatched, and a closing pool exits, at once.  ``poll_interval``
  is only the liveness period: the longest the thread sleeps before it
  re-runs the heartbeat, deadline and RSS checks with nothing to wake
  it;
* worker handles are **released eagerly** — pipes and process handles
  are closed the moment a worker is reaped, never left to
  garbage-collector timing (see ``_Worker.release``), because a serving
  process runs for days and its fd table is a budget.

Retry, backoff, caching, and quarantine deliberately live in the
callers: the pool hands out honest failures fast and keeps itself
replenished; policy belongs to the layer that knows the request's
deadline and client.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing.connection import wait as _conn_wait

from ..errors import ReproError, WorkerCrashError
from .worker import AttemptRequest, worker_main

__all__ = ["LeasePool", "PoolClosedError"]

#: Fork where the platform has it: fork-started workers inherit the
#: parent's imports (and test monkeypatches); spawn is the fallback.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class PoolClosedError(ReproError):
    """A lease was submitted to (or stranded in) a closed pool."""


def _rss_bytes(pid):
    """Resident set size of ``pid`` in bytes, or None where /proc is absent."""
    try:
        with open(f"/proc/{pid}/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


def _death_detail(process):
    code = process.exitcode
    if code is None:
        return "vanished"
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:
            name = f"signal {-code}"
        return f"killed by {name}"
    return f"exit code {code}"


class _Worker:
    """Parent-side handle for one pool worker."""

    __slots__ = (
        "worker_id", "process", "task_conn", "result_conn",
        "dispatched_at", "killed_for", "released",
    )

    def __init__(self, worker_id, process, task_conn, result_conn):
        self.worker_id = worker_id
        self.process = process
        self.task_conn = task_conn
        self.result_conn = result_conn
        self.dispatched_at = 0.0
        #: (kind, detail) once supervision killed this worker; ``_reap``
        #: reports it instead of the bare signal.
        self.killed_for = None
        self.released = False  # pipes + process handle freed

    def release(self):
        """Free this worker's parent-side fds *now*, not at GC time.

        Three fds per worker (task pipe, result pipe, process sentinel)
        would otherwise linger on the dropped handle until the garbage
        collector happens to run its finalizers — which a long-lived
        serving process (:mod:`repro.service`) cannot afford: a cell
        that quarantines 50 times must not grow the fd table.  Safe to
        call twice; the process must already be dead/joined.
        """
        if self.released:
            return
        self.released = True
        for conn in (self.task_conn, self.result_conn):
            try:
                conn.close()
            except OSError:
                pass
        try:
            self.process.close()
        except ValueError:
            # Still alive (close() refuses): leave the handle for the
            # finalizer rather than leak a zombie.
            pass


class _Lease:
    """One submitted unit of work awaiting a worker."""

    __slots__ = ("request", "future", "deadline", "worker_id")

    def __init__(self, request, future, deadline):
        self.request = request
        self.future = future
        self.deadline = deadline  # absolute monotonic, or None
        self.worker_id = None


class LeasePool:
    """Crash-isolated worker pool leasing one attempt at a time."""

    def __init__(
        self,
        workers=2,
        max_rss=None,
        heartbeat_timeout=60.0,
        poll_interval=0.02,
        deadline_grace=1.0,
    ):
        self.workers = max(1, int(workers))
        self.max_rss = max_rss
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.deadline_grace = deadline_grace
        self.stats = {
            "workers_spawned": 0,
            "workers_crashed": 0,
            "heartbeat_kills": 0,
            "rss_kills": 0,
            "deadline_kills": 0,
            "leases_completed": 0,
        }
        self._heartbeats = None
        self._pool = []  # _Worker handles
        self._inflight = {}  # worker_id -> _Lease
        self._queue = deque()
        self._lock = threading.Lock()
        #: Notified whenever ``_inflight`` empties; ``close`` waits on it.
        self._drained = threading.Condition(self._lock)
        self._wake_r = self._wake_w = None  # self-pipe, open while started
        self._thread = None
        self._closing = False
        self._started = False

    # ------------------------------------------------------------- lifecycle

    def start(self):
        """Spawn the workers and the supervision thread (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._closing = False
            self._wake_r, self._wake_w = os.pipe()
            os.set_blocking(self._wake_r, False)
            os.set_blocking(self._wake_w, False)
        self._heartbeats = _CONTEXT.Array("d", self.workers, lock=False)
        self._pool = [self._spawn(i) for i in range(self.workers)]
        self._thread = threading.Thread(
            target=self._supervise, name="lease-pool", daemon=True
        )
        self._thread.start()
        return self

    def close(self, kill=False, timeout=5.0):
        """Stop supervision and tear the pool down.

        Queued leases fail with :class:`PoolClosedError`; in-flight
        leases fail with a :class:`~repro.errors.WorkerCrashError` once
        their worker is killed (``kill=True``) or are given until
        ``timeout`` to finish first.
        """
        with self._lock:
            if not self._started or self._closing:
                self._started = False
                return
            self._closing = True
            if not kill:
                self._drained.wait_for(
                    lambda: not self._inflight, timeout=timeout
                )
            stranded = list(self._queue)
            self._queue.clear()
            inflight = list(self._inflight.values())
            self._inflight.clear()
            # Nothing is in flight now: wake supervision to stop.
            self._wake()
        stopped = True
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            stopped = not self._thread.is_alive()
            self._thread = None
        with self._lock:
            pool, self._pool = self._pool, []
            self._started = False
            if stopped:
                # A thread still wedged past the join keeps its pipe: an
                # fd closed under it could be reused by another file.
                os.close(self._wake_r)
                os.close(self._wake_w)
                self._wake_r = self._wake_w = None
        for lease in stranded:
            self._fail(lease, PoolClosedError("pool closed before dispatch"))
        for worker in pool:
            if worker.released:
                continue
            self._kill(worker)
            worker.release()
        for lease in inflight:
            self._fail(
                lease,
                WorkerCrashError(
                    "shutdown", "pool closed with lease in flight",
                    worker_id=lease.worker_id,
                    cell_id=lease.request.spec.cell_id,
                ),
            )
        self._heartbeats = None

    # --------------------------------------------------------------- leasing

    def submit(
        self,
        spec,
        seed=0,
        max_cycles=None,
        wall_clock_s=None,
        deadline=None,
        attempt_index=0,
        schedule=None,
    ):
        """Lease one attempt of ``spec``; returns a Future.

        ``wall_clock_s`` becomes the in-worker watchdog budget;
        ``deadline`` (absolute ``time.monotonic()`` value) is the
        pool-side backstop past which the worker is killed.  When only a
        deadline is given the watchdog budget is derived from it, so the
        soft (in-worker, retryable timeout) path always fires before the
        hard (SIGKILL) one.
        """
        future = Future()
        if deadline is not None and wall_clock_s is None:
            wall_clock_s = max(0.01, deadline - time.monotonic())
        request = AttemptRequest(
            spec=spec,
            attempt_index=attempt_index,
            seed=seed,
            max_cycles=max_cycles,
            wall_clock_s=wall_clock_s,
            schedule=schedule,
        )
        with self._lock:
            if not self._started or self._closing:
                future.set_exception(PoolClosedError("pool is not running"))
                return future
            self._queue.append(_Lease(request, future, deadline))
            self._wake()
        return future

    def snapshot(self):
        """JSON-serializable pool state for ``/healthz``."""
        with self._lock:
            workers = []
            for worker in self._pool:
                lease = self._inflight.get(worker.worker_id)
                alive = (not worker.released) and worker.process.is_alive()
                workers.append({
                    "worker": worker.worker_id,
                    "alive": alive,
                    "busy": lease is not None,
                    "cell": (
                        lease.request.spec.cell_id if lease is not None
                        else None
                    ),
                })
            return {
                "workers": workers,
                "backlog": len(self._queue),
                "inflight": len(self._inflight),
                "stats": dict(self.stats),
            }

    # ----------------------------------------------------------- supervision

    def _spawn(self, worker_id):
        # Pipe(duplex=False) returns (receive end, send end).
        task_recv, task_send = _CONTEXT.Pipe(duplex=False)
        result_recv, result_send = _CONTEXT.Pipe(duplex=False)
        process = _CONTEXT.Process(
            target=worker_main,
            args=(
                worker_id, task_recv, result_send, self._heartbeats,
                os.getpid(), self.max_rss,
            ),
            name=f"lease-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        task_recv.close()
        result_send.close()
        self.stats["workers_spawned"] += 1
        self._heartbeats[worker_id] = time.monotonic()
        return _Worker(worker_id, process, task_send, result_recv)

    def _kill(self, worker):
        try:
            if worker.process.is_alive():
                worker.process.kill()
        except (OSError, ValueError):
            pass
        try:
            worker.process.join(timeout=2.0)
        except ValueError:
            pass

    def _fail(self, lease, error):
        if not lease.future.done():
            lease.future.set_exception(error)

    def _complete(self, lease, payload):
        if not lease.future.done():
            self.stats["leases_completed"] += 1
            lease.future.set_result(payload)

    def _wake(self):
        """Wake the supervision thread; the caller holds ``_lock``.

        Holding the lock orders the write before ``close`` closes the
        pipe.  A full pipe already holds a pending wake-up.
        """
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass

    def _untrack(self, worker_id):
        """Pop the lease in flight on ``worker_id``; the caller holds
        ``_lock``.  The last one out wakes a draining ``close``."""
        lease = self._inflight.pop(worker_id, None)
        if not self._inflight:
            self._drained.notify_all()
        return lease

    def _supervise(self):
        while True:
            self._dispatch()
            self._pump()  # blocks until woken, or for poll_interval
            self._reap()
            self._enforce()
            with self._lock:
                if self._closing and not self._inflight:
                    break

    def _dispatch(self):
        while True:
            with self._lock:
                if not self._queue or self._closing:
                    return
                worker = next(
                    (
                        w for w in self._pool
                        if not w.released
                        and w.worker_id not in self._inflight
                    ),
                    None,
                )
                if worker is None:
                    return
                lease = self._queue.popleft()
                if lease.future.cancelled():
                    continue
                if (
                    lease.deadline is not None
                    and time.monotonic() >= lease.deadline
                ):
                    expired = lease
                    lease = None
                else:
                    lease.worker_id = worker.worker_id
                    self._inflight[worker.worker_id] = lease
                    now = time.monotonic()
                    self._heartbeats[worker.worker_id] = now
                    worker.dispatched_at = now
            if lease is None:
                self._fail(
                    expired,
                    WorkerCrashError(
                        "deadline", "lease deadline expired before dispatch",
                        cell_id=expired.request.spec.cell_id,
                    ),
                )
                continue
            try:
                worker.task_conn.send(lease.request)
            except (BrokenPipeError, OSError):
                # Worker died while idle: not the lease's fault — requeue
                # at the front and let _reap replace the worker.
                with self._lock:
                    self._untrack(worker.worker_id)
                    lease.worker_id = None
                    self._queue.appendleft(lease)
                return

    def _pump(self):
        """Wait for a result, a worker death or a wake-up; take results."""
        with self._lock:
            live = [w for w in self._pool if not w.released]
        by_conn = {w.result_conn: w for w in live}
        sentinels = [w.process.sentinel for w in live]
        try:
            ready = _conn_wait(
                [self._wake_r, *by_conn, *sentinels],
                timeout=self.poll_interval,
            )
        except OSError:
            return
        for item in ready:
            worker = by_conn.get(item)
            if worker is not None:
                self._recv(worker)
            elif item == self._wake_r:
                try:
                    while os.read(self._wake_r, 512):
                        pass
                except BlockingIOError:
                    pass

    def _recv(self, worker):
        try:
            if not worker.result_conn.poll():
                return
            payload = worker.result_conn.recv()
        except (EOFError, OSError):
            return  # death: _reap attributes the in-flight lease
        with self._lock:
            lease = self._untrack(worker.worker_id)
        if lease is not None:
            self._complete(lease, payload)

    def _reap(self):
        """Replace dead workers, then write off the leases they held.

        The only place a lost lease resolves: whether the worker died on
        its own or ``_enforce`` killed it, its lease fails after the
        replacement worker exists, so the caller never observes a pool
        short of a worker.
        """
        with self._lock:
            pool = list(self._pool)
        for index, worker in enumerate(pool):
            if worker.released or worker.process.is_alive():
                continue
            # The worker may have completed its lease and died after —
            # drain any whole payload before writing the lease off.
            self._recv(worker)
            kind, detail = worker.killed_for or (
                "signal" if (worker.process.exitcode or 0) < 0 else "exit",
                _death_detail(worker.process),
            )
            with self._lock:
                lease = self._untrack(worker.worker_id)
            self._kill(worker)
            worker.release()
            with self._lock:
                if (
                    not self._closing
                    and index < len(self._pool)
                    and self._pool[index] is worker
                ):
                    self._pool[index] = self._spawn(worker.worker_id)
            if lease is not None:
                self.stats["workers_crashed"] += 1
                self._fail(
                    lease,
                    WorkerCrashError(
                        kind, detail, worker_id=worker.worker_id,
                        cell_id=lease.request.spec.cell_id,
                    ),
                )

    def _enforce(self):
        """Kill busy workers that are stalled, past deadline, or too big."""
        now = time.monotonic()
        with self._lock:
            busy = [
                (w, self._inflight[w.worker_id])
                for w in self._pool
                if not w.released and w.worker_id in self._inflight
            ]
        for worker, lease in busy:
            if worker.killed_for is not None or not worker.process.is_alive():
                continue  # _reap handles death
            last_beat = max(
                self._heartbeats[worker.worker_id], worker.dispatched_at
            )
            if (
                self.heartbeat_timeout is not None
                and now - last_beat > self.heartbeat_timeout
            ):
                self.stats["heartbeat_kills"] += 1
                worker.killed_for = (
                    "heartbeat",
                    f"no heartbeat for {now - last_beat:.1f}s "
                    f"(deadline {self.heartbeat_timeout:.1f}s)",
                )
            elif (
                lease.deadline is not None
                and now > lease.deadline + self.deadline_grace
            ):
                # The in-worker WallClockGuard should have fired first;
                # reaching this backstop means the worker is wedged
                # beyond even its own watchdog.
                self.stats["deadline_kills"] += 1
                worker.killed_for = (
                    "deadline",
                    f"lease deadline exceeded by "
                    f"{now - lease.deadline:.1f}s (grace "
                    f"{self.deadline_grace:.1f}s)",
                )
            elif self.max_rss is not None:
                rss = _rss_bytes(worker.process.pid)
                if rss is not None and rss > self.max_rss:
                    self.stats["rss_kills"] += 1
                    worker.killed_for = (
                        "rss", f"RSS {rss} exceeds ceiling {self.max_rss}"
                    )
            if worker.killed_for is not None:
                self._kill(worker)
