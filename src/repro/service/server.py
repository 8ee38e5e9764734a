"""The analysis service: asyncio front-end over the lease pool.

Request lifecycle (see ``docs/SERVICE.md`` for the failure-mode table)::

    submit -> cache hit?  ──────────────────────────────► respond (cached)
           -> in-flight dup? ─ await the running compute ► respond (coalesced)
           -> draining / queue full ────────────────────► respond (shed + retry_after)
           -> admitted: queued under (lane, client) fairness
              scheduler leases a pool worker when one frees up
                -> ok            ► store.put, respond, wake coalesced waiters
                -> worker crash  ► seed-bump retry with exponential backoff,
                                   quarantine -> explicit failure
                -> retryable sim error ► seed-bump retry (engine policy)
                -> deadline      ► explicit deadline failure (never a hang)

Every terminal path is explicit: a request ends in a correct response, a
journaled resumable entry (SIGTERM drain), or a shed with a retry hint —
the server never buffers unboundedly and never silently drops work.

Concurrency model: the asyncio loop owns all bookkeeping (single
threaded — no locks); simulation runs in pool worker *processes*, bridged
back with ``asyncio.wrap_future``, so one wedged request can never stall
the event loop or another client.
"""

from __future__ import annotations

import asyncio
import time

from ..errors import ReproError, WorkerCrashError
from ..reliability.atomic_io import atomic_write_json, read_json_with_backup
from ..reliability.engine import CellRun, RetryPolicy
from ..reliability.pool import LeasePool
from .admission import AdmissionQueue
from .envelope import JobRequest
from .lineserver import handle_lines, listen
from .store import ResultStore

__all__ = ["AnalysisService", "ServiceJournal", "serve"]

#: Ceiling of the exponential retry backoff, in seconds.
BACKOFF_CAP_S = 2.0


def _check_pending(data):
    if not isinstance(data, dict) or not isinstance(
        data.get("pending", {}), dict
    ):
        raise ValueError("no pending mapping")


class ServiceJournal:
    """Pending-request journal: what a drained server owes the future.

    One entry per accepted-but-incomplete request, keyed by cache key;
    removed on completion.  Written through the shared atomic pattern,
    so a SIGKILL mid-drain leaves either the old or the new complete
    journal, and loading falls back to the ``.bak`` copy.  ``serve
    --resume`` replays pending entries as batch-lane requests whose
    results land in the store — a returning client's retry then hits
    the cache.
    """

    VERSION = 1

    def __init__(self, path):
        self.path = path
        data, _ = read_json_with_backup(
            path, "service journal", _check_pending
        )
        self._entries = dict(data.get("pending", {})) if data else {}

    def _save(self):
        atomic_write_json(
            self.path,
            {"version": self.VERSION, "pending": self._entries},
            backup=True,
        )

    def add(self, key, request):
        if key not in self._entries:
            self._entries[key] = request.to_journal()
            self._save()

    def remove(self, key):
        if self._entries.pop(key, None) is not None:
            self._save()

    def pending(self):
        return dict(self._entries)

    def __len__(self):
        return len(self._entries)


class _Job:
    """One admitted request moving through the scheduler."""

    __slots__ = (
        "request", "key", "future", "deadline", "enqueued_at", "journaled",
    )

    def __init__(self, request, future, deadline):
        self.request = request
        self.key = request.cache_key
        self.future = future  # asyncio.Future resolving to a response dict
        self.deadline = deadline  # absolute monotonic, or None
        self.enqueued_at = time.monotonic()
        self.journaled = False

    @property
    def lane(self):
        return self.request.lane

    @property
    def client_id(self):
        return self.request.client_id


class AnalysisService:
    """Cache + admission + retry policy around one :class:`LeasePool`."""

    def __init__(
        self,
        store,
        pool,
        max_depth=64,
        per_client_cap=None,
        policy=None,
        backoff_base_s=0.05,
        default_deadline_s=None,
        journal_path=None,
    ):
        self.store = store
        self.pool = pool
        self.policy = policy or RetryPolicy(max_attempts=3)
        self.queue = AdmissionQueue(
            max_depth=max_depth, per_client_cap=per_client_cap
        )
        self.backoff_base_s = backoff_base_s
        self.default_deadline_s = default_deadline_s
        self.journal = ServiceJournal(journal_path) if journal_path else None
        self.draining = False
        self.counters = {
            "requests": 0,
            "completed": 0,
            "failed": 0,
            "shed": 0,
            "coalesced": 0,
            "retries": 0,
            "crashes": 0,
            "deadline_failures": 0,
            "resumed": 0,
        }
        self._started_at = time.monotonic()
        self._inflight = {}  # key -> _Job (owning compute)
        self._active = 0  # computes currently holding a pool lease slot
        self._wakeup = asyncio.Event()
        self._scheduler = None
        self._stop_scheduler = False
        self._tasks = set()
        #: EMA of compute wall seconds, for retry_after estimates.
        self._avg_wall_s = 0.5

    # ------------------------------------------------------------- lifecycle

    async def start(self, resume=False):
        self.pool.start()
        self._stop_scheduler = False
        self._scheduler = asyncio.ensure_future(self._schedule_loop())
        if resume and self.journal is not None:
            for key, record in sorted(self.journal.pending().items()):
                try:
                    request = JobRequest.from_journal(record)
                except ReproError:
                    self.journal.remove(key)
                    continue
                self.counters["resumed"] += 1
                task = asyncio.ensure_future(self.submit(request))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        return self

    async def drain(self, timeout=30.0):
        """Graceful shutdown: journal what cannot finish, finish the rest.

        Queued jobs are journaled and answered with a shed (the journal
        entry is the promise); in-flight computes get ``timeout`` seconds
        to finish normally, then are journaled too and their workers die
        with the pool.
        """
        self.draining = True
        for job in self.queue.drain():
            self._journal_pending(job)
            self._resolve(
                job,
                self._response(
                    "shed", job.request, reason="draining",
                    retry_after_s=round(self._retry_after(), 3),
                    journaled=self.journal is not None,
                ),
            )
        deadline = time.monotonic() + timeout
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for job in list(self._inflight.values()):
            self._journal_pending(job)
        if self._scheduler is not None:
            # Stop the scheduler cooperatively rather than by cancellation:
            # on Python <= 3.11, ``wait_for`` swallows a cancellation that
            # races with its inner future completing, and ``_compute`` sets
            # ``_wakeup`` on every completion -- draining right after a
            # request finishes would lose the cancel and hang forever.
            self._stop_scheduler = True
            self._wakeup.set()
            try:
                await asyncio.wait_for(self._scheduler, timeout=2.0)
            except asyncio.TimeoutError:
                self._scheduler.cancel()
                try:
                    await self._scheduler
                except asyncio.CancelledError:
                    pass
            except asyncio.CancelledError:
                pass
            self._scheduler = None
        await asyncio.get_event_loop().run_in_executor(
            None, lambda: self.pool.close(kill=True)
        )

    # --------------------------------------------------------------- serving

    async def submit(self, request):
        """Serve one request end to end; always returns a response dict."""
        self.counters["requests"] += 1
        key = request.cache_key
        if not request.nocache:
            metrics = self.store.get(key)
            if metrics is not None:
                return self._response(
                    "ok", request, metrics=metrics, cached=True
                )
            owner = self._inflight.get(key)
            if owner is not None:
                # Identical computation already running: coalesce instead
                # of occupying a second worker.
                self.counters["coalesced"] += 1
                response = await asyncio.shield(owner.future)
                return dict(response, coalesced=True)
        if self.draining:
            self.counters["shed"] += 1
            return self._response("shed", request, reason="draining")
        deadline = None
        deadline_s = request.deadline_s or self.default_deadline_s
        if deadline_s is not None:
            deadline = time.monotonic() + deadline_s
        job = _Job(request, asyncio.get_event_loop().create_future(), deadline)
        if not self.queue.offer(job):
            self.counters["shed"] += 1
            return self._response(
                "shed", request, reason="queue-full",
                retry_after_s=round(self._retry_after(), 3),
            )
        if not request.nocache:
            self._inflight[key] = job
        self._journal_pending(job)
        self._wakeup.set()
        return await asyncio.shield(job.future)

    def healthz(self):
        """Status snapshot: queue depths, cache, pool, shed counts."""
        return {
            "draining": self.draining,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "queue": self.queue.depths(),
            "inflight": len(self._inflight),
            "active_computes": self._active,
            "counters": dict(self.counters),
            "cache": dict(
                self.store.stats,
                hit_rate=self.store.hit_rate(),
                entries=self.store.entry_count(),
            ),
            "pool": self.pool.snapshot(),
            "journal_pending": (
                len(self.journal) if self.journal is not None else None
            ),
        }

    # ------------------------------------------------------------- scheduler

    async def _schedule_loop(self):
        while not self._stop_scheduler:
            while (
                not self.draining
                and len(self.queue)
                and self._active < self.pool.workers
            ):
                job = self.queue.take()
                if job is None:
                    break
                self._active += 1
                task = asyncio.ensure_future(self._compute(job))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            self._wakeup.clear()
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                pass

    async def _compute(self, job):
        started = time.monotonic()
        try:
            response = await self._execute(job)
        except ReproError as error:
            response = self._response(
                "failed", job.request,
                error_class=type(error).__name__, error_message=str(error),
            )
        finally:
            self._active -= 1
            self._wakeup.set()
        wall = time.monotonic() - started
        self._avg_wall_s = 0.8 * self._avg_wall_s + 0.2 * wall
        self._resolve(job, response)

    async def _execute(self, job):
        request = job.request
        spec, schedule = request.build_spec()
        run = CellRun(
            spec, self.policy, request.max_cycles, base_seed=request.base_seed
        )
        while True:
            if job.deadline is not None and job.deadline <= time.monotonic():
                return self._deadline_failure(request, "before dispatch")
            lease = self.pool.submit(
                spec,
                deadline=job.deadline,
                schedule=schedule,
                **run.next_attempt(),
            )
            try:
                result = await asyncio.wrap_future(lease)
            except WorkerCrashError as error:
                self.counters["crashes"] += 1
                if error.kind == "deadline":
                    self.counters["deadline_failures"] += 1
                    return self._deadline_failure(request, str(error))
                outcome = run.crash(error)
            else:
                outcome = run.complete(result)
            if outcome is not None:
                break
            self.counters["retries"] += 1
            await asyncio.sleep(self._backoff(len(run.attempts)))
        if not outcome.ok:
            return self._response(
                "failed", request,
                error_class=outcome.error_class,
                error_message=outcome.error_message,
                attempts=len(run.attempts),
            )
        metrics = outcome.result.metrics
        if not request.nocache:
            self.store.put(job.key, request.kind, metrics)
        return self._response(
            "ok", request, metrics=metrics,
            cached=False, attempts=len(run.attempts),
        )

    # --------------------------------------------------------------- helpers

    def _backoff(self, attempt):
        return min(BACKOFF_CAP_S, self.backoff_base_s * 2 ** (attempt - 1))

    def _retry_after(self):
        waiting = len(self.queue) + self._active
        return max(
            0.05, waiting * self._avg_wall_s / max(1, self.pool.workers)
        )

    def _deadline_failure(self, request, detail):
        return self._response(
            "failed", request,
            error_class="DeadlineExceeded",
            error_message=f"request deadline exhausted ({detail})",
        )

    def _response(self, status, request, **fields):
        response = {
            "status": status,
            "kind": request.kind,
            "key": request.cache_key,
        }
        if status == "ok":
            response.setdefault("cached", False)
        if status == "failed":
            self.counters["failed"] += 1
        elif status == "ok":
            self.counters["completed"] += 1
        response.update(fields)
        return response

    def _journal_pending(self, job):
        if self.journal is not None and not job.journaled:
            job.journaled = True
            self.journal.add(job.key, job.request)

    def _resolve(self, job, response):
        if self.journal is not None and job.journaled:
            # Shed-at-drain keeps its journal entry (the resume promise);
            # everything that produced a real answer is settled.
            if response["status"] != "shed":
                self.journal.remove(job.key)
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        if not job.future.done():
            job.future.set_result(response)


# ------------------------------------------------------------------ protocol


async def _handle_connection(service, reader, writer):
    """Line-JSON protocol: one request object in, one response line out.

    Messages: ``{"op": "submit", "id": ..., "kind": ..., "payload": ...,
    "client": ..., "lane": ..., "deadline_s": ..., "nocache": ...}``,
    ``{"op": "status"}``, ``{"op": "drain"}``, ``{"op": "ping"}``.
    """
    await handle_lines(reader, writer, {
        "ping": lambda message: {"status": "ok", "pong": True},
        "status": lambda message: {
            "status": "ok", "healthz": service.healthz(),
        },
        "submit": lambda message: service.submit(
            JobRequest.from_wire(message)
        ),
    })


async def serve(
    service,
    host="127.0.0.1",
    port=0,
    ready_callback=None,
    resume=False,
    drain_timeout=30.0,
):
    """Run the TCP front-end until SIGTERM/SIGINT, then drain gracefully.

    ``ready_callback(host, port)`` fires once the socket is listening —
    the CLI uses it to print/persist the bound address (``port=0`` picks
    a free port).  Returns after the drain completes; the caller owns
    process exit.
    """
    await service.start(resume=resume)
    try:
        return await listen(
            lambda r, w: _handle_connection(service, r, w),
            host, port, ready_callback,
        )
    finally:
        await service.drain(timeout=drain_timeout)


def build_service(
    store_dir,
    workers=2,
    max_depth=64,
    per_client_cap=None,
    max_rss=None,
    heartbeat_timeout=60.0,
    default_deadline_s=None,
    journal_path=None,
    max_attempts=3,
):
    """Convenience constructor wiring store + pool + service together."""
    return AnalysisService(
        store=ResultStore(store_dir),
        pool=LeasePool(
            workers=workers,
            max_rss=max_rss,
            heartbeat_timeout=heartbeat_timeout,
        ),
        max_depth=max_depth,
        per_client_cap=per_client_cap,
        default_deadline_s=default_deadline_s,
        journal_path=journal_path,
        policy=RetryPolicy(max_attempts=max_attempts),
    )
