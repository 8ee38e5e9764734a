"""Supervised parallel sweep execution: attempts leased to a worker pool.

The :class:`Supervisor` runs a batch of experiment cells on a
:class:`~repro.reliability.pool.LeasePool` of ``jobs`` crash-isolated
worker processes.  Each cell's attempts are driven by the same
:class:`~repro.reliability.engine.CellRun` the serial engine uses — the
retry seeds and budgets, the verdict on each attempt, the crash
quarantine and the journal records — so failures feed the same
``--max-failures`` accounting and gap rendering as ``--jobs 1``.  The
journal is written only by this parent process.

The pool owns the workers and their supervision (heartbeats, the RSS
ceiling, death detection).  Whatever way a worker is lost — it exits,
is killed by a signal, or is killed for a stale heartbeat or its RSS —
its lease fails with :class:`~repro.errors.WorkerCrashError`, which the
cell's ``CellRun`` journals as a failed attempt; a cell that kills its
worker :data:`~repro.reliability.engine.QUARANTINE_CRASHES` times is
**quarantined** (journaled as ``poisoned``) so one poisonous cell
cannot chew through the whole pool.

SIGINT/SIGTERM trigger a **graceful drain**: dispatch stops, in-flight
cells finish (still under heartbeat/wall-clock supervision), the journal
is flushed, and ``KeyboardInterrupt`` propagates — Ctrl-C never loses
completed work, and ``--resume`` picks up exactly where the drain
stopped.  A second signal aborts hard (workers SIGKILLed, journal kept).

Determinism: cells are dispatched in spec order, at most one lease per
worker, retries derive only from per-cell attempt indices, and results
are merged back in spec order, so a parallel sweep produces the same
journal contents (modulo wall-clock timing fields), figures, and tables
as ``--jobs 1``.
"""

from __future__ import annotations

import signal
import sys
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait

from ..errors import WorkerCrashError
from .engine import QUARANTINE_CRASHES
from .pool import LeasePool

#: Pool lifecycle counters each batch adds into :attr:`Supervisor.stats`.
_POOL_STATS = (
    "workers_spawned", "workers_crashed", "heartbeat_kills", "rss_kills",
)


class Supervisor:
    """Crash-isolated parallel executor for a batch of cell specs."""

    def __init__(
        self,
        jobs=1,
        max_rss=None,
        heartbeat_timeout=60.0,
        poll_interval=0.05,
        quarantine_crashes=QUARANTINE_CRASHES,
    ):
        self.jobs = max(1, int(jobs))
        self.max_rss = max_rss
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.quarantine_crashes = quarantine_crashes
        #: Lifecycle counters, exposed for tests and reporting: the
        #: pool's, summed over batches, plus ``cells_quarantined``.
        self.stats = {
            "workers_spawned": 0,
            "workers_crashed": 0,
            "heartbeat_kills": 0,
            "rss_kills": 0,
            "cells_quarantined": 0,
        }
        self.drain_requested = False
        self.hard_abort = False
        self.drained = False
        self._old_handlers = {}

    # --------------------------------------------------------------- signals

    def request_drain(self):
        """Stop dispatching; finish in-flight cells; flush and stop.

        Idempotent; the second request (second Ctrl-C) escalates to a
        hard abort.  Safe to call from a signal handler or another
        thread — the run loop polls these flags every ``poll_interval``.
        """
        if self.drain_requested:
            self.hard_abort = True
        else:
            self.drain_requested = True

    def _on_signal(self, signum, frame):
        print(
            "[reliability] signal received: draining — in-flight cells "
            "finish, queued cells are left for --resume "
            "(signal again to abort hard)",
            file=sys.stderr,
        )
        self.request_drain()

    def _install_signal_handlers(self):
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                self._old_handlers[sig] = signal.signal(sig, self._on_signal)
        except ValueError:
            # Not the main thread: drains can still be requested directly.
            self._old_handlers = {}

    def _restore_signal_handlers(self):
        for sig, handler in self._old_handlers.items():
            signal.signal(sig, handler)
        self._old_handlers = {}

    # ------------------------------------------------------------- execution

    def run_specs(self, engine, specs):
        """Execute ``specs`` on the pool; returns outcomes in spec order.

        The engine provides policy, the journal, resume semantics and
        fault-schedule scoping; this method owns dispatch and
        deterministic merging.  Raises ``KeyboardInterrupt`` after a
        drain (completed work is journaled) and propagates nothing else
        from cell failures.
        """
        order = []
        runs = {}
        outcomes = {}
        for spec in specs:
            cell_id = spec.cell_id
            order.append(cell_id)
            cached = engine.cached_outcome(cell_id)
            if cached is not None:
                outcomes[cell_id] = cached
                continue
            runs[cell_id] = engine.cell_run(
                spec, quarantine_crashes=self.quarantine_crashes
            )

        if runs:
            self._execute(engine, runs, outcomes)

        completed = [
            outcomes[cid] for cid in dict.fromkeys(order) if cid in outcomes
        ]
        for outcome in completed:
            engine.add_outcome(outcome)
        if self.drained or self.hard_abort:
            raise KeyboardInterrupt(
                f"sweep drained: {len(completed)}/{len(order)} cells "
                f"journaled; re-run with --resume to continue"
            )
        return [outcomes[cid] for cid in order]

    def _execute(self, engine, runs, outcomes):
        self.drain_requested = False
        self.hard_abort = False
        self.drained = False
        pending = deque(runs.values())
        pool = LeasePool(
            workers=min(self.jobs, len(runs)),
            max_rss=self.max_rss,
            heartbeat_timeout=self.heartbeat_timeout,
            poll_interval=self.poll_interval,
        )
        leases = {}  # Future -> CellRun
        self._install_signal_handlers()
        try:
            pool.start()
            while not self.hard_abort:
                while (
                    pending
                    and len(leases) < pool.workers
                    and not self.drain_requested
                ):
                    run = pending.popleft()
                    future = pool.submit(
                        run.spec,
                        wall_clock_s=engine.wall_clock_s,
                        schedule=engine.schedule_for(run.cell_id),
                        **run.next_attempt(),
                    )
                    leases[future] = run
                if not leases:
                    break  # every cell finished, or the drain completed
                done, _ = wait(
                    leases, timeout=self.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                for future in [f for f in leases if f in done]:
                    run = leases.pop(future)
                    try:
                        payload = future.result()
                    except WorkerCrashError as error:
                        outcome = run.crash(error)
                    else:
                        outcome = run.complete(payload)
                    if outcome is None:
                        pending.append(run)
                        continue
                    if outcome.status == "poisoned":
                        self.stats["cells_quarantined"] += 1
                    outcomes[run.cell_id] = outcome
        finally:
            pool.close(kill=self.hard_abort)
            for key in _POOL_STATS:
                self.stats[key] += pool.stats[key]
            self._restore_signal_handlers()
        if self.drain_requested:
            self.drained = True
