"""Supervised parallel sweep execution: retry policy over the lease pool.

The :class:`Supervisor` runs a batch of experiment cells on a
:class:`~repro.reliability.pool.LeasePool` of ``jobs`` crash-isolated
worker processes while the existing
:class:`~repro.reliability.RunEngine` keeps owning policy and persistence:
retry seeds/budgets come from the engine's
:class:`~repro.reliability.RetryPolicy`, outcomes land in the engine's
:class:`~repro.reliability.RunJournal` (written only by this parent
process), and failures feed the same ``--max-failures`` accounting and
gap rendering the serial path uses.

The pool owns the workers and their supervision (heartbeats, the RSS
ceiling, death detection).  Whatever way a worker is lost — it exits,
is killed by a signal, or is killed for a stale heartbeat or its RSS —
its lease fails with :class:`~repro.errors.WorkerCrashError`, which this
module journals as a failed attempt of the cell it was running.

A crashed cell re-enters the normal seed-bump retry sequence — the
attempt index continues from the journaled count, never restarts — but a
cell that kills its worker :data:`QUARANTINE_CRASHES` times is
**quarantined**: journaled with status ``poisoned`` and reported as a gap
like any other degraded cell, so one poisonous cell cannot chew through
the whole pool.

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
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait

from ..errors import WorkerCrashError
from .engine import CellOutcome, CellResult
from .pool import LeasePool

#: Worker deaths after which a cell is quarantined instead of retried.
QUARANTINE_CRASHES = 2

#: Pool lifecycle counters each batch adds into :attr:`Supervisor.stats`.
_POOL_STATS = (
    "workers_spawned", "workers_crashed", "heartbeat_kills", "rss_kills",
)


class _CellState:
    """Supervisor-side bookkeeping for one not-yet-finished cell."""

    __slots__ = ("spec", "cell_id", "attempt_base", "attempts", "crashes")

    def __init__(self, spec, attempt_base):
        self.spec = spec
        self.cell_id = spec.cell_id
        self.attempt_base = attempt_base
        self.attempts = []  # this session's attempt records
        self.crashes = 0  # worker deaths attributed to this cell


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

        The engine provides policy (seeds, budgets, retryability), the
        journal, resume semantics, and fault-schedule scoping; this
        method owns dispatch, crash policy, and deterministic merging.
        Raises ``KeyboardInterrupt`` after a drain (completed work is
        journaled) and propagates nothing else from cell failures.
        """
        order = []
        states = {}
        outcomes = {}
        pending = deque()
        for spec in specs:
            cell_id = spec.cell_id
            order.append(cell_id)
            cached = engine.cached_outcome(cell_id)
            if cached is not None:
                outcomes[cell_id] = cached
                continue
            states[cell_id] = _CellState(spec, engine.prior_attempts(cell_id))
            pending.append(cell_id)

        if states:
            self._execute(engine, states, pending, outcomes)

        completed = [outcomes[cid] for cid in order if cid in outcomes]
        engine.outcomes.extend(completed)
        if self.drained or self.hard_abort:
            raise KeyboardInterrupt(
                f"sweep drained: {len(completed)}/{len(order)} cells "
                f"journaled; re-run with --resume to continue"
            )
        return [outcomes[cid] for cid in order]

    def _execute(self, engine, states, pending, outcomes):
        self.drain_requested = False
        self.hard_abort = False
        self.drained = False
        pool = LeasePool(
            workers=min(self.jobs, len(states)),
            max_rss=self.max_rss,
            heartbeat_timeout=self.heartbeat_timeout,
            poll_interval=self.poll_interval,
        )
        leases = {}  # Future -> (cell state, seed, max_cycles, submitted at)
        self._install_signal_handlers()
        try:
            pool.start()
            while not self.hard_abort:
                while (
                    pending
                    and len(leases) < pool.workers
                    and not self.drain_requested
                ):
                    state = states[pending.popleft()]
                    self._submit(engine, pool, state, leases)
                if not leases:
                    break  # every cell finished, or the drain completed
                done, _ = wait(
                    leases, timeout=self.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                for future in [f for f in leases if f in done]:
                    lease = leases.pop(future)
                    try:
                        payload = future.result()
                    except WorkerCrashError as error:
                        self._crash_attempt(
                            engine, lease, error, pending, outcomes
                        )
                    else:
                        self._complete_attempt(
                            engine, lease[0], payload, pending, outcomes
                        )
        finally:
            pool.close(kill=self.hard_abort)
            for key in _POOL_STATS:
                self.stats[key] += pool.stats[key]
            self._restore_signal_handlers()
        if self.drain_requested:
            self.drained = True

    def _submit(self, engine, pool, state, leases):
        attempt_index = state.attempt_base + len(state.attempts)
        seed = engine.policy.seed_for(state.spec.seed, attempt_index)
        max_cycles = engine.policy.budget_for(
            engine.max_cycles, attempt_index
        )
        future = pool.submit(
            state.spec,
            seed=seed,
            max_cycles=max_cycles,
            wall_clock_s=engine.wall_clock_s,
            attempt_index=attempt_index,
            schedule=engine.schedule_for(state.cell_id),
        )
        leases[future] = (state, seed, max_cycles, time.monotonic())

    # ------------------------------------------------- attempt bookkeeping

    def _complete_attempt(self, engine, state, payload, pending, outcomes):
        """An attempt ran to completion in a worker (ok or failed)."""
        record = {
            "seed": payload.seed,
            "max_cycles": payload.max_cycles,
            "status": payload.status,
            "wall_ms": payload.wall_ms,
        }
        if payload.faults is not None:
            record["faults"] = payload.faults
        if payload.status == "ok":
            if payload.sanitizer_report is not None:
                record["sanitizer"] = payload.sanitizer_report
            violations = (
                payload.sanitizer_report["violations"]
                if payload.sanitizer_report
                else ()
            )
            if violations:
                # Mirror the serial engine: a record-mode sanitizer report
                # fails the cell, without retry.
                first = violations[0]
                record["status"] = "failed"
                record["error_class"] = first.get(
                    "error_class", "InvariantViolation"
                )
                record["error_message"] = first.get("message", "")
                self._failed_attempt(
                    engine, state, record, False, pending, outcomes,
                    message=(
                        f"{len(violations)} invariant violation(s); "
                        f"first: {record['error_message']}"
                    ),
                )
                return
            state.attempts.append(record)
            self._finish(
                engine, state, outcomes, "ok", [record],
                metrics=payload.metrics,
            )
            return
        record["error_class"] = payload.error_class
        record["error_message"] = payload.error_message
        retryable = payload.error is not None and engine.policy.is_retryable(
            payload.error
        )
        self._failed_attempt(
            engine, state, record, retryable, pending, outcomes
        )

    def _crash_attempt(self, engine, lease, error, pending, outcomes):
        """The worker died (or was killed) with a cell in flight."""
        state, seed, max_cycles, submitted_at = lease
        record = {
            "seed": seed,
            "max_cycles": max_cycles,
            "status": "failed",
            "error_class": type(error).__name__,
            "error_message": str(error),
            "wall_ms": int(1000 * (time.monotonic() - submitted_at)),
        }
        state.crashes += 1
        if state.crashes < self.quarantine_crashes:
            self._failed_attempt(
                engine, state, record, True, pending, outcomes
            )
            return
        self.stats["cells_quarantined"] += 1
        state.attempts.append(record)
        self._finish(
            engine, state, outcomes, "poisoned", [record],
            error_class=record["error_class"],
            error_message=(
                f"quarantined after {state.crashes} worker crashes; "
                f"last: {record['error_message']}"
            ),
        )

    def _failed_attempt(
        self, engine, state, record, retryable, pending, outcomes,
        message=None,
    ):
        """Journal a failed attempt, then retry the cell or fail it.

        The attempt is journaled immediately — a crash of the
        *supervisor* right after must not lose it (the attempt index and
        seed sequence are reconstructed from the journal on resume).
        """
        state.attempts.append(record)
        self._record(engine, state.cell_id, {
            "status": "failed",
            "error_class": record["error_class"],
            "error_message": record["error_message"],
            "attempts": [record],
        })
        if retryable and len(state.attempts) < engine.policy.max_attempts:
            pending.append(state.cell_id)
            return
        # The attempt is journaled already; this refreshes the cell-level
        # error fields.
        self._finish(
            engine, state, outcomes, "failed", [],
            error_class=record["error_class"],
            error_message=message or record["error_message"],
        )

    def _finish(
        self, engine, state, outcomes, status, attempts, metrics=None,
        error_class=None, error_message=None,
    ):
        """Journal the cell's final status and record its outcome."""
        entry = {"status": status, "attempts": attempts}
        result = None
        if metrics is not None:
            result = CellResult(metrics)
            entry["cycles"] = result.cycles
            entry["metrics"] = metrics
        else:
            entry["error_class"] = error_class
            entry["error_message"] = error_message
        self._record(engine, state.cell_id, entry)
        outcomes[state.cell_id] = CellOutcome(
            state.cell_id, status, result=result, error_class=error_class,
            error_message=error_message, attempts=state.attempts,
        )

    @staticmethod
    def _record(engine, cell_id, entry):
        if engine.journal is not None:
            engine.journal.record(cell_id, entry)
