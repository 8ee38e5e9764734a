"""Fault-tolerant run engine: watchdogs, bounded retry, resume, budgets.

One experiment *cell* is one simulator invocation (``run_spec`` /
``run_parsec`` of one app under one scheme).  The engine executes each cell
as an isolated unit of work:

* a per-cell **watchdog** — a cycle budget (``max_cycles``) enforced inside
  the kernel, plus an optional wall-clock budget checked every
  :data:`~repro.sim.kernel.SimKernel.WATCHDOG_PERIOD` simulated cycles —
  converts runaway runs into :class:`~repro.errors.SimTimeoutError`;
* **bounded retry** with deterministic seed-bump backoff: attempt *k* runs
  with ``seed + k * seed_step`` and a cycle budget grown by
  ``budget_growth**k``, so seed-dependent transients get a genuinely
  different run and budget exhaustion gets more room;
* a **run journal** records every failed attempt as it happens and every
  finished cell (see :mod:`repro.reliability.journal`), so ``--resume``
  skips completed cells and continues the seed sequence of failed ones;
* **fault injection**: a :class:`~repro.reliability.faults.FaultSchedule`
  can be applied to cells matching a glob, to exercise all of the above
  deterministically.

Each cell's attempts are one :class:`CellRun`, the state machine the
parallel supervisor and the analysis service drive too.  A failed cell
yields a :class:`CellFailure`, which the experiment modules render as a
marked gap instead of aborting; the CLI exits non-zero only if the number
of failed cells exceeds the failure budget.
"""

from __future__ import annotations

import fnmatch
import time
from types import SimpleNamespace

from ..errors import (
    DeadlockError,
    ReproError,
    SanitizerError,
    SimTimeoutError,
    TransientError,
)

#: Seed increment between retry attempts.  A largish prime, so bumped seeds
#: never collide with the small consecutive seeds used by seed sweeps.
DEFAULT_SEED_STEP = 9973


class RetryPolicy:
    """Bounded retry with deterministic seed-bump backoff."""

    def __init__(
        self,
        max_attempts=2,
        retry_on=(TransientError, DeadlockError),
        seed_step=DEFAULT_SEED_STEP,
        budget_growth=2.0,
    ):
        self.max_attempts = max(1, max_attempts)
        self.retry_on = tuple(retry_on)
        self.seed_step = seed_step
        self.budget_growth = budget_growth

    def is_retryable(self, error):
        # An invariant violation is evidence of a simulator bug, not a
        # seed-dependent transient: retrying with a bumped seed would just
        # hide it.  Never retryable, whatever ``retry_on`` says.
        if isinstance(error, SanitizerError):
            return False
        return isinstance(error, self.retry_on)

    def seed_for(self, base_seed, attempt):
        """Attempt 0 keeps the requested seed; retries bump deterministically."""
        return base_seed + attempt * self.seed_step

    def budget_for(self, max_cycles, attempt):
        if max_cycles is None:
            return None
        return int(max_cycles * self.budget_growth**attempt)


class WallClockGuard:
    """Kernel watchdog callback enforcing a wall-clock budget per attempt."""

    def __init__(self, limit_s):
        self.limit_s = limit_s
        self.deadline = time.monotonic() + limit_s

    def __call__(self, cycle):
        if time.monotonic() > self.deadline:
            raise SimTimeoutError(
                cycle, f"wall-clock budget of {self.limit_s:.1f}s exceeded"
            )


class CellFailure:
    """Marker standing in for a RunResult when a cell exhausted retries.

    Experiment modules test results with ``is_ok`` and render failures as
    gaps; the error class is kept so tables can label the gap.
    """

    __slots__ = ("cell_id", "error_class", "message")

    def __init__(self, cell_id, error_class, message):
        self.cell_id = cell_id
        self.error_class = error_class
        self.message = message

    def __repr__(self):
        return f"CellFailure({self.cell_id}: {self.error_class})"


def is_ok(result):
    """True when ``result`` is usable data rather than a failure marker."""
    return result is not None and not isinstance(result, CellFailure)


def capture_metrics(result):
    """Flatten a cell result into the JSON-serializable journal metrics.

    Simulation cells return a RunResult and get the standard flattening
    below.  Other cell kinds (e.g. the fuzz campaign's program batches)
    provide their own ``to_metrics()`` and own their journal schema —
    the only field every kind shares is ``cycles``.
    """
    custom = getattr(result, "to_metrics", None)
    if custom is not None:
        return custom()
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "traffic_bytes": result.traffic_bytes,
        "traffic_breakdown": dict(result.traffic_breakdown),
        "counters": {
            name: result.count(name) for name in result.counters.as_dict()
        },
    }


class CellResult:
    """RunResult-compatible view of a cell's journal metrics.

    Every ok outcome carries one, fresh or resumed, serial or parallel.
    It provides the attribute surface the figure/table modules use —
    ``cycles``, ``instructions``, ``ipc``, ``traffic_bytes``,
    ``traffic_breakdown`` and ``count()``.
    """

    __slots__ = ("_metrics",)

    def __init__(self, metrics):
        self._metrics = metrics

    @property
    def cycles(self):
        return self._metrics["cycles"]

    @property
    def instructions(self):
        return self._metrics["instructions"]

    @property
    def ipc(self):
        return self.instructions / max(self.cycles, 1)

    @property
    def traffic_bytes(self):
        return self._metrics["traffic_bytes"]

    @property
    def traffic_breakdown(self):
        return self._metrics["traffic_breakdown"]

    def count(self, name):
        return self._metrics["counters"].get(name, 0)

    @property
    def metrics(self):
        """The raw journal metrics dict (any cell kind's schema)."""
        return self._metrics

    def __repr__(self):
        return (
            f"CellResult(cycles={self.cycles}, instructions={self.instructions})"
        )


class CellOutcome:
    """Everything the engine knows about one executed (or skipped) cell."""

    __slots__ = (
        "cell_id",
        "status",  # 'ok' | 'cached' | 'failed' | 'poisoned' | 'skipped'
        "result",
        "error_class",
        "error_message",
        "attempts",
    )

    def __init__(
        self, cell_id, status, result=None, error_class=None,
        error_message=None, attempts=(),
    ):
        self.cell_id = cell_id
        self.status = status
        self.result = result
        self.error_class = error_class
        self.error_message = error_message
        self.attempts = list(attempts)

    @property
    def ok(self):
        return self.status in ("ok", "cached")

    def failure(self):
        return CellFailure(self.cell_id, self.error_class, self.error_message)

    def __repr__(self):
        return f"CellOutcome({self.cell_id}: {self.status})"


#: Worker deaths after which a cell is quarantined instead of retried.
QUARANTINE_CRASHES = 2


class CellRun:
    """The attempt state machine of one cell, wherever its attempts run.

    The serial engine runs each attempt in-process; the supervisor and
    the analysis service lease it to a pool worker.  All three take the
    next attempt's index, seed and cycle budget from :meth:`next_attempt`
    and hand back what came of it: :meth:`complete` for an
    :class:`~repro.reliability.worker.AttemptResult`, :meth:`crash` for a
    :class:`~repro.errors.WorkerCrashError`.  Both return the cell's
    final :class:`CellOutcome`, or None when it is to be retried.

    With a journal, each failed attempt is recorded as it happens, so an
    interrupted sweep resumes the seed-bump sequence where it stopped.
    """

    def __init__(
        self, spec, policy, max_cycles=None, journal=None, base_seed=None,
        quarantine_crashes=QUARANTINE_CRASHES,
    ):
        self.spec = spec
        self.cell_id = spec.cell_id
        self.policy = policy
        self.budget = max_cycles
        self.base_seed = spec.seed if base_seed is None else base_seed
        self.journal = journal
        self.quarantine_crashes = quarantine_crashes
        self.attempts = []  # this session's attempt records
        self.crashes = 0  # worker deaths attributed to this cell
        self._current = None  # the dispatched attempt's next_attempt()
        self._dispatched_at = None
        # A cell whose journal record is not ``ok`` (failed, poisoned) has
        # already consumed attempts, possibly in an earlier session, so new
        # attempts keep walking the ``seed + k * seed_step`` sequence
        # instead of re-running seeds that already failed.  A completed
        # cell restarts at 0: a deliberate fresh re-run (no ``--resume``)
        # measures the requested seed, not a bumped one.
        record = journal.get(self.cell_id) if journal is not None else None
        self.attempt_base = (
            len(record.get("attempts", ()))
            if record is not None and record.get("status") != "ok"
            else 0
        )

    def next_attempt(self):
        """``attempt_index``, ``seed`` and ``max_cycles`` of the next attempt.

        Called once per attempt, as it is dispatched.
        """
        index = self.attempt_base + len(self.attempts)
        self._dispatched_at = time.monotonic()
        self._current = {
            "attempt_index": index,
            "seed": self.policy.seed_for(self.base_seed, index),
            "max_cycles": self.policy.budget_for(self.budget, index),
        }
        return self._current

    def complete(self, result):
        """Judge an attempt that ran to completion (ok or failed)."""
        record = {
            "seed": result.seed,
            "max_cycles": result.max_cycles,
            "status": result.status,
            "wall_ms": result.wall_ms,
        }
        if result.faults is not None:
            record["faults"] = result.faults
        if result.status != "ok":
            record["error_class"] = result.error_class
            record["error_message"] = result.error_message
            return self._failed(
                record,
                result.error is not None
                and self.policy.is_retryable(result.error),
            )
        report = result.sanitizer_report
        if report is not None:
            record["sanitizer"] = report
        violations = report["violations"] if report else ()
        if violations:
            # A record-mode sanitizer lets the run finish but stamps its
            # report on the result: violations fail the cell, with the full
            # report journaled.  Not retryable — an invariant break is a
            # bug, not a transient.
            first = violations[0]
            record["status"] = "failed"
            record["error_class"] = first.get(
                "error_class", "InvariantViolation"
            )
            record["error_message"] = first.get("message", "")
            return self._failed(
                record, False,
                message=(
                    f"{len(violations)} invariant violation(s); "
                    f"first: {record['error_message']}"
                ),
            )
        self.attempts.append(record)
        return self._finish("ok", [record], metrics=result.metrics)

    def crash(self, error):
        """Judge an attempt whose worker died (or was killed) mid-cell."""
        record = {
            "seed": self._current["seed"],
            "max_cycles": self._current["max_cycles"],
            "status": "failed",
            "error_class": type(error).__name__,
            "error_message": str(error),
            "wall_ms": int(1000 * (time.monotonic() - self._dispatched_at)),
        }
        self.crashes += 1
        if self.crashes < self.quarantine_crashes:
            return self._failed(record, True)
        self.attempts.append(record)
        return self._finish(
            "poisoned", [record],
            error_class=record["error_class"],
            error_message=(
                f"quarantined after {self.crashes} worker crashes; "
                f"last: {record['error_message']}"
            ),
        )

    def _failed(self, record, retryable, message=None):
        """Journal a failed attempt, then retry the cell or fail it."""
        self.attempts.append(record)
        self._record({
            "status": "failed",
            "error_class": record["error_class"],
            "error_message": record["error_message"],
            "attempts": [record],
        })
        if retryable and len(self.attempts) < self.policy.max_attempts:
            return None
        # The attempt is journaled already; this refreshes the cell-level
        # error fields.
        return self._finish(
            "failed", [],
            error_class=record["error_class"],
            error_message=message or record["error_message"],
        )

    def _finish(
        self, status, attempts, metrics=None, error_class=None,
        error_message=None,
    ):
        entry = {"status": status, "attempts": attempts}
        result = None
        if status == "ok":
            result = CellResult(metrics)
            entry["cycles"] = result.cycles
            entry["metrics"] = metrics
        else:
            entry["error_class"] = error_class
            entry["error_message"] = error_message
        self._record(entry)
        return CellOutcome(
            self.cell_id, status, result=result, error_class=error_class,
            error_message=error_message, attempts=self.attempts,
        )

    def _record(self, entry):
        if self.journal is not None:
            self.journal.record(self.cell_id, entry)


class RunEngine:
    """Executes experiment cells with watchdog, retry, journal and faults."""

    def __init__(
        self,
        journal=None,
        policy=None,
        max_cycles=None,
        wall_clock_s=None,
        resume=False,
        fault_schedule=None,
        fault_cells="*",
        failure_budget=0,
        supervisor=None,
    ):
        self.journal = journal
        self.policy = policy or RetryPolicy()
        self.max_cycles = max_cycles
        self.wall_clock_s = wall_clock_s
        self.resume = resume
        self.fault_schedule = fault_schedule
        self.fault_cells = fault_cells
        self.failure_budget = failure_budget
        #: Optional :class:`~repro.reliability.supervisor.Supervisor`;
        #: when set (``--jobs`` > 1), :meth:`run_specs` dispatches cells to
        #: its worker pool instead of running them in-process.
        self.supervisor = supervisor
        self.outcomes = []

    # ------------------------------------------------------------ accounting

    @property
    def failures(self):
        return [o for o in self.outcomes if not o.ok]

    @property
    def budget_exceeded(self):
        return len(self.failures) > self.failure_budget

    @property
    def exit_code(self):
        return 1 if self.budget_exceeded else 0

    # ------------------------------------------------------------- execution

    def schedule_for(self, cell_id):
        """The fault schedule applying to ``cell_id``, or None.

        The schedule is shared and stateless: each attempt builds its own
        injector from it, in-process or in a pool worker.
        """
        if not self.fault_schedule:
            return None
        if not fnmatch.fnmatch(cell_id, self.fault_cells):
            return None
        return self.fault_schedule

    def cell_run(self, spec, **kwargs):
        """A :class:`CellRun` of ``spec`` under this engine's policy."""
        return CellRun(
            spec, self.policy, self.max_cycles, self.journal, **kwargs
        )

    def cached_outcome(self, cell_id):
        """The ``cached`` outcome of a cell ``--resume`` skips, or None."""
        if not (self.resume and self.journal is not None):
            return None
        record = self.journal.get(cell_id)
        if record is None or record.get("status") != "ok":
            return None
        metrics = record.get("metrics")
        return CellOutcome(
            cell_id,
            "cached",
            result=CellResult(metrics) if metrics else None,
        )

    def run_cell(self, cell_id, fn, base_seed=0):
        """Execute one cell; ``fn(seed, max_cycles, watchdog, faults)``.

        Returns a :class:`CellOutcome`.  Never raises a simulation error:
        exhausted retries become a ``failed`` outcome for the caller to
        degrade gracefully on.  Non-simulation errors (``KeyboardInterrupt``,
        programming bugs outside the ``ReproError`` tree) still propagate.
        """
        return self.run_spec_cell(
            SimpleNamespace(cell_id=cell_id, seed=base_seed, run=fn)
        )

    def run_spec_cell(self, spec):
        """Execute one cell spec in-process, attempt by attempt."""
        # Late import: the worker module builds on this one.
        from .worker import AttemptRequest, run_attempt

        outcome = self.cached_outcome(spec.cell_id)
        if outcome is None:
            run = self.cell_run(spec)
            schedule = self.schedule_for(spec.cell_id)
        while outcome is None:
            request = AttemptRequest(
                spec, wall_clock_s=self.wall_clock_s, schedule=schedule,
                **run.next_attempt(),
            )
            outcome = run.complete(run_attempt(request, contain=ReproError))
        self.outcomes.append(outcome)
        return outcome

    def run_specs(self, specs):
        """Execute a batch of cell specs; returns outcomes in spec order.

        With a :attr:`supervisor` attached the batch fans out over its
        worker pool (see :mod:`repro.reliability.supervisor`), otherwise
        each cell runs serially in-process.
        """
        specs = list(specs)
        if self.supervisor is not None and self.supervisor.jobs > 1:
            return self.supervisor.run_specs(self, specs)
        return [self.run_spec_cell(spec) for spec in specs]


def cell_id_for(suite, app, scheme, consistency, seed):
    """Canonical cell identity used in journals and ``--fault-cells`` globs."""
    return f"{suite}:{app}:{scheme.value}:{consistency.value}:s{seed}"
