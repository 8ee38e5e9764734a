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
* a **run journal** records every outcome (see
  :mod:`repro.reliability.journal`), so ``--resume`` skips completed cells;
* **fault injection**: a :class:`~repro.reliability.faults.FaultSchedule`
  can be applied to cells matching a glob, to exercise all of the above
  deterministically.

A failed cell yields a :class:`CellFailure`, which the experiment modules
render as a marked gap instead of aborting; the CLI exits non-zero only if
the number of failed cells exceeds the failure budget.
"""

from __future__ import annotations

import fnmatch
import time

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
    """RunResult-compatible view reconstructed from journal metrics.

    Provides the attribute surface the figure/table modules actually use —
    ``cycles``, ``instructions``, ``ipc``, ``traffic_bytes``,
    ``traffic_breakdown`` and ``count()`` — so a resumed experiment renders
    identically to a fresh one without re-simulating completed cells.
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
        """The raw journal metrics dict.

        Cell kinds with a custom ``to_metrics()`` schema (fuzz batches)
        are reconstructed through this rather than the RunResult-shaped
        properties above, so cached-resume aggregation sees exactly what
        a fresh run produced.
        """
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

        Used directly by the parallel supervisor, which ships the (shared,
        stateless) schedule to a worker and lets the worker build its own
        per-attempt injector.
        """
        if not self.fault_schedule:
            return None
        if not fnmatch.fnmatch(cell_id, self.fault_cells):
            return None
        return self.fault_schedule

    def _faults_for(self, cell_id):
        schedule = self.schedule_for(cell_id)
        return schedule.injector() if schedule is not None else None

    def prior_attempts(self, cell_id):
        """Journaled attempt count to continue the seed-bump sequence from.

        A cell whose journal record is not ``ok`` (failed, poisoned) has
        already consumed attempts — possibly in a previous session or in a
        worker that crashed — so new attempts must keep walking the
        deterministic ``seed + k * seed_step`` sequence instead of
        restarting at attempt 0 and re-running seeds that already failed.
        Completed cells reset to 0: a deliberate fresh re-run (no
        ``--resume``) should measure the requested seed, not a bumped one.
        """
        if self.journal is None:
            return 0
        record = self.journal.get(cell_id)
        if record is None or record.get("status") == "ok":
            return 0
        return len(record.get("attempts", ()))

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
        outcome = self.cached_outcome(cell_id)
        if outcome is not None:
            self.outcomes.append(outcome)
            return outcome

        attempts = []
        outcome = None
        attempt_base = self.prior_attempts(cell_id)
        for attempt in range(self.policy.max_attempts):
            seed = self.policy.seed_for(base_seed, attempt_base + attempt)
            max_cycles = self.policy.budget_for(
                self.max_cycles, attempt_base + attempt
            )
            watchdog = (
                WallClockGuard(self.wall_clock_s)
                if self.wall_clock_s is not None
                else None
            )
            faults = self._faults_for(cell_id)
            started = time.perf_counter()
            attempt_record = {
                "seed": seed,
                "max_cycles": max_cycles,
                "status": "ok",
            }
            try:
                result = fn(
                    seed=seed,
                    max_cycles=max_cycles,
                    watchdog=watchdog,
                    faults=faults,
                )
            except ReproError as error:
                # Only simulation-layer failures are containable; anything
                # else (a programming bug, KeyboardInterrupt) propagates.
                attempt_record["status"] = "failed"
                attempt_record["error_class"] = type(error).__name__
                attempt_record["error_message"] = str(error)
                attempt_record["wall_ms"] = int(
                    1000 * (time.perf_counter() - started)
                )
                if faults is not None:
                    attempt_record["faults"] = faults.summary()
                attempts.append(attempt_record)
                if (
                    self.policy.is_retryable(error)
                    and attempt < self.policy.max_attempts - 1
                ):
                    continue
                outcome = CellOutcome(
                    cell_id,
                    "failed",
                    error_class=type(error).__name__,
                    error_message=str(error),
                    attempts=attempts,
                )
                break
            else:
                attempt_record["wall_ms"] = int(
                    1000 * (time.perf_counter() - started)
                )
                if faults is not None:
                    attempt_record["faults"] = faults.summary()
                # A record-mode sanitizer lets the run finish but stamps its
                # report on the result: violations turn the cell into a
                # failure (counted against --max-failures), with the full
                # report preserved in the journal.  Not retryable — an
                # invariant break is a bug, not a transient.
                sanitizer_report = getattr(result, "sanitizer_report", None)
                if sanitizer_report is not None:
                    attempt_record["sanitizer"] = sanitizer_report
                violations = (
                    sanitizer_report["violations"] if sanitizer_report else ()
                )
                if violations:
                    attempt_record["status"] = "failed"
                    first = violations[0]
                    attempt_record["error_class"] = first.get(
                        "error_class", "InvariantViolation"
                    )
                    attempt_record["error_message"] = first.get("message", "")
                    attempts.append(attempt_record)
                    outcome = CellOutcome(
                        cell_id,
                        "failed",
                        error_class=attempt_record["error_class"],
                        error_message=(
                            f"{len(violations)} invariant violation(s); "
                            f"first: {attempt_record['error_message']}"
                        ),
                        attempts=attempts,
                    )
                    break
                attempts.append(attempt_record)
                outcome = CellOutcome(
                    cell_id, "ok", result=result, attempts=attempts
                )
                break

        if self.journal is not None:
            record = {
                "status": "ok" if outcome.ok else "failed",
                "attempts": attempts,
            }
            if outcome.ok:
                record["cycles"] = outcome.result.cycles
                record["metrics"] = capture_metrics(outcome.result)
            else:
                record["error_class"] = outcome.error_class
                record["error_message"] = outcome.error_message
            self.journal.record(cell_id, record)

        self.outcomes.append(outcome)
        return outcome

    def run_spec_cell(self, spec):
        """Execute one :class:`~repro.reliability.worker.CellSpec` in-process."""
        return self.run_cell(spec.cell_id, spec.run, base_seed=spec.seed)

    def run_specs(self, specs):
        """Execute a batch of cell specs; returns outcomes in spec order.

        This is the single entry point the experiment modules use for
        whole-sweep dispatch: with a :attr:`supervisor` attached the batch
        fans out over its worker pool (crash-isolated, supervised — see
        :mod:`repro.reliability.supervisor`), otherwise each cell runs
        serially in-process exactly as :meth:`run_cell` always has.
        Either way the returned outcome order, the journal contents, and
        the per-cell stats are identical.
        """
        specs = list(specs)
        if self.supervisor is not None and self.supervisor.jobs > 1:
            return self.supervisor.run_specs(self, specs)
        return [self.run_spec_cell(spec) for spec in specs]


def cell_id_for(suite, app, scheme, consistency, seed):
    """Canonical cell identity used in journals and ``--fault-cells`` globs."""
    return f"{suite}:{app}:{scheme.value}:{consistency.value}:s{seed}"
