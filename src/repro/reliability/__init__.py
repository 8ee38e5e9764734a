"""Reliability layer: fault-tolerant, resumable, fault-injectable runs.

The pieces:

* :mod:`~repro.reliability.engine` — the :class:`RunEngine` executes each
  experiment cell with a watchdog, bounded seed-bump retry, graceful
  failure capture, and a failure budget.  Each cell's attempts are one
  :class:`CellRun`: the next attempt's seed and cycle budget, the verdict
  on each finished attempt, the crash quarantine and the journal records.
  The serial engine runs its attempts in-process, the supervisor and the
  analysis service on the pool; all three drive the same ``CellRun``;
* :mod:`~repro.reliability.journal` — the :class:`RunJournal` persists per
  cell attempts and outcomes so interrupted sweeps resume instead of
  restarting;
* :mod:`~repro.reliability.faults` — seeded, deterministic fault injection
  into the NoC, DRAM, coherence and kernel layers, used to exercise the
  simulator's failure detectors and this layer's recovery paths;
* :mod:`~repro.reliability.pool` / :mod:`~repro.reliability.worker` —
  the :class:`LeasePool`, the one crash-isolated worker pool: per-task
  lease futures, heartbeat liveness, RSS ceilings, deadline plumbing,
  and workers that exit when their parent dies; :func:`run_attempt`
  runs one attempt, in a worker or in-process;
* :mod:`~repro.reliability.supervisor` — the :class:`Supervisor` runs a
  batch of :class:`CellSpec` cells (``--jobs``) as leases on a
  :class:`LeasePool`, adding dispatch in spec order and a graceful
  SIGINT/SIGTERM drain; the analysis service (:mod:`repro.service`) is
  the pool's other caller;
* :mod:`~repro.reliability.atomic_io` — the shared kill-9-hardened
  write pattern (fsync temp + atomic rename + ``.bak`` rotation) used
  by the journals, the fuzz triage corpus, and the service result
  store, and the main → ``.bak`` → empty reader every journal loads
  through.

See ``docs/RELIABILITY.md`` for the journal format, resume semantics,
retry policy, the fault-schedule language, and parallel execution.
"""

from .atomic_io import atomic_write_json, atomic_write_text
from .engine import (
    QUARANTINE_CRASHES,
    CellFailure,
    CellOutcome,
    CellResult,
    CellRun,
    RetryPolicy,
    RunEngine,
    WallClockGuard,
    capture_metrics,
    cell_id_for,
    is_ok,
)
from .faults import (
    DROPPED_MESSAGE_DELAY,
    FAULT_SITES,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
)
from .journal import RunJournal
from .pool import LeasePool, PoolClosedError
from .supervisor import Supervisor
from .worker import AttemptRequest, AttemptResult, CellSpec, run_attempt

__all__ = [
    "AttemptRequest",
    "AttemptResult",
    "CellFailure",
    "CellOutcome",
    "CellResult",
    "CellRun",
    "CellSpec",
    "DROPPED_MESSAGE_DELAY",
    "FAULT_SITES",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "LeasePool",
    "PoolClosedError",
    "QUARANTINE_CRASHES",
    "RetryPolicy",
    "RunEngine",
    "RunJournal",
    "Supervisor",
    "WallClockGuard",
    "atomic_write_json",
    "atomic_write_text",
    "capture_metrics",
    "cell_id_for",
    "is_ok",
    "run_attempt",
]
