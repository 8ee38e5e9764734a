"""Worker-process side of the supervised parallel sweep executor.

One worker is one long-lived child process of the
:class:`~repro.reliability.pool.LeasePool`.  It receives
:class:`AttemptRequest` messages (one *attempt* of one experiment cell:
a fully resolved seed and cycle budget) over its task pipe, runs the cell
in-process, and ships an :class:`AttemptResult` back over its result pipe.
Everything crossing a pipe is pickle-safe by construction — plain data
plus the :mod:`repro.errors` hierarchy, which round-trips by contract
(``tests/test_errors.py::TestPickleRoundTrip``).

Crash isolation is the point: a ``MemoryError``, recursion blowup, or
outright SIGKILL in one cell takes down at most this process, never the
sweep.  Liveness is reported through a shared heartbeat array stamped
from the kernel's heartbeat hook every
:data:`~repro.sim.kernel.SimKernel.WATCHDOG_PERIOD` simulated cycles, so
a worker that stops making simulated progress (wedged tick loop, blocked
syscall) stops heartbeating and is hard-killed by the pool.

The heartbeat hook is also where the ``worker.kill`` fault site lives:
a triggered spec SIGKILLs the worker mid-cell, which is how the test
suite and CI produce real worker deaths deterministically.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import time
from dataclasses import asdict, dataclass, fields

from .. import runner
from ..configs import ProcessorConfig
from ..params import SystemParams
from .engine import WallClockGuard, capture_metrics

#: Seconds an idle worker waits for a task before checking that its
#: parent is still alive.
PARENT_CHECK_S = 0.5

#: (name, default) of each config field a cell id hashes when it differs.
_CONFIG_DEFAULTS = tuple(
    (field.name, field.default)
    for field in fields(ProcessorConfig)
    if field.name not in ("scheme", "consistency")
)


@dataclass(frozen=True)
class CellSpec:
    """Pickle-safe description of one experiment cell.

    Carries everything that decides the cell's result, so the
    ``run_spec``/``run_parsec`` call can be made in-process or in another
    process, and :attr:`cell_id` names all of it.
    """

    suite: str  # "spec" | "parsec"
    app: str
    config: ProcessorConfig
    seed: int = 0
    instructions: int = None
    sanitize: str = None
    params: SystemParams = None  # None: the runner's suite default

    @property
    def cell_id(self):
        """``suite:app:scheme:consistency:sSEED``, then ``:i<instructions>``
        when a window is set and ``:<10 hex>`` when anything else differs
        from its default.

        The hex suffix is the head of the SHA-256 of the canonical JSON of
        the non-default fields (``sanitize``, the config's toggles and
        protected PCs, ``params``), so the id is stable across processes
        and ``PYTHONHASHSEED`` values, and globs like ``spec:mcf:IS-Sp:*``
        still match.
        """
        config = self.config
        cell = (
            f"{self.suite}:{self.app}:{config.scheme.value}:"
            f"{config.consistency.value}:s{self.seed}"
        )
        if self.instructions is not None:
            cell += f":i{self.instructions}"
        overrides = {
            name: getattr(config, name)
            for name, default in _CONFIG_DEFAULTS
            if getattr(config, name) != default
        }
        if "protected_pcs" in overrides:
            overrides["protected_pcs"] = sorted(overrides["protected_pcs"])
        if self.sanitize is not None:
            overrides["sanitize"] = self.sanitize
        if self.params is not None:
            overrides["params"] = asdict(self.params)
        if overrides:
            canonical = json.dumps(
                overrides, sort_keys=True, separators=(",", ":")
            )
            cell += ":" + hashlib.sha256(canonical.encode()).hexdigest()[:10]
        return cell

    def run(self, seed, max_cycles, watchdog, faults, heartbeat=None):
        """Execute this cell at one attempt's seed and budget."""
        # Looked up on the module at call time, so a monkeypatched
        # ``repro.runner`` entry point reaches fork-started workers too.
        fn = runner.run_spec if self.suite == "spec" else runner.run_parsec
        kwargs = {}
        if self.instructions is not None:
            kwargs["instructions"] = self.instructions
        return fn(
            self.app,
            self.config,
            seed=seed,
            params=self.params,
            max_cycles=max_cycles,
            watchdog=watchdog,
            heartbeat=heartbeat,
            faults=faults,
            sanitize=self.sanitize,
            **kwargs,
        )


@dataclass(frozen=True)
class AttemptRequest:
    """One attempt of one cell, fully resolved by the supervisor."""

    spec: CellSpec
    attempt_index: int  # global index in the cell's seed-bump sequence
    seed: int
    max_cycles: int = None
    wall_clock_s: float = None
    schedule: object = None  # FaultSchedule scoped to this cell, or None


@dataclass
class AttemptResult:
    """What one attempt produced, as it crosses the result pipe."""

    cell_id: str
    attempt_index: int
    seed: int
    max_cycles: int
    status: str  # 'ok' | 'failed'
    worker_id: int = -1
    wall_ms: int = 0
    metrics: dict = None
    sanitizer_report: dict = None
    faults: dict = None  # injector summary; None when no injector ran
    error: BaseException = None  # pickled instance when transportable
    error_class: str = None
    error_message: str = None


def _transportable(error):
    """The error itself when it pickles, else None (fields still carry
    class name and message)."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return None


def run_attempt(request, worker_id=-1, heartbeats=None, contain=Exception):
    """Execute one attempt in this process; returns an AttemptResult.

    Errors of class ``contain`` fail the attempt; anything else
    propagates.  A pool worker contains every ``Exception``; the serial
    engine contains only ``ReproError``, so programming errors reach the
    user's terminal.  Only a pool worker (``heartbeats`` given) stamps
    heartbeats and honours the ``worker.kill`` fault site.
    """
    spec = request.spec
    injector = (
        request.schedule.injector() if request.schedule is not None else None
    )
    wall_guard = (
        WallClockGuard(request.wall_clock_s)
        if request.wall_clock_s is not None
        else None
    )

    def heartbeat(cycle):
        heartbeats[worker_id] = time.monotonic()
        if injector is not None and injector.fire("worker.kill") is not None:
            # Simulated worker death: indistinguishable from a segfault or
            # the OOM killer from the supervisor's point of view.
            os.kill(os.getpid(), signal.SIGKILL)

    hooks = {"heartbeat": heartbeat} if heartbeats is not None else {}

    result = AttemptResult(
        cell_id=spec.cell_id,
        attempt_index=request.attempt_index,
        seed=request.seed,
        max_cycles=request.max_cycles,
        status="ok",
        worker_id=worker_id,
    )
    started = time.perf_counter()
    try:
        run = spec.run(
            seed=request.seed,
            max_cycles=request.max_cycles,
            watchdog=wall_guard,
            faults=injector,
            **hooks,
        )
        # A malformed result object (broken to_metrics/count) fails the
        # attempt like any other contained error.
        result.metrics = capture_metrics(run)
        result.sanitizer_report = getattr(run, "sanitizer_report", None)
    except contain as error:
        # In a pool worker this is crash isolation: an interpreter-level
        # fault in a cell (MemoryError from the RSS rlimit,
        # RecursionError, anything) must not take the worker, let alone
        # the sweep, down; the error is journaled against the cell.
        result.status = "failed"
        result.metrics = None
        result.error = error
        result.error_class = type(error).__name__
        result.error_message = str(error)
    result.wall_ms = int(1000 * (time.perf_counter() - started))
    if injector is not None:
        result.faults = injector.summary()
    return result


def worker_main(
    worker_id, task_conn, result_conn, heartbeats, parent, max_rss=None
):
    """Entry point of one pool worker process.

    Loops over attempt requests until it receives the ``None`` shutdown
    sentinel, its pipes close, or its parent dies.  A fork-started worker
    holds its own copy of the task pipe's send end, so a SIGKILLed parent
    never shows up as EOF: the idle loop polls and exits once it has been
    reparented.  ``parent`` is the spawning process's pid, taken before
    the fork: a parent killed before the child first ran leaves the child
    already reparented, and only the pre-fork pid tells it so.  Exits via
    ``os._exit`` so a fork-started worker never runs the parent's atexit
    handlers or flushes its inherited stdio buffers.
    """
    # The supervisor coordinates shutdown: a terminal Ctrl-C must reach
    # the parent (which drains) and not kill in-flight cells directly.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    if max_rss is not None:
        try:
            import resource

            # RLIMIT_AS bounds the address space, the closest enforceable
            # proxy for RSS: an allocation past the ceiling raises
            # MemoryError *inside* the cell, which the attempt loop
            # contains.  The pool additionally polls true RSS.
            resource.setrlimit(resource.RLIMIT_AS, (max_rss, max_rss))
        except (ImportError, ValueError, OSError):
            pass
    exit_code = 0
    try:
        while True:
            try:
                if not task_conn.poll(PARENT_CHECK_S):
                    if os.getppid() != parent:
                        exit_code = 1
                        break
                    continue
                request = task_conn.recv()
            except (EOFError, OSError):
                exit_code = 1
                break
            if request is None:
                break
            heartbeats[worker_id] = time.monotonic()
            payload = run_attempt(
                request, worker_id=worker_id, heartbeats=heartbeats
            )
            payload.error = _transportable(payload.error)
            try:
                result_conn.send(payload)
            except (BrokenPipeError, OSError):
                exit_code = 1
                break
    finally:
        os._exit(exit_code)
