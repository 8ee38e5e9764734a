"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch a single type at the API boundary while tests can assert on the precise
subclass.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An architecture or processor configuration is invalid."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class ProtocolError(SimulationError):
    """A cache coherence transaction violated the MESI protocol."""


class ConsistencyError(SimulationError):
    """A memory consistency invariant was violated by the model itself."""


class WorkloadError(ReproError):
    """A workload profile or trace request is malformed."""


class TransientError(ReproError):
    """Marker mixin: the failure is plausibly run-specific.

    Errors that also derive from this class (budget exhaustion, injected
    perturbations) are worth retrying with a bumped seed / grown budget;
    errors that do not (a genuine protocol violation, a bad config) are
    permanent and retrying them is wasted work.  The reliability engine's
    default :class:`~repro.reliability.RetryPolicy` keys off this marker.
    """


class DeadlockError(SimulationError):
    """The simulation cannot make forward progress."""

    def __init__(self, cycle, detail):
        super().__init__(f"deadlock detected at cycle {cycle}: {detail}")
        self.cycle = cycle
        self.detail = detail

    def __reduce__(self):
        # ``args`` holds the formatted message, not the constructor
        # signature, so the default exception pickling would re-call
        # ``__init__(message)`` and crash on the missing ``detail``.  The
        # reliability supervisor ships errors across a process pipe, so
        # every class in this hierarchy must round-trip.
        return (type(self), (self.cycle, self.detail))


class SimTimeoutError(DeadlockError, TransientError):
    """A cycle or wall-clock budget elapsed before the run finished.

    Distinct from a true :class:`DeadlockError`: the simulator was still
    making forward progress, it just ran out of budget.  Subclasses
    ``DeadlockError`` so existing ``except DeadlockError`` call sites keep
    working, and :class:`TransientError` so the reliability engine retries
    it with a larger budget.
    """

    def __init__(self, cycle, detail):
        # Skip DeadlockError.__init__'s "deadlock detected" phrasing.
        SimulationError.__init__(
            self, f"simulation budget exhausted at cycle {cycle}: {detail}"
        )
        self.cycle = cycle
        self.detail = detail


class FaultInjectionError(SimulationError, TransientError):
    """An injected fault made the run unusable (reliability testing)."""


class WorkerCrashError(TransientError):
    """A sweep worker process died while running a cell.

    Raised (always pool-side — the worker is gone) when a worker is
    killed by a signal, exits non-zero, misses its heartbeat deadline, or
    exceeds the RSS ceiling.  Transient: the cell is re-dispatched with a
    bumped seed, and only a cell that kills its worker twice is quarantined
    (see :mod:`repro.reliability.supervisor`).
    """

    def __init__(self, kind, detail, worker_id=None, cell_id=None):
        super().__init__(f"worker crash ({kind}): {detail}")
        self.kind = kind
        self.detail = detail
        self.worker_id = worker_id
        self.cell_id = cell_id

    def __reduce__(self):
        return (
            type(self),
            (self.kind, self.detail, self.worker_id, self.cell_id),
        )


class ServiceProtocolError(TransientError):
    """A service transport failed mid-conversation (cluster tier).

    Raised by :mod:`repro.service.client` and the cluster router when a
    TCP peer refuses the connection, half-closes the socket mid-write
    (a truncated or EOF-cut response line), or exceeds its per-call
    timeout.  The *computation* is untouched — every service request is
    idempotent under its content-addressed cache key — so this is a
    :class:`TransientError`: safe to retry, against the same node or a
    replica.
    """

    def __init__(self, detail, host=None, port=None):
        where = f" ({host}:{port})" if host is not None else ""
        super().__init__(f"service transport failure{where}: {detail}")
        self.detail = detail
        self.host = host
        self.port = port

    def __reduce__(self):
        # Same rule as DeadlockError: args holds the formatted message,
        # so default pickling would double-format; rebuild from fields.
        return (type(self), (self.detail, self.host, self.port))


class SanitizerError(SimulationError):
    """Base class for runtime-sanitizer failures (:mod:`repro.sanitizer`).

    Deliberately *not* a :class:`TransientError`: a sanitizer finding is a
    genuine invariant violation, and re-running with a bumped seed would
    only hide it.  The reliability engine's retry policy additionally
    refuses to retry this class even when a custom ``retry_on`` tuple
    would otherwise match.
    """


class InvariantViolation(SanitizerError):
    """A monitored invariant failed while the machine was running.

    The message always names the offending line address, core and
    triggering event (when applicable) so a violation is actionable
    without re-running under a debugger.  Subclasses classify the
    invariant family; ``invariant`` is the machine-readable tag used in
    reports and journals.
    """

    invariant = "invariant"

    def __init__(self, message, cycle=None, core_id=None, line_addr=None,
                 event=None, trace=()):
        parts = [message]
        if line_addr is not None:
            parts.append(f"line=0x{line_addr:x}")
        if core_id is not None:
            parts.append(f"core={core_id}")
        if event:
            parts.append(f"event={event}")
        if cycle is not None:
            parts.append(f"cycle={cycle}")
        super().__init__(" ".join(parts))
        self.reason = message
        self.cycle = cycle
        self.core_id = core_id
        self.line_addr = line_addr
        self.event = event
        self.trace = tuple(trace)

    def __reduce__(self):
        # Reconstruct from the raw reason plus context fields; the default
        # exception pickling would rebuild from the already-formatted
        # message and drop every attribute (see DeadlockError.__reduce__).
        return (
            type(self),
            (self.reason, self.cycle, self.core_id, self.line_addr,
             self.event, self.trace),
        )

    def to_dict(self):
        """JSON-serializable record for reports and run journals."""
        return {
            "invariant": self.invariant,
            "error_class": type(self).__name__,
            "message": str(self),
            "cycle": self.cycle,
            "core": self.core_id,
            "line": f"0x{self.line_addr:x}" if self.line_addr is not None else None,
            "event": self.event,
            "trace": list(self.trace),
        }


class VisibilityViolation(InvariantViolation):
    """A USL left a trace in visible cache/TLB/prefetcher state."""

    invariant = "visibility"


class CoherenceViolation(InvariantViolation):
    """SWMR, directory agreement or inclusion failed on a transition."""

    invariant = "coherence"


class StructuralViolation(InvariantViolation):
    """A structure leaked or exceeded its bound (MSHR/SB/LQ/SQ/ROB/WB)."""

    invariant = "structural"


class ConsistencyViolation(InvariantViolation):
    """A committed load value disagrees with the golden memory model."""

    invariant = "consistency"
