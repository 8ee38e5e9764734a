"""Simulation kernel: drives cores and the event queue cycle by cycle.

The kernel owns the global clock.  Each cycle it first fires the events due
at that cycle (memory responses, invalidation deliveries, ...), then ticks
every registered component (cores).  When every component reports itself
idle-but-waiting, the kernel fast-forwards the clock to the next pending
event instead of spinning, which is what makes a pure-Python cycle-level
model usable.

Sleeping components
-------------------

A tick may also report ``"idle"``: the component is waiting *and* the
tick changed nothing, so ticking it again would repeat the same no-op.
Fast-forward and deadlock detection treat ``"idle"`` exactly like
``"waiting"``, but the kernel stops calling the component's ``tick`` until

* its ``wake_requested`` flag is set, or
* the clock reaches the ``wake_cycle`` it reported when it went idle
  (``None`` for never).

The rule that keeps this exact: anything that changes a component from
outside its own tick (an event callback, a memory response, a coherence
message, another component) must go through one of the component's waking
entry points, which set ``wake_requested``.  A component that never
returns ``"idle"`` is ticked on every cycle the kernel visits, as before.

The skipped ticks still happened in simulated time.  The kernel counts
them per sleeper and hands the count to ``credit_idle_ticks(n)``, which
must apply ``n`` times the side effects the idle tick itself had (its stall
counters).  That happens when the component wakes, whenever someone calls
:meth:`SimKernel.settle` (before reading counters mid-run), and before
:meth:`SimKernel.run` returns or raises, so every counter and cycle count
is the same as if every tick had run.  Each :meth:`SimKernel.run` starts
with every component awake.

Reliability hooks
-----------------

Two optional hooks support the :mod:`repro.reliability` layer:

* ``kernel.watchdog`` — a callable invoked with the current cycle roughly
  every :data:`SimKernel.WATCHDOG_PERIOD` cycles of simulated time; it may
  raise (typically :class:`~repro.errors.SimTimeoutError`) to abort a run
  that exceeded a wall-clock budget.
* ``kernel.heartbeat`` — a callable invoked with the current cycle on the
  same period, *before* the watchdog.  It must be a pure observer (never
  raise, never touch simulated state); the parallel sweep supervisor uses
  it to stamp worker liveness, so a worker that stops making simulated
  progress stops heartbeating and gets hard-killed by its supervisor.
* ``kernel.faults`` — a :class:`~repro.reliability.faults.FaultInjector`;
  when set, each ``schedule``/``schedule_at`` call consults the
  ``kernel.event_drop`` fault site, and a triggered fault silently loses
  the event: it never enters the queue, and the caller gets a
  pre-cancelled :class:`~repro.sim.events.Event` as its handle.  That is
  how "message never arrived" failures reach the deadlock detector.
"""

from __future__ import annotations

from ..errors import DeadlockError, SimTimeoutError
from .events import Event, EventQueue

_NEVER = float("inf")


class SimKernel:
    """Global clock + event queue + tickable components."""

    #: Cycles a component may report "waiting" with an empty event queue
    #: before the kernel declares deadlock.
    DEADLOCK_GRACE = 4

    #: Simulated cycles between watchdog invocations.
    WATCHDOG_PERIOD = 4096

    def __init__(self):
        self.cycle = 0
        self.events = EventQueue()
        self._components = []
        self.watchdog = None
        self.heartbeat = None
        self.faults = None
        #: Optional runtime sanitizer (:mod:`repro.sanitizer`); receives
        #: ``on_cycle`` after each cycle's events fire and ``on_quiesce``
        #: right before a successful run() returns.
        self.monitor = None
        # Last cycle whose events have already fired this iteration.
        self._fired_through = -1
        # Sleeping components: index -> [wake cycle, skipped ticks].
        self._sleeping = {}

    def register(self, component):
        """Register an object with ``tick() -> str`` called every cycle.

        ``tick`` must return one of:

        * ``"active"``  — did work this cycle; keep ticking.
        * ``"waiting"`` — blocked on a pending event; may be fast-forwarded.
        * ``"idle"``    — waiting, and the tick changed nothing; skipped
          until woken (see the module docstring for the protocol).
        * ``"done"``    — finished; no longer needs ticking.
        """
        self._components.append(component)

    # schedule/schedule_at clamp a cycle whose events already fired (e.g.
    # a stale timestamp from the tick phase) to the next cycle instead of
    # planting an unfireable past event.  They run once per event, so
    # neither calls a helper.

    def schedule(self, delay, callback):
        """Run ``callback()`` ``delay`` cycles from now (delay >= 0).

        Returns the queue entry, the handle :meth:`EventQueue.cancel`
        takes.
        """
        cycle = self.cycle
        if delay > 0:
            cycle += delay
        if cycle <= self._fired_through:
            cycle = self._fired_through + 1
        faults = self.faults
        if faults is not None and faults.fire(
            "kernel.event_drop", cycle=self.cycle
        ) is not None:
            return Event(cycle)  # lost: a handle that never fires
        return self.events.schedule(cycle, callback)

    def schedule_at(self, cycle, callback):
        """Run ``callback()`` at an absolute cycle >= now."""
        if cycle < self.cycle:
            cycle = self.cycle
        if cycle <= self._fired_through:
            cycle = self._fired_through + 1
        faults = self.faults
        if faults is not None and faults.fire(
            "kernel.event_drop", cycle=self.cycle
        ) is not None:
            return Event(cycle)  # lost: a handle that never fires
        return self.events.schedule(cycle, callback)

    def settle(self):
        """Credit every sleeping component with the ticks skipped so far.

        Call before reading counters in the middle of a run; the
        components stay asleep.
        """
        components = self._components
        for index, sleeper in self._sleeping.items():
            if sleeper[1]:
                components[index].credit_idle_ticks(sleeper[1])
                sleeper[1] = 0

    def release(self):
        """Drop the kernel's references into the simulated machine: the
        registered components, pending events (their callbacks close over
        components) and the fault hook.  The clock stays readable.  Called
        by :meth:`repro.system.System.run` once the run is over, so the
        finished machine is freed by reference counting.
        """
        self._components = []
        self.events = EventQueue()
        self.faults = None

    def run(self, max_cycles=None):
        """Run until every component reports ``done``.

        Returns the final cycle count.  Raises :class:`DeadlockError` if no
        component can make progress and no event is pending, or
        :class:`SimTimeoutError` if ``max_cycles`` elapses first.
        """
        self._sleeping = {}
        try:
            return self._run(max_cycles)
        finally:
            self.settle()
            self._sleeping = {}

    def _run(self, max_cycles):
        stall_cycles = 0
        next_watchdog = (
            self.cycle + self.WATCHDOG_PERIOD
            if self.watchdog is not None or self.heartbeat is not None
            else None
        )
        components = self._components
        sleeping = self._sleeping
        while True:
            if next_watchdog is not None and self.cycle >= next_watchdog:
                # Heartbeat first: a tripping watchdog must not suppress
                # the liveness pulse its supervisor is waiting on.
                if self.heartbeat is not None:
                    self.heartbeat(self.cycle)
                if self.watchdog is not None:
                    self.watchdog(self.cycle)
                next_watchdog = self.cycle + self.WATCHDOG_PERIOD

            self.events.run_at(self.cycle)
            self._fired_through = self.cycle
            if self.monitor is not None:
                self.monitor.on_cycle(self.cycle)

            any_active = False
            all_done = True
            for index, component in enumerate(components):
                if sleeping:
                    sleeper = sleeping.get(index)
                    if sleeper is not None:
                        if (
                            not component.wake_requested
                            and self.cycle < sleeper[0]
                        ):
                            sleeper[1] += 1  # skipped: credited on wake
                            all_done = False
                            continue
                        del sleeping[index]
                        if sleeper[1]:
                            component.credit_idle_ticks(sleeper[1])
                state = component.tick()
                if state == "active":
                    any_active = True
                    all_done = False
                elif state == "waiting":
                    all_done = False
                elif state == "idle":
                    wake_cycle = component.wake_cycle
                    sleeping[index] = [
                        _NEVER if wake_cycle is None else wake_cycle, 0
                    ]
                    all_done = False

            if all_done:
                # Drain straggler events (delayed invalidation deliveries,
                # exposure completions, attack probe transactions) before
                # declaring the run over.
                next_event = self.events.next_cycle()
                if next_event is None:
                    if self.monitor is not None:
                        self.monitor.on_quiesce(self.cycle)
                    return self.cycle
                self.cycle = max(next_event, self.cycle + 1)
                continue

            if max_cycles is not None and self.cycle >= max_cycles:
                raise SimTimeoutError(self.cycle, "max_cycles exceeded")

            if any_active:
                stall_cycles = 0
                self.cycle += 1
                continue
            next_event = self.events.next_cycle()
            if next_event is not None:
                stall_cycles = 0
                self.cycle = max(next_event, self.cycle + 1)
            else:
                stall_cycles += 1
                if stall_cycles > self.DEADLOCK_GRACE:
                    names = [getattr(c, "name", repr(c)) for c in self._components]
                    raise DeadlockError(self.cycle, f"components stuck: {names}")
                self.cycle += 1
