"""Simulation kernel: tick protocol, fast-forward, deadlock detection."""

import pytest

from repro.errors import DeadlockError, SimTimeoutError
from repro.sim.kernel import SimKernel


class CountdownComponent:
    """Active for n ticks, then done."""

    def __init__(self, n):
        self.remaining = n
        self.ticks = 0

    def tick(self):
        self.ticks += 1
        if self.remaining <= 0:
            return "done"
        self.remaining -= 1
        return "active"


class EventWaiter:
    """Waits for its event to fire, then finishes."""

    def __init__(self, kernel, at_cycle):
        self.fired = False
        kernel.schedule_at(at_cycle, self._fire)

    def _fire(self):
        self.fired = True

    def tick(self):
        return "done" if self.fired else "waiting"


class TestSimKernel:
    def test_runs_components_to_done(self):
        kernel = SimKernel()
        comp = CountdownComponent(5)
        kernel.register(comp)
        kernel.run()
        assert comp.remaining == 0

    def test_advances_one_cycle_while_active(self):
        kernel = SimKernel()
        kernel.register(CountdownComponent(7))
        final = kernel.run()
        assert final == 7

    def test_fast_forwards_to_next_event_when_waiting(self):
        kernel = SimKernel()
        waiter = EventWaiter(kernel, 1000)
        kernel.register(waiter)
        final = kernel.run()
        assert waiter.fired
        assert final == 1000  # jumped, not crawled

    def test_deadlock_detected_without_events(self):
        kernel = SimKernel()

        class Stuck:
            def tick(self):
                return "waiting"

        kernel.register(Stuck())
        with pytest.raises(DeadlockError):
            kernel.run()

    def test_max_cycles_enforced(self):
        kernel = SimKernel()
        kernel.register(CountdownComponent(1_000_000))
        with pytest.raises(DeadlockError):
            kernel.run(max_cycles=50)

    def test_max_cycles_raises_timeout_not_plain_deadlock(self):
        # Budget exhaustion is a SimTimeoutError; a still-progressing run
        # must be distinguishable from a genuine deadlock.
        kernel = SimKernel()
        kernel.register(CountdownComponent(1_000_000))
        with pytest.raises(SimTimeoutError):
            kernel.run(max_cycles=50)

    def test_true_deadlock_is_not_a_timeout(self):
        kernel = SimKernel()

        class Stuck:
            def tick(self):
                return "waiting"

        kernel.register(Stuck())
        with pytest.raises(DeadlockError) as excinfo:
            kernel.run()
        assert not isinstance(excinfo.value, SimTimeoutError)

    def test_schedule_negative_delay_clamps_to_now(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule(-5, lambda: fired.append(True))
        kernel.register(CountdownComponent(1))
        kernel.run()
        assert fired == [True]

    def test_drains_events_after_components_finish(self):
        kernel = SimKernel()
        fired = []
        kernel.register(CountdownComponent(1))
        kernel.schedule_at(500, lambda: fired.append(True))
        final = kernel.run()
        assert fired == [True]
        assert final >= 500


class TestEdgeCases:
    """Fast-forward/deadlock boundaries the reliability layer leans on."""

    def test_deadlock_grace_boundary_rescued_by_late_event(self):
        # A component may sit "waiting" with an empty queue for exactly
        # DEADLOCK_GRACE cycles; an event scheduled inside the grace window
        # must rescue the run instead of tripping the detector.
        kernel = SimKernel()

        class LateScheduler:
            """Waits with an empty queue, schedules its wake-up just in time."""

            def __init__(self):
                self.stalled = 0
                self.fired = False

            def _fire(self):
                self.fired = True

            def tick(self):
                if self.fired:
                    return "done"
                self.stalled += 1
                if self.stalled == SimKernel.DEADLOCK_GRACE:
                    kernel.schedule(1, self._fire)
                return "waiting"

        comp = LateScheduler()
        kernel.register(comp)
        final = kernel.run()
        assert comp.fired
        assert final <= SimKernel.DEADLOCK_GRACE + 2

    def test_deadlock_fires_just_past_grace(self):
        kernel = SimKernel()

        class Stuck:
            def __init__(self):
                self.stalls = 0

            def tick(self):
                self.stalls += 1
                return "waiting"

        comp = Stuck()
        kernel.register(comp)
        with pytest.raises(DeadlockError) as excinfo:
            kernel.run()
        # Detection happens the cycle after the grace allowance is spent.
        assert excinfo.value.cycle == SimKernel.DEADLOCK_GRACE
        assert not isinstance(excinfo.value, SimTimeoutError)

    def test_straggler_events_fire_in_order_after_all_done(self):
        # Events landing after every component is done (delayed
        # invalidations, exposure completions) must all drain, in cycle
        # order, before run() returns.
        kernel = SimKernel()
        fired = []
        kernel.register(CountdownComponent(1))
        kernel.schedule_at(700, lambda: fired.append(700))
        kernel.schedule_at(300, lambda: fired.append(300))
        kernel.schedule_at(500, lambda: fired.append(500))
        final = kernel.run()
        assert fired == [300, 500, 700]
        assert final >= 700

    def test_straggler_event_may_reactivate_component(self):
        # A drained straggler can hand a component new work; the kernel must
        # resume ticking it rather than treating "all_done" as final.
        kernel = SimKernel()

        class Reactivated:
            def __init__(self):
                self.phase = "first"

            def _more_work(self):
                self.phase = "again"

            def tick(self):
                if self.phase == "first":
                    self.phase = "idle"
                    return "active"
                if self.phase == "again":
                    self.phase = "finished"
                    return "active"
                return "done"

        comp = Reactivated()
        kernel.register(comp)
        kernel.schedule_at(100, comp._more_work)
        kernel.run()
        assert comp.phase == "finished"

    def test_schedule_at_past_cycle_clamps_to_now(self):
        # schedule_at with a cycle already in the past must clamp to "now"
        # rather than corrupting the event queue (run_at would raise on a
        # missed event).
        kernel = SimKernel()
        fired = []

        class Scheduler:
            def __init__(self):
                self.done = False

            def tick(self):
                if kernel.cycle == 3 and not self.done:
                    self.done = True
                    kernel.schedule_at(0, lambda: fired.append(kernel.cycle))
                    return "active"
                return "done" if self.done else "active"

        kernel.register(Scheduler())
        kernel.run()
        assert fired and fired[0] >= 3

    def test_schedule_negative_delay_still_fires(self):
        kernel = SimKernel()
        fired = []
        kernel.register(CountdownComponent(2))
        kernel.schedule(-100, lambda: fired.append(kernel.cycle))
        kernel.run()
        assert fired == [0]


class Sleeper:
    """Goes idle after ``work`` active ticks; woken by its event."""

    def __init__(self, kernel, work=2, wake_at=None, wake_cycle=None):
        self.kernel = kernel
        self.work = work
        self.wake_cycle = wake_cycle
        self.wake_requested = False
        self.ticks = []
        self.credited = 0
        self.finished = False
        self.done_at = None
        if wake_at is not None:
            kernel.schedule_at(wake_at, self.wake)

    def wake(self):
        self.wake_requested = True
        self.finished = True

    def credit_idle_ticks(self, ticks):
        self.credited += ticks

    def tick(self):
        self.wake_requested = False
        if self.finished:
            if self.done_at is None:
                self.done_at = self.kernel.cycle
            return "done"
        self.ticks.append(self.kernel.cycle)
        if self.work:
            self.work -= 1
            return "active"
        return "idle"


class TestSleepingComponents:
    def test_idle_component_is_skipped_until_woken_and_credited(self):
        kernel = SimKernel()
        sleeper = Sleeper(kernel, work=2, wake_at=50)
        kernel.register(CountdownComponent(10))
        kernel.register(sleeper)
        assert kernel.run() == 50
        # Ticked while active, once idle (cycle 2), then not until woken.
        assert sleeper.ticks == [0, 1, 2]
        # Cycles 3..10 were visited (the countdown ticked) and skipped; the
        # fast-forward from 10 to 50 visits no cycle in between.
        assert sleeper.credited == 8

    def test_idle_counts_as_waiting_for_fast_forward(self):
        kernel = SimKernel()
        sleeper = Sleeper(kernel, work=0, wake_at=1000)
        kernel.register(sleeper)
        assert kernel.run() == 1000
        assert sleeper.ticks == [0]
        assert sleeper.credited == 0

    def test_idle_counts_as_waiting_for_deadlock(self):
        kernel = SimKernel()
        sleeper = Sleeper(kernel, work=0)
        kernel.register(sleeper)
        with pytest.raises(DeadlockError) as excinfo:
            kernel.run()
        assert excinfo.value.cycle == SimKernel.DEADLOCK_GRACE
        # Skipped ticks are credited before run() raises.
        assert sleeper.ticks == [0]
        assert sleeper.credited == SimKernel.DEADLOCK_GRACE

    def test_wake_cycle_resumes_ticking(self):
        kernel = SimKernel()
        sleeper = Sleeper(kernel, work=0, wake_at=40, wake_cycle=6)
        kernel.register(CountdownComponent(20))
        kernel.register(sleeper)
        kernel.run()
        assert sleeper.ticks[:3] == [0, 6, 7]

    def test_wake_during_another_components_tick_same_cycle(self):
        kernel = SimKernel()
        sleeper = Sleeper(kernel, work=0, wake_at=None)

        class Waker:
            def __init__(self):
                self.n = 0

            def tick(self):
                self.n += 1
                if self.n == 5:
                    sleeper.wake()
                return "active" if self.n < 8 else "done"

        kernel.register(Waker())
        kernel.register(sleeper)
        kernel.run()
        # Woken at cycle 4 by the first component: ticked the same cycle.
        assert sleeper.ticks == [0]
        assert sleeper.credited == 3
        assert sleeper.done_at == 4

    def test_settle_credits_without_waking(self):
        kernel = SimKernel()
        sleeper = Sleeper(kernel, work=0, wake_at=30)
        settled = []

        def probe():
            kernel.settle()
            settled.append(sleeper.credited)

        kernel.register(CountdownComponent(10))
        kernel.register(sleeper)
        kernel.schedule_at(8, probe)
        kernel.run()
        # Cycles 1..7 were skipped before the probe fired at cycle 8.
        assert settled == [7]
        assert sleeper.ticks == [0]
        assert sleeper.credited == 10

    def test_each_run_starts_with_every_component_awake(self):
        kernel = SimKernel()
        sleeper = Sleeper(kernel, work=0)
        kernel.register(sleeper)
        with pytest.raises(DeadlockError):
            kernel.run()
        sleeper.work = 1
        kernel.schedule(3, sleeper.wake)
        kernel.run()
        # Ticked at once although it went to sleep in the previous run.
        grace = SimKernel.DEADLOCK_GRACE
        assert sleeper.ticks == [0, grace, grace + 1]
