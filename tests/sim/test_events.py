"""Event queue determinism and ordering."""

import pytest

from repro.configs import ProcessorConfig, Scheme
from repro.errors import SimulationError
from repro.reliability.faults import FaultSchedule
from repro.runner import run_spec
from repro.sim.events import Event, EventQueue, cancelled
from repro.sim.kernel import SimKernel


class TestEventQueue:
    def test_fires_in_cycle_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(5, lambda: fired.append(5))
        queue.schedule(2, lambda: fired.append(2))
        queue.schedule(9, lambda: fired.append(9))
        queue.run_until(10)
        assert fired == [2, 5, 9]

    def test_same_cycle_fires_in_schedule_order(self):
        queue = EventQueue()
        fired = []
        for tag in range(10):
            queue.schedule(3, lambda t=tag: fired.append(t))
        queue.run_until(3)
        assert fired == list(range(10))

    def test_run_until_is_inclusive(self):
        queue = EventQueue()
        fired = []
        queue.schedule(4, lambda: fired.append("a"))
        queue.run_until(4)
        assert fired == ["a"]

    def test_later_events_stay_pending(self):
        queue = EventQueue()
        fired = []
        queue.schedule(4, lambda: fired.append("a"))
        queue.schedule(6, lambda: fired.append("b"))
        queue.run_until(5)
        assert fired == ["a"]
        assert queue.next_cycle() == 6

    def test_cancelled_event_does_not_fire(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1, lambda: fired.append("x"))
        queue.cancel(event)
        queue.run_until(5)
        assert fired == []

    def test_cancelled_head_skipped_by_next_cycle(self):
        queue = EventQueue()
        first = queue.schedule(1, lambda: None)
        queue.schedule(7, lambda: None)
        queue.cancel(first)
        assert queue.next_cycle() == 7

    def test_next_cycle_empty_is_none(self):
        assert EventQueue().next_cycle() is None

    def test_run_at_rejects_missed_events(self):
        queue = EventQueue()
        queue.schedule(1, lambda: None)
        with pytest.raises(SimulationError):
            queue.run_at(5)

    def test_event_scheduled_during_firing_same_cycle_runs(self):
        queue = EventQueue()
        fired = []

        def outer():
            fired.append("outer")
            queue.schedule(2, lambda: fired.append("inner"))

        queue.schedule(2, outer)
        queue.run_until(2)
        assert fired == ["outer", "inner"]

    def test_len_counts_pending(self):
        queue = EventQueue()
        queue.schedule(1, lambda: None)
        queue.schedule(2, lambda: None)
        assert len(queue) == 2

    def test_same_cycle_fifo_across_interleaved_cycles_without_event_compare(
        self, monkeypatch
    ):
        # The heap orders [cycle, seq, callback] entries by their ints;
        # Event.__lt__ is never needed.
        def refuse(self, other):
            raise AssertionError("heap compared Event objects")

        monkeypatch.setattr(Event, "__lt__", refuse)
        queue = EventQueue()
        fired = []
        for tag in range(12):
            cycle = (5, 3, 5, 3)[tag % 4]
            event = queue.schedule(
                cycle, lambda c=cycle, t=tag: fired.append((c, t))
            )
            if tag == 6:
                queue.cancel(event)
        queue.run_until(3)
        queue.run_at(5)
        assert fired == [
            (3, 1), (3, 3), (3, 5), (3, 7), (3, 9), (3, 11),
            (5, 0), (5, 2), (5, 4), (5, 8), (5, 10),
        ]

    def test_handle_is_the_heap_entry(self):
        queue = EventQueue()
        handle = queue.schedule(4, lambda: None)
        assert handle == [4, 0, handle[2]]
        assert not cancelled(handle)
        queue.cancel(handle)
        assert cancelled(handle)
        assert queue.next_cycle() is None


class _Waiter:
    """Waits until the clock reaches ``until``, then finishes."""

    def __init__(self, kernel, until):
        self.kernel = kernel
        self.until = until

    def tick(self):
        return "done" if self.kernel.cycle >= self.until else "waiting"


class TestEventDrop:
    def _kernel(self, nth):
        kernel = SimKernel()
        kernel.faults = FaultSchedule.parse(
            [f"kernel.event_drop:nth={nth}"]
        ).injector()
        return kernel

    def test_dropped_event_never_fires(self):
        kernel = self._kernel(nth=1)
        fired = []
        handle = kernel.schedule(50, lambda: fired.append("lost"))
        kernel.schedule(3, lambda: fired.append("kept"))
        assert isinstance(handle, Event)
        assert cancelled(handle)
        assert len(kernel.events) == 1
        kernel.run()
        assert fired == ["kept"]

    def test_dropped_event_never_sets_the_fast_forward_target(self):
        # Alone, the waiting component would stall into deadlock
        # detection; a queued event at cycle 500 would instead have
        # fast-forwarded the clock there.
        kernel = self._kernel(nth=1)
        handle = kernel.schedule_at(500, lambda: None)
        assert cancelled(handle)
        assert kernel.events.next_cycle() is None
        kernel.register(_Waiter(kernel, until=3))
        assert kernel.run() == 3

    def test_a_dropped_handle_can_still_be_cancelled(self):
        kernel = self._kernel(nth=1)
        handle = kernel.schedule(1, lambda: None)
        EventQueue.cancel(handle)
        assert cancelled(handle)


def test_spec_is_future_cell_builds_no_event_object(monkeypatch):
    """Only the event_drop fault builds an Event: a whole cell runs with
    its constructor refusing."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("an Event was built")

    monkeypatch.setattr(Event, "__init__", refuse)
    result = run_spec(
        "mcf", ProcessorConfig(scheme=Scheme.IS_FUTURE), instructions=400
    )
    assert result.instructions == 400
