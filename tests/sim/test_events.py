"""Event queue determinism and ordering."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue


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
        event.cancel()
        queue.run_until(5)
        assert fired == []

    def test_cancelled_head_skipped_by_next_cycle(self):
        queue = EventQueue()
        first = queue.schedule(1, lambda: None)
        queue.schedule(7, lambda: None)
        first.cancel()
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
        # The heap orders (cycle, seq) tuples; Event.__lt__ is never needed.
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
                event.cancel()
        queue.run_until(3)
        queue.run_at(5)
        assert fired == [
            (3, 1), (3, 3), (3, 5), (3, 7), (3, 9), (3, 11),
            (5, 0), (5, 2), (5, 4), (5, 8), (5, 10),
        ]
