"""Deterministic discrete-event queue.

Events are ordered by (cycle, sequence number): two events scheduled for the
same cycle fire in the order they were scheduled, which keeps simulations
bit-for-bit reproducible regardless of heap tie-breaking.
"""

from __future__ import annotations

import heapq

from ..errors import SimulationError


class Event:
    """A callback to run at an absolute cycle."""

    __slots__ = ("cycle", "seq", "callback", "cancelled")

    def __init__(self, cycle, seq, callback):
        self.cycle = cycle
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        """Prevent the event from firing; cheap (lazy deletion)."""
        self.cancelled = True

    def __lt__(self, other):
        # Orders handles like the queue does.  The queue itself heaps
        # (cycle, seq, event) tuples and never calls this.
        return (self.cycle, self.seq) < (other.cycle, other.seq)

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(cycle={self.cycle}, seq={self.seq}, {state})"


class EventQueue:
    """Min-heap of ``(cycle, seq, event)`` keyed by (cycle, insertion order).

    The heap holds tuples whose first two fields are unique ints, so
    ``heapq`` orders them with C-level int comparisons and never calls
    :meth:`Event.__lt__`.  Cancelled events stay in the heap until they
    reach its head (lazy deletion).
    """

    def __init__(self):
        self._heap = []
        self._next_seq = 0

    def __len__(self):
        return len(self._heap)

    def schedule(self, cycle, callback) -> Event:
        """Schedule ``callback()`` to run at ``cycle``; returns the Event."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(cycle, seq, callback)
        heapq.heappush(self._heap, (cycle, seq, event))
        return event

    def next_cycle(self):
        """Cycle of the earliest pending event, or ``None`` if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def _drop_cancelled(self):
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)

    def run_until(self, cycle):
        """Fire every pending event with ``event.cycle <= cycle``, in order."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            head_cycle, _, event = heap[0]
            if event.cancelled:
                pop(heap)
                continue
            if head_cycle > cycle:
                break
            pop(heap)
            event.callback()

    def run_at(self, cycle):
        """Fire every pending event scheduled exactly at ``cycle``.

        Raises :class:`SimulationError` if an earlier event is still pending,
        which would mean the kernel skipped time.
        """
        self._drop_cancelled()
        if self._heap and self._heap[0][0] < cycle:
            raise SimulationError(
                f"event at cycle {self._heap[0][0]} missed (now {cycle})"
            )
        self.run_until(cycle)
