"""Deterministic discrete-event queue.

Events are ordered by (cycle, sequence number): two events scheduled for the
same cycle fire in the order they were scheduled, which keeps simulations
bit-for-bit reproducible regardless of heap tie-breaking.

The heap holds plain ``[cycle, seq, callback]`` lists, and that list is
also the handle :meth:`EventQueue.schedule` returns: cancelling it clears
its callback slot (:meth:`EventQueue.cancel`), and the queue drops the
entry when it reaches the head (lazy deletion).  No object is built per
event beyond the list itself.
"""

from __future__ import annotations

import heapq

from ..errors import SimulationError


class Event(list):
    """A handle that never fires: ``[cycle, -1, None]``.

    The kernel returns one when the ``kernel.event_drop`` fault loses an
    event, so callers can hold and cancel it like any queue entry.  It is
    never put in a queue.
    """

    __slots__ = ()

    def __init__(self, cycle):
        super().__init__((cycle, -1, None))

    def __lt__(self, other):
        return (self[0], self[1]) < (other[0], other[1])


def cancelled(handle):
    """True once ``handle`` (a queue entry or an :class:`Event`) can no
    longer fire."""
    return handle[2] is None


class EventQueue:
    """Min-heap of ``[cycle, seq, callback]`` keyed by (cycle, insertion
    order).

    The first two fields are unique ints, so ``heapq`` orders entries with
    C-level int comparisons.  A cancelled entry has ``callback`` ``None``
    and stays in the heap until it reaches the head.
    """

    def __init__(self):
        self._heap = []
        self._next_seq = 0

    def __len__(self):
        return len(self._heap)

    def schedule(self, cycle, callback):
        """Schedule ``callback()`` to run at ``cycle``; returns the entry,
        which is the handle :meth:`cancel` takes."""
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [cycle, seq, callback]
        heapq.heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(handle):
        """Prevent the entry from firing; cheap (lazy deletion)."""
        handle[2] = None

    def next_cycle(self):
        """Cycle of the earliest pending event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2] is not None:
                return head[0]
            heapq.heappop(heap)
        return None

    def run_until(self, cycle):
        """Fire every pending event with a cycle ``<= cycle``, in order."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            head_cycle, _, callback = heap[0]
            if callback is None:
                pop(heap)
                continue
            if head_cycle > cycle:
                break
            pop(heap)
            callback()

    def run_at(self, cycle):
        """Fire every pending event scheduled exactly at ``cycle``.

        Raises :class:`SimulationError` if an earlier event is still pending,
        which would mean the kernel skipped time.
        """
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        if heap and heap[0][0] < cycle:
            raise SimulationError(
                f"event at cycle {heap[0][0]} missed (now {cycle})"
            )
        self.run_until(cycle)
