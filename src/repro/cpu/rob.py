"""Reorder buffer.

Instructions enter at dispatch in program order, complete out of order, and
retire in order from the head (Section II-A).  The entry is the central
per-instruction record: dependence wake-up counts, execution state, branch
prediction bookkeeping, and pointers into the LQ/SQ, which the core clears
when the instruction retires or is squashed (the LQ/SQ entry keeps its
``rob`` link while it lives).
"""

from __future__ import annotations

from collections import deque

from ..errors import SimulationError


class ROBEntry:
    """One in-flight instruction."""

    __slots__ = (
        "op",
        "seq",
        "stream_pos",
        "is_wrong_path",
        "state",  # 'waiting' | 'ready' | 'executing' | 'completed'
        "pending_deps",
        "dispatch_cycle",
        "complete_cycle",
        "squashed",
        "lq_entry",
        "sq_entry",
        "predicted_taken",
        "predictor_checkpoint",
        "resolved",
        "mispredicted",
        "value",
        "addr",
        "fence_done",
    )

    def __init__(self, op, seq, stream_pos, is_wrong_path, dispatch_cycle):
        self.op = op
        self.seq = seq
        self.stream_pos = stream_pos
        self.is_wrong_path = is_wrong_path
        self.state = "waiting"
        self.pending_deps = 0
        self.dispatch_cycle = dispatch_cycle
        self.complete_cycle = None
        self.squashed = False
        self.lq_entry = None
        self.sq_entry = None
        self.predicted_taken = None
        self.predictor_checkpoint = None
        self.resolved = False
        self.mispredicted = False
        self.value = 0
        self.addr = None
        self.fence_done = False

    @property
    def completed(self):
        return self.state == "completed"

    def __repr__(self):
        return (
            f"ROBEntry(seq={self.seq}, {self.op.kind.value}, {self.state}"
            f"{', WP' if self.is_wrong_path else ''})"
        )


class ReorderBuffer:
    """Bounded in-order queue of :class:`ROBEntry`."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = deque()

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def full(self):
        return len(self._entries) >= self.capacity

    @property
    def empty(self):
        return not self._entries

    def head(self):
        return self._entries[0] if self._entries else None

    def tail(self):
        return self._entries[-1] if self._entries else None

    def push(self, entry):
        if len(self._entries) >= self.capacity:
            raise SimulationError("ROB overflow; caller must check full")
        self._entries.append(entry)

    def pop_head(self):
        if not self._entries:
            raise SimulationError("retiring from empty ROB")
        return self._entries.popleft()

    def squash_after(self, seq):
        """Remove and return every entry with ``entry.seq > seq``.

        Passing ``seq=-1`` flushes the whole ROB.  Returned entries are
        marked squashed, youngest last.
        """
        squashed = []
        while self._entries and self._entries[-1].seq > seq:
            entry = self._entries.pop()
            entry.squashed = True
            squashed.append(entry)
        return squashed

    def find(self, seq):
        for entry in self._entries:
            if entry.seq == seq:
                return entry
        return None
