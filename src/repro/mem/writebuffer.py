"""Post-retirement write buffer.

Retired stores sit here until the consistency model lets them merge into the
cache (perform).  TSO requires FIFO draining with a single store performing
at a time (store→store order); RC may drain out of order and overlap
(Section II-B).
"""

from __future__ import annotations

from collections import deque

from ..errors import SimulationError


class WriteBufferEntry:
    __slots__ = ("addr", "size", "value", "seq", "inflight", "is_release")

    def __init__(self, addr, size, value, seq, is_release=False):
        self.addr = addr
        self.size = size
        self.value = value
        self.seq = seq
        self.inflight = False
        self.is_release = is_release


class WriteBuffer:
    """Bounded store buffer with FIFO (TSO) or relaxed (RC) drain order."""

    def __init__(self, num_entries, fifo=True, max_inflight=None):
        self.num_entries = num_entries
        self.fifo = fifo
        self.max_inflight = max_inflight or (1 if fifo else num_entries)
        self._entries = deque()
        self._inflight = 0  # entries marked in flight and not yet retired

    def __len__(self):
        return len(self._entries)

    @property
    def full(self):
        return len(self._entries) >= self.num_entries

    @property
    def empty(self):
        return not self._entries

    def push(self, addr, size, value, seq, is_release=False):
        if self.full:
            raise SimulationError("write buffer overflow; caller must check full")
        entry = WriteBufferEntry(addr, size, value, seq, is_release)
        self._entries.append(entry)
        return entry

    def drain_candidates(self):
        """Entries eligible to issue a store transaction now.

        FIFO mode: only the head, and only if nothing is in flight.
        Relaxed mode: any non-inflight entry, up to ``max_inflight``,
        except that a release must wait for all earlier entries to leave.
        """
        if not self._entries:
            return []
        inflight = self._inflight
        if inflight >= self.max_inflight:
            return []
        if self.fifo:
            head = self._entries[0]
            return [] if head.inflight else [head]
        candidates = []
        for i, entry in enumerate(self._entries):
            if entry.inflight:
                continue
            if entry.is_release and i > 0:
                continue  # releases drain only once they reach the head
            if self._older_overlap(i, entry):
                continue  # same-address stores perform in order (coherence)
            candidates.append(entry)
            if inflight + len(candidates) >= self.max_inflight:
                break
        return candidates

    def _older_overlap(self, index, entry):
        """True if an earlier buffered store overlaps this entry's bytes."""
        for j, other in enumerate(self._entries):
            if j >= index:
                return False
            if (
                other.addr < entry.addr + entry.size
                and entry.addr < other.addr + other.size
            ):
                return True
        return False

    def mark_inflight(self, entry):
        entry.inflight = True
        self._inflight += 1

    def retire_entry(self, entry):
        """Remove a performed store from the buffer."""
        try:
            self._entries.remove(entry)
        except ValueError:
            raise SimulationError("retiring store not present in write buffer")
        if entry.inflight:
            self._inflight -= 1

    def pending_store_to(self, addr, size, space):
        """Youngest buffered store overlapping [addr, addr+size), if any.

        Used for store→load forwarding from the post-retirement buffer.
        """
        for entry in reversed(self._entries):
            if entry.addr < addr + size and addr < entry.addr + entry.size:
                return entry
        return None

    def entries(self):
        return list(self._entries)
