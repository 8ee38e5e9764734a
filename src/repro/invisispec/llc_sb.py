"""Per-core LLC Speculative Buffer (Sections V-F and VI-C).

A circular buffer next to the LLC with one entry per LQ slot.  When a USL's
Spec-GetS misses in the LLC and reads main memory, a copy of the line is
deposited here so the later validation/exposure of the same load avoids a
second DRAM access.

Epoch IDs make the buffer robust to squash/reissue races: the core bumps
its epoch on every squash, every message carries the issuing epoch, and an
entry is never overwritten by a request from an *older* epoch nor matched
by a request with a different epoch.  A USL is also never allowed to *read*
from the LLC-SB — only validations/exposures are — so squashed loads leave
no reusable footprint (Section VII).
"""

from __future__ import annotations


class LLCSBEntry:
    __slots__ = ("valid", "line_addr", "epoch")

    def __init__(self):
        self.valid = False
        self.line_addr = None
        self.epoch = -1


class LLCSpeculativeBuffer:
    """One core's LLC-SB: LQ-indexed circular buffer of (line, epoch)."""

    def __init__(self, capacity, access_latency=8):
        self.capacity = capacity
        self.access_latency = access_latency
        self._slots = [LLCSBEntry() for _ in range(capacity)]
        self._line_counts = {}  # line_addr -> valid slots holding it
        self.stat_inserts = 0

    def _slot(self, lq_index):
        return self._slots[lq_index % self.capacity]

    def insert(self, lq_index, line_addr, epoch):
        """Deposit a line fetched from memory by a Spec-GetS.

        Dropped if the slot already holds data from a *newer* epoch: the
        inserting request is stale (it was issued before a squash that has
        since recycled this LQ slot).
        """
        slot = self._slot(lq_index)
        if slot.valid:
            if slot.epoch > epoch:
                return False
            self._forget(slot.line_addr)
        counts = self._line_counts
        counts[line_addr] = counts.get(line_addr, 0) + 1
        slot.valid = True
        slot.line_addr = line_addr
        slot.epoch = epoch
        self.stat_inserts += 1
        return True

    def match(self, lq_index, line_addr, epoch):
        """Validation/exposure probe: address and epoch must both match."""
        slot = self._slot(lq_index)
        # A hit consumes the entry: the line is moving into the LLC and the
        # hierarchy purges it from every LLC-SB right after this.
        return slot.valid and slot.line_addr == line_addr and slot.epoch == epoch

    def invalidate_line(self, line_addr):
        """Purge any entry holding ``line_addr`` (another core touched it,
        or the line was installed in / evicted from the LLC)."""
        if line_addr not in self._line_counts:
            return
        del self._line_counts[line_addr]
        for slot in self._slots:
            if slot.valid and slot.line_addr == line_addr:
                slot.valid = False

    def _forget(self, line_addr):
        """One valid slot of ``line_addr`` is being overwritten."""
        counts = self._line_counts
        left = counts[line_addr] - 1
        if left:
            counts[line_addr] = left
        else:
            del counts[line_addr]

    def valid_lines(self):
        return [s.line_addr for s in self._slots if s.valid]
