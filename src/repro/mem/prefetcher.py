"""Stride prefetcher.

A classic per-PC stride table.  Under InvisiSpec, speculative *hardware*
prefetching is disabled for security (Section VI-B): the core only trains
and triggers the prefetcher when an access is made visible, never from a
USL's first (invisible) access.  The core enforces that policy; this module
just implements the table.
"""

from __future__ import annotations


class StrideEntry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, last_addr):
        self.last_addr = last_addr
        self.stride = 0
        self.confidence = 0


class StridePrefetcher:
    """Per-PC stride detection with confidence-gated issue."""

    def __init__(self, table_entries=64, degree=1, threshold=2, line_bytes=64):
        self.table_entries = table_entries
        self.degree = degree
        self.threshold = threshold
        self.line_bytes = line_bytes
        self._table = {}  # pc -> StrideEntry

    def train(self, pc, addr):
        """Observe a demand access; returns a list of prefetch addresses."""
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_entries:
                self._table.pop(next(iter(self._table)))
            self._table[pc] = StrideEntry(addr)
            return []
        stride = addr - entry.last_addr
        if stride == entry.stride and stride != 0:
            entry.confidence = min(entry.confidence + 1, 3)
        else:
            entry.confidence = max(entry.confidence - 1, 0)
            entry.stride = stride
        entry.last_addr = addr
        if entry.confidence >= self.threshold and entry.stride:
            prefetches = [
                addr + entry.stride * (i + 1) for i in range(self.degree)
            ]
            return [a for a in prefetches if a >= 0]
        return []
