"""Miss status holding registers.

One MSHR per outstanding line-granularity miss; secondary misses to the same
line register as extra targets on the primary entry.  InvisiSpec restricts
which requests may merge into an existing MSHR (a load may never reuse state
allocated by a *younger* USL, Section VII); that policy check lives in the
core — the MSHR file just exposes allocation, target merging and completion.
"""

from __future__ import annotations

from ..errors import SimulationError


class MSHREntry:
    """An outstanding miss for one cache line."""

    __slots__ = ("line_addr", "allocator_seq", "speculative", "targets", "issued_cycle")

    def __init__(self, line_addr, allocator_seq, speculative, issued_cycle):
        self.line_addr = line_addr
        #: Program-order sequence number of the instruction that allocated
        #: the entry; used for the "no reuse of younger USL state" rule.
        self.allocator_seq = allocator_seq
        self.speculative = speculative
        self.targets = []
        self.issued_cycle = issued_cycle

    def add_target(self, target):
        self.targets.append(target)


class MSHRFile:
    """Fixed-size pool of :class:`MSHREntry`."""

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self._entries = {}  # line_addr -> MSHREntry
        self.stat_merges = 0
        self.stat_full_stalls = 0

    def __len__(self):
        return len(self._entries)

    @property
    def full(self):
        return len(self._entries) >= self.num_entries

    def lookup(self, line_addr):
        return self._entries.get(line_addr)

    def allocate(self, line_addr, allocator_seq, speculative, cycle):
        if self.full:
            self.stat_full_stalls += 1
            return None
        if line_addr in self._entries:
            raise SimulationError(f"MSHR for 0x{line_addr:x} already allocated")
        entry = MSHREntry(line_addr, allocator_seq, speculative, cycle)
        self._entries[line_addr] = entry
        return entry

    def merge(self, line_addr, target):
        """Attach a secondary miss to the in-flight entry."""
        entry = self._entries[line_addr]
        entry.add_target(target)
        self.stat_merges += 1
        return entry

    def complete(self, line_addr):
        """Remove and return the entry when its fill arrives."""
        entry = self._entries.pop(line_addr, None)
        if entry is None:
            raise SimulationError(f"completing absent MSHR 0x{line_addr:x}")
        return entry

    def clear(self):
        """Drop every outstanding entry (the run that owned them is over)."""
        self._entries.clear()

    def discard(self, line_addr):
        """Drop an entry without completing it (squash of the allocator
        with no surviving targets)."""
        self._entries.pop(line_addr, None)

    def outstanding_lines(self):
        """Outstanding line addresses, sorted so scans are order-stable."""
        return sorted(self._entries.keys())
