"""Per-bank MESI directory.

The shared L2 is banked (one bank per core, Table IV), each bank holding an
inclusive slice of the address space plus the directory metadata for its
lines: which L1s share the line and which single L1 (if any) owns it in
M or E.  Directory state transitions are applied atomically when a
transaction is processed; message latencies are layered on top by the
hierarchy.  The one modelled transient window is a dirty write-back: while a
write-back is in flight the directory still names the old owner, which is
exactly the window in which a forwarded Spec-GetS can bounce.
"""

from __future__ import annotations

from ..errors import ProtocolError


class DirectoryEntry:
    """Directory metadata for one line homed at this bank."""

    __slots__ = ("line_addr", "sharers", "owner", "wb_pending_until")

    def __init__(self, line_addr):
        self.line_addr = line_addr
        self.sharers = set()
        self.owner = None  # core id holding the line M/E, or None
        self.wb_pending_until = 0  # cycle when an in-flight writeback lands

    @property
    def cached_anywhere(self):
        return bool(self.sharers) or self.owner is not None

    def writeback_in_flight(self, now):
        return now < self.wb_pending_until

    def __repr__(self):
        return (
            f"DirectoryEntry(0x{self.line_addr:x}, owner={self.owner}, "
            f"sharers={sorted(self.sharers)})"
        )


class Directory:
    """Directory metadata for one L2 bank."""

    def __init__(self, bank_id):
        self.bank_id = bank_id
        self._entries = {}  # line_addr -> DirectoryEntry

    def entry(self, line_addr, create=False):
        entry = self._entries.get(line_addr)
        if entry is None and create:
            entry = DirectoryEntry(line_addr)
            self._entries[line_addr] = entry
        return entry

    def drop(self, line_addr):
        self._entries.pop(line_addr, None)

    def add_sharer(self, line_addr, core_id):
        entry = self.entry(line_addr, create=True)
        if entry.owner == core_id:
            return entry
        entry.sharers.add(core_id)
        return entry

    def set_owner(self, line_addr, core_id):
        entry = self.entry(line_addr, create=True)
        entry.owner = core_id
        entry.sharers.discard(core_id)
        return entry

    def demote_owner(self, line_addr):
        """Owner M/E -> S: the owner becomes a plain sharer."""
        entry = self.entry(line_addr)
        if entry is None or entry.owner is None:
            raise ProtocolError(f"demoting line 0x{line_addr:x} with no owner")
        entry.sharers.add(entry.owner)
        entry.owner = None
        return entry

    def remove_core(self, line_addr, core_id):
        entry = self.entry(line_addr)
        if entry is None:
            return None
        entry.sharers.discard(core_id)
        if entry.owner == core_id:
            entry.owner = None
        return entry

    def sharers_other_than(self, line_addr, core_id):
        """Every other core the directory tracks for the line.

        Returned as a *sorted tuple*: callers iterate it to send
        invalidations, and message order feeds the NoC's accounting and
        ack timing, so set-iteration order must never leak into cycles
        (``reprolint``'s ``unordered-iteration`` rule).
        """
        entry = self.entry(line_addr)
        if entry is None:
            return ()
        others = set(entry.sharers)
        others.discard(core_id)
        if entry.owner is not None and entry.owner != core_id:
            others.add(entry.owner)
        return tuple(sorted(others))

    def __len__(self):
        return len(self._entries)
