"""Set-associative cache array with LRU replacement.

Each set is one dict from line address to :class:`CacheLineEntry`, kept in
recency order: the least recently used line first, the most recently used
last.  A touching lookup moves its line to the end, an insert into a full
set evicts the first line, and an invalidation pops its line, so the dict's
order *is* the set's replacement state.  Coherence state (MESI) lives in
the entry; the array itself is protocol-agnostic.  Evictions are reported
to the caller, which is responsible for write-backs and for notifying the
core (the baseline processor squashes in-flight loads whose line is
evicted, a detail the paper leans on in Section IX-C).
"""

from __future__ import annotations

from ..errors import SimulationError


class CacheLineEntry:
    """One resident cache line."""

    __slots__ = ("line_addr", "state")

    def __init__(self, line_addr, state):
        self.line_addr = line_addr
        self.state = state

    def __repr__(self):
        return f"CacheLineEntry(0x{self.line_addr:x}, {self.state})"


class CacheArray:
    """Tag/state array with LRU replacement.

    ``params`` is a :class:`repro.params.CacheParams`.
    """

    def __init__(self, params):
        self.params = params
        self.num_sets = params.num_sets
        self.ways = params.ways
        self.line_bytes = params.line_bytes
        self._line_shift = params.line_bytes.bit_length() - 1
        # line_addr -> entry, least recently used first
        self._sets = [dict() for _ in range(self.num_sets)]
        self._count = 0  # resident lines, maintained by insert/invalidate

    def set_index(self, line_addr):
        return (line_addr >> self._line_shift) % self.num_sets

    def lookup(self, line_addr, touch=True):
        """Return the entry for ``line_addr`` or ``None``.

        ``touch=False`` performs a state probe without updating replacement
        metadata — this is what makes invisible (Spec-GetS) accesses leave
        no replacement footprint.
        """
        cset = self._sets[self.set_index(line_addr)]
        if not touch:
            return cset.get(line_addr)
        entry = cset.pop(line_addr, None)
        if entry is not None:
            cset[line_addr] = entry
        return entry

    def contains(self, line_addr):
        return line_addr in self._sets[self.set_index(line_addr)]

    def insert(self, line_addr, state):
        """Install a line; returns ``(entry, evicted_entry_or_None)``.

        The caller must handle the victim (write-back, squash checks)
        *before* relying on the new entry being visible.
        """
        cset = self._sets[self.set_index(line_addr)]
        if line_addr in cset:
            raise SimulationError(f"line 0x{line_addr:x} already resident")
        victim = None
        if len(cset) < self.ways:
            self._count += 1
        else:
            victim = cset.pop(next(iter(cset)))
        entry = cset[line_addr] = CacheLineEntry(line_addr, state)
        return entry, victim

    def invalidate(self, line_addr):
        """Drop a line (coherence invalidation); returns the entry or None."""
        entry = self._sets[self.set_index(line_addr)].pop(line_addr, None)
        if entry is not None:
            self._count -= 1
        return entry

    def resident_lines(self):
        """All resident line addresses (diagnostics and attack receivers)."""
        for cset in self._sets:
            yield from cset.keys()

    def flush_all(self):
        """Invalidate every line (e.g. attacker's clflush loop)."""
        flushed = [e for cset in self._sets for e in cset.values()]
        for entry in flushed:
            self.invalidate(entry.line_addr)
        return flushed

    @property
    def occupancy(self):
        return self._count

    def set_digest(self, line_addr):
        """Hashable fingerprint of the set ``line_addr`` maps to.

        The set's lines and their coherence states, in recency order: its
        tags, states *and* replacement state, everything an invisible
        (Spec-GetS) access is forbidden to change.  Used by the runtime
        sanitizer to prove a USL left no footprint.
        """
        return tuple(
            (addr, entry.state.name)
            for addr, entry in self._sets[self.set_index(line_addr)].items()
        )
