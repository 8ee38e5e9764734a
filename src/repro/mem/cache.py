"""Set-associative cache array.

The array stores :class:`CacheLineEntry` objects keyed by line address and
tracks replacement state per set.  Coherence state (MESI) lives in the entry;
the array itself is protocol-agnostic.  Evictions are reported to the caller,
which is responsible for write-backs and for notifying the core (the
baseline processor squashes in-flight loads whose line is evicted, a detail
the paper leans on in Section IX-C).
"""

from __future__ import annotations

from ..errors import SimulationError
from .replacement import LRUPolicy


class CacheLineEntry:
    """One resident cache line."""

    __slots__ = ("line_addr", "state", "way")

    def __init__(self, line_addr, state, way):
        self.line_addr = line_addr
        self.state = state
        self.way = way

    def __repr__(self):
        return f"CacheLineEntry(0x{self.line_addr:x}, {self.state}, way={self.way})"


class CacheArray:
    """Tag/state array with LRU replacement.

    ``params`` is a :class:`repro.params.CacheParams`; ``invalid_state`` is
    the protocol's INVALID sentinel stored in freshly-reset entries.
    """

    def __init__(self, params, invalid_state):
        self.params = params
        self.invalid_state = invalid_state
        self.num_sets = params.num_sets
        self.ways = params.ways
        self.line_bytes = params.line_bytes
        self._line_shift = params.line_bytes.bit_length() - 1
        self._sets = [dict() for _ in range(self.num_sets)]  # line_addr -> entry
        # Free ways and replacement state of each set, made on the set's
        # first use (_open_set): most sets of a large L2 are never touched,
        # and a simulator build should not pay for them.
        self._free_ways = [None] * self.num_sets
        self._repl = [None] * self.num_sets
        self._count = 0  # resident lines, maintained by insert/invalidate
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_evictions = 0

    def _open_set(self, idx):
        """The replacement policy of set ``idx``, creating its state on
        first use exactly as an eagerly built set would start."""
        repl = self._repl[idx]
        if repl is None:
            self._free_ways[idx] = list(range(self.ways))
            repl = self._repl[idx] = LRUPolicy(self.ways)
        return repl

    def set_index(self, line_addr):
        return (line_addr >> self._line_shift) % self.num_sets

    def lookup(self, line_addr, touch=True):
        """Return the entry for ``line_addr`` or ``None``.

        ``touch=False`` performs a state probe without updating replacement
        metadata — this is what makes invisible (Spec-GetS) accesses leave
        no replacement footprint.
        """
        entry = self._sets[self.set_index(line_addr)].get(line_addr)
        if entry is not None and touch:
            self._repl[self.set_index(line_addr)].touch(entry.way)
        return entry

    def contains(self, line_addr):
        return line_addr in self._sets[self.set_index(line_addr)]

    def insert(self, line_addr, state):
        """Install a line; returns ``(entry, evicted_entry_or_None)``.

        The caller must handle the victim (write-back, squash checks)
        *before* relying on the new entry being visible.
        """
        idx = self.set_index(line_addr)
        cset = self._sets[idx]
        if line_addr in cset:
            raise SimulationError(f"line 0x{line_addr:x} already resident")
        victim = None
        repl = self._open_set(idx)
        free = self._free_ways[idx]
        if free:
            way = free.pop()
        else:
            way = repl.victim()
            victim = self._victim_entry(idx, way)
            del cset[victim.line_addr]
            self.stat_evictions += 1
        entry = CacheLineEntry(line_addr, state, way)
        cset[line_addr] = entry
        if victim is None:
            self._count += 1
        repl.touch(way)
        return entry, victim

    def _victim_entry(self, idx, way):
        for entry in self._sets[idx].values():
            if entry.way == way:
                return entry
        raise SimulationError(f"replacement chose unoccupied way {way} in set {idx}")

    def invalidate(self, line_addr):
        """Drop a line (coherence invalidation); returns the entry or None."""
        idx = self.set_index(line_addr)
        entry = self._sets[idx].pop(line_addr, None)
        if entry is not None:
            self._count -= 1
            self._free_ways[idx].append(entry.way)
            self._repl[idx].reset(entry.way)
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

        Captures the tags, coherence states, way assignments *and* the
        replacement-policy state of the set — everything an invisible
        (Spec-GetS) access is forbidden to change.  Used by the runtime
        sanitizer to prove a USL left no footprint.
        """
        idx = self.set_index(line_addr)
        entries = tuple(sorted(
            (addr, entry.state.name, entry.way)
            for addr, entry in self._sets[idx].items()
        ))
        return entries, self._open_set(idx).state_digest()
