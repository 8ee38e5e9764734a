"""Lazy min-seq trackers and the cached visibility point.

The visibility rules (Sections V-A1 and VIII) repeatedly ask questions of
the form "is there an instruction older than seq S that is still
<unresolved / exceptable / uncommitted / unvalidated>?".  Scanning the ROB
per query is O(ROB); instead each condition keeps a min-heap of candidate
entries with lazy deletion.  This is sound because every tracked condition
is *monotone*: once an entry stops satisfying it (or is squashed), it never
satisfies it again.

IS-Future asks the same question of five trackers at once, on every USL
issue, visibility-engine scan and deferred-TLB tick.  :class:`SquashPoint`
caches the answer, the oldest entry active in any of them, and rechecks it
in O(1).  Two facts keep the cache exact:

* entries never become active again, so while the cached entry stays
  active nothing older can be active in any tracker;
* every push is the youngest entry so far (trackers are fed at dispatch),
  so a push can only change the answer when the cache holds none.

The cache is therefore recomputed only when its entry goes inactive, and
a push while it holds none makes the pushed entry the candidate.

Who reads what
--------------

A tracker shrinks only when it is queried, so a tracker nobody reads
would keep every op it was fed alive until the run ends.  Each reader
therefore declares, as a ``reads`` set of tracker names, the trackers it
queries, and the core builds and feeds only their union:

* the scheme policy (:mod:`repro.invisispec.policy`): Base and the fence
  schemes read none, IS-Spectre reads ``branch`` (Section V-A1), and
  IS-Future and IS-Sel read the five :data:`SQUASH_CONDITIONS`;
* the consistency model (:mod:`repro.consistency`): TSO reads ``fence``
  (an older incomplete fence forces a validation) and RC reads ``sync``
  (acquire/release ordering);
* the core itself always reads ``fence``: the execution gate of
  ``Core._on_deps_ready`` and the LFENCE completion of
  ``Core._tick_fences`` query it under every scheme;
* a judge that consults a policy over a core it does not govern (the
  specflow evidence probe and the fuzz harness's dual judge, both on
  Base cores) declares its policies' reads when it attaches, through
  :meth:`repro.cpu.core.Core.attach_load_issue_probe`.  A later reader of
  the trackers, such as a sanitizer check of the visibility point,
  declares its reads the same way.

The :class:`SquashPoint` exists only when all five conditions are read.
Attaching a reader requires an empty ROB, so the trackers it adds start
empty and the "every push is the youngest" rule above still holds.
"""

from __future__ import annotations

import heapq

#: The Section VIII conditions (i)-(v) under which an older instruction
#: can still squash a load: an unresolved branch, an instruction that may
#: still raise, an uncommitted store, an unvalidated load, an incomplete
#: fence.  IS-Future's visibility point is the oldest entry active in any.
SQUASH_CONDITIONS = frozenset(
    ("branch", "exceptable", "store", "unvalidated", "fence")
)


class LazyMinTracker:
    """Min-heap over ROB entries keyed by ``entry.seq``.

    ``is_active(entry)`` must be monotone-decreasing over an entry's
    lifetime.  Squashed entries are always inactive.
    """

    __slots__ = ("_heap", "_is_active")

    def __init__(self, is_active):
        self._heap = []
        self._is_active = is_active

    def push(self, entry):
        heapq.heappush(self._heap, (entry.seq, entry))

    def min_seq(self):
        """Smallest seq still active, or ``None``."""
        # Not written as min_entry(): the fence query runs once per
        # executed op, so it keeps its own loop.
        heap = self._heap
        while heap:
            _seq, entry = heap[0]
            if not entry.squashed and self._is_active(entry):
                return entry.seq
            heapq.heappop(heap)
        return None

    def min_entry(self):
        """The active entry with the smallest seq, or ``None``."""
        heap = self._heap
        while heap:
            entry = heap[0][1]
            if not entry.squashed and self._is_active(entry):
                return entry
            heapq.heappop(heap)
        return None

    def __len__(self):
        return len(self._heap)


class SquashTracker(LazyMinTracker):
    """A tracker that feeds a :class:`SquashPoint`: a push while the
    point holds no entry makes the pushed entry its candidate."""

    __slots__ = ("_cached",)

    def __init__(self, is_active, point):
        super().__init__(is_active)
        # The point's cache cell, not the point: a tracker -> point link
        # would close a reference cycle through ``point.trackers``.
        self._cached = point.cached
        point.trackers.append(self)

    def push(self, entry):
        heapq.heappush(self._heap, (entry.seq, entry))
        cached = self._cached
        if cached[0] is None:
            cached[0] = entry
            cached[1] = self._is_active


class SquashPoint:
    """The oldest entry active in any of its trackers (each a
    :class:`SquashTracker`), cached (see the module docstring)."""

    __slots__ = ("trackers", "cached")

    def __init__(self):
        self.trackers = []
        #: ``[entry, is_active]``: the cached entry (or ``None``) and the
        #: predicate of the tracker it came from.
        self.cached = [None, None]

    def min_seq(self):
        """Smallest seq active in any tracker, or ``None``."""
        cached = self.cached
        entry = cached[0]
        if entry is None:
            return None
        if not entry.squashed and cached[1](entry):
            return entry.seq
        return self._recompute()

    def _recompute(self):
        best = is_active = None
        for tracker in self.trackers:
            candidate = tracker.min_entry()
            if candidate is not None and (
                best is None or candidate.seq < best.seq
            ):
                best = candidate
                is_active = tracker._is_active
        self.cached[:] = best, is_active
        return None if best is None else best.seq
