"""Cache replacement: true LRU.

A policy instance manages one cache set of ``ways`` slots.  Slots are
identified by way index; the cache array calls :meth:`touch` on every access
and :meth:`victim` when it needs to evict.
"""

from __future__ import annotations


class LRUPolicy:
    """True least-recently-used ordering."""

    __slots__ = ("_order",)

    def __init__(self, ways):
        self._order = list(range(ways))  # index 0 = LRU, last = MRU

    def touch(self, way):
        order = self._order
        order.remove(way)
        order.append(way)

    def victim(self):
        return self._order[0]

    def reset(self, way):
        """Make ``way`` the LRU candidate (used on invalidation)."""
        order = self._order
        order.remove(way)
        order.insert(0, way)

    def state_digest(self):
        """Hashable snapshot of the recency order (sanitizer fingerprints)."""
        return tuple(self._order)
