"""Hierarchical event counters.

A :class:`Counters` object is a flat map of dotted counter names to integer
counts, with helpers for incrementing, ratios, and merging the counters of
several cores into one aggregate.  Every simulator component increments into
the same object so a run's full characterization (Table VI) falls out of one
dictionary.
"""

from __future__ import annotations

from collections import defaultdict


class Counters:
    """Named integer counters with dotted-namespace keys."""

    def __init__(self):
        self._counts = defaultdict(int)

    @property
    def counts(self):
        """The live name -> count mapping (missing names read 0).

        ``counts[name] += n`` is ``bump(name, n)`` without the call, for
        per-cycle hot paths that hold the mapping.
        """
        return self._counts

    def bump(self, name, amount=1):
        self._counts[name] += amount

    def set(self, name, value):
        self._counts[name] = value

    def get(self, name, default=0):
        return self._counts.get(name, default)

    def __getitem__(self, name):
        return self._counts.get(name, 0)

    def __contains__(self, name):
        return name in self._counts

    def ratio(self, numerator, denominator, default=0.0):
        """``numerator / denominator`` counters, or ``default`` if empty."""
        denom = self._counts.get(denominator, 0)
        if not denom:
            return default
        return self._counts.get(numerator, 0) / denom

    def with_prefix(self, prefix):
        """Sub-dictionary of counters under ``prefix.`` (prefix stripped)."""
        dot = prefix + "."
        return {
            key[len(dot):]: value
            for key, value in self._counts.items()
            if key.startswith(dot)
        }

    def merge(self, other):
        """Add another Counters object into this one."""
        for key, value in other._counts.items():
            self._counts[key] += value
        return self

    def as_dict(self):
        return dict(self._counts)

    def __repr__(self):
        return f"Counters({len(self._counts)} keys)"
