"""MESI cache-line states.

The private L1s hold lines in M/E/S/I.  The shared L2 is inclusive and its
directory tracks, per line, the set of L1 sharers and the single L1 owner
(a core holding the line in M or E).
"""

from __future__ import annotations

import enum


class MESIState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    def __init__(self, value):
        # Plain member attributes: these predicates sit on every cache
        # access, where a property call per query adds up.
        #: Any valid state serves reads.
        self.readable = value != "I"
        #: M and E may be written without a coherence transaction.
        self.writable = value in ("M", "E")
        #: M must be written back on eviction.
        self.dirty = value == "M"


# Dense member numbers, for tables indexed without hashing an Enum member
# (:func:`repro.coherence.protocol.apply_l1_event`).
for _index, _state in enumerate(MESIState):
    _state.index = _index
del _index, _state
