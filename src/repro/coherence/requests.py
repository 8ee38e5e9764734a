"""Transaction vocabulary: request kinds, requests, completion records.

Extracted from :mod:`repro.coherence.hierarchy` so the declarative
protocol tables (:mod:`repro.coherence.protocol`) and the offline model
checker can name request kinds without importing the full timed
hierarchy.  ``hierarchy`` re-exports everything here, so existing
imports keep working.
"""

from __future__ import annotations

import enum


class RequestKind(enum.Enum):
    LOAD = "load"
    SPEC_LOAD = "spec_load"
    VALIDATE = "validate"
    EXPOSE = "expose"
    STORE = "store"
    PREFETCH = "prefetch"
    SPEC_PREFETCH = "spec_prefetch"

    def __init__(self, value):
        # Plain member attributes, set once: the hierarchy asks these on
        # every request.
        #: Spec-GetS kinds: must change no cache, replacement or
        #: directory state.
        self.invisible = value in ("spec_load", "spec_prefetch")
        #: Reads that install the line like a GetS.
        self.visible_read = value in ("load", "validate", "expose", "prefetch")


# Dense member numbers: per-kind tables on the request path are tuples
# indexed by ``kind.index``, since a dict lookup keyed by an Enum member
# calls the Python-level ``Enum.__hash__``.
for _index, _kind in enumerate(RequestKind):
    _kind.index = _index
del _index, _kind


class MemRequest:
    """One memory transaction submitted by a core."""

    __slots__ = (
        "core_id",
        "addr",
        "size",
        "kind",
        "seq",
        "lq_index",
        "epoch",
        "on_complete",
        "store_value",
        "bounces",
        "accounted",
    )

    def __init__(
        self,
        core_id,
        addr,
        size,
        kind,
        seq=0,
        lq_index=0,
        epoch=0,
        on_complete=None,
        store_value=0,
    ):
        self.core_id = core_id
        self.addr = addr
        self.size = size
        self.kind = kind
        self.seq = seq
        self.lq_index = lq_index
        self.epoch = epoch
        self.on_complete = on_complete
        self.store_value = store_value
        self.bounces = 0
        self.accounted = False


class AccessResult:
    """Completion record handed to ``MemRequest.on_complete``."""

    __slots__ = ("level", "data", "version", "ready_cycle", "bounces")

    def __init__(self, level, data, version, ready_cycle, bounces=0):
        self.level = level  # 'l1' | 'l2' | 'remote_l1' | 'dram' | 'llc_sb' | 'wb'
        self.data = data  # tuple of byte values, or None for stores
        self.version = version
        self.ready_cycle = ready_cycle
        self.bounces = bounces
