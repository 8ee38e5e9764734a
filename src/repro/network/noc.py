"""Network-on-chip latency and traffic model.

Latency: ``hop_latency`` cycles per mesh hop (X-Y routing).  Traffic: the
paper's Figures 6 and 8 report "total number of bytes transmitted between
caches, or between cache and main memory", broken into the bytes induced by
speculative loads (SpecLoad), by exposures/validations (Expose/Validate),
and by everything else.  The NoC tags every message with one of those
:class:`TrafficCategory` values and accumulates bytes per category; a
bytes*hops counter is kept as well for link-utilization ablations.
"""

from __future__ import annotations

import enum

from .topology import MeshTopology

#: A dropped message is modeled as this many cycles of delay — far beyond
#: any sane per-cell cycle budget, so the watchdog converts it into a
#: :class:`~repro.errors.SimTimeoutError` rather than a silent wrong result.
#: Defined here, not in :mod:`repro.reliability.faults` (which re-exports
#: it), so the simulator never imports the reliability package.
DROPPED_MESSAGE_DELAY = 10**9


class TrafficCategory(enum.Enum):
    """Breakdown used by Figures 6 and 8."""

    NORMAL = "normal"
    SPECLOAD = "specload"
    EXPOSE_VALIDATE = "expose_validate"


# Dense member numbers: the NoC counts bytes in a list indexed by
# ``category.index`` rather than in a dict keyed by the Enum member, whose
# ``__hash__`` is a Python-level call on every message.
for _index, _category in enumerate(TrafficCategory):
    _category.index = _index
del _index, _category


class NoC:
    """Mesh interconnect: computes delays, accounts traffic."""

    def __init__(self, params, faults=None):
        self.params = params
        self.topology = MeshTopology(params.mesh_cols, params.mesh_rows)
        # send() indexes the topology's hop table directly, without the
        # node check of MeshTopology.hops: its callers (the hierarchy and
        # the fetch models) send only between nodes of this mesh.
        self._nodes = self.topology.num_nodes
        self._hops = self.topology.hop_table
        self.hop_latency = params.hop_latency
        self.control_bytes = params.control_message_bytes
        self.data_bytes = params.data_message_bytes
        self._bytes = [0] * len(TrafficCategory)
        self.byte_hops = 0
        self.messages = 0
        #: Optional FaultInjector; consulted per message for the
        #: ``noc.drop`` and ``noc.delay`` sites.
        self.faults = faults
        self.stat_delayed = 0

    def delay(self, src_node, dst_node):
        """One-way latency in cycles between two mesh nodes."""
        return self.topology.hops(src_node, dst_node) * self.hop_latency

    def round_trip(self, src_node, dst_node):
        return 2 * self.delay(src_node, dst_node)

    def send(self, src_node, dst_node, is_data, category):
        """Account one message; returns its one-way latency in cycles."""
        size = self.data_bytes if is_data else self.control_bytes
        hops = self._hops[src_node * self._nodes + dst_node]
        self._bytes[category.index] += size
        self.byte_hops += size * hops
        self.messages += 1
        latency = hops * self.hop_latency
        if self.faults is not None:
            # A dropped message never arrives: model as a delay beyond any
            # sane cycle budget, so the dependent transaction stalls until
            # the watchdog raises SimTimeoutError.
            if self.faults.fire("noc.drop") is not None:
                return DROPPED_MESSAGE_DELAY
            action = self.faults.fire("noc.delay")
            if action is not None:
                self.stat_delayed += 1
                latency += action.extra
        return latency

    @property
    def bytes_by_category(self):
        """Bytes sent per :class:`TrafficCategory`."""
        return {cat: self._bytes[cat.index] for cat in TrafficCategory}

    @property
    def total_bytes(self):
        return sum(self._bytes)

    def traffic_breakdown(self):
        """Bytes per category, keyed by category value string."""
        return {cat.value: self._bytes[cat.index] for cat in TrafficCategory}

    def reset_stats(self):
        self._bytes = [0] * len(TrafficCategory)
        self.byte_hops = 0
        self.messages = 0
