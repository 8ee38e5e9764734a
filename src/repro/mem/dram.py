"""Main-memory model.

A fixed round-trip latency (Table IV: 50 ns after the L2, i.e. 100 cycles at
2 GHz) plus a simple channel-occupancy model: each request occupies the
channel for ``burst_cycles``, so bursts of InvisiSpec double-accesses queue
up and the contention the paper reports for high-MPKI workloads (libquantum,
GemsFDTD) emerges rather than being assumed.
"""

from __future__ import annotations


class DRAMModel:
    """Single-channel DRAM with fixed access latency and burst occupancy."""

    def __init__(self, latency=100, burst_cycles=4, channels=1, faults=None):
        self.latency = latency
        self.burst_cycles = burst_cycles
        self.channels = channels
        self._busy_until = [0] * channels
        self.stat_accesses = 0
        self.stat_queue_cycles = 0
        #: Optional FaultInjector; consulted per access for ``dram.stall``.
        self.faults = faults

    def access(self, now, line_addr=0):
        """Issue a request at cycle ``now``; returns the data-ready cycle."""
        self.stat_accesses += 1
        channel = line_addr % self.channels if self.channels > 1 else 0
        start = max(now, self._busy_until[channel])
        self.stat_queue_cycles += start - now
        self._busy_until[channel] = start + self.burst_cycles
        ready = start + self.latency
        if self.faults is not None:
            action = self.faults.fire("dram.stall")
            if action is not None:
                ready += action.extra
        return ready

    def reset(self):
        self._busy_until = [0] * self.channels
