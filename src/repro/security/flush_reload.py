"""FLUSH+RELOAD receiver (Section III-A).

The receiver flushes a set of monitored lines, lets the victim run, then
reloads each line and times it: a fast reload means the victim (or its
transient instructions) touched the line.
"""

from __future__ import annotations

from .channel import AttackContext


class FlushReloadReceiver:
    """Monitors a list of addresses with FLUSH+RELOAD."""

    #: Reload latencies at or below this are classified as cache hits; the
    #: L2 round trip is 8 cycles and DRAM is 100+, so anything under ~40
    #: means the line was somewhere on chip.
    HIT_THRESHOLD_CYCLES = 40

    def __init__(self, context, core_id, monitored_addrs):
        self.context = context
        self.core_id = core_id
        self.monitored_addrs = list(monitored_addrs)

    def flush(self):
        for addr in self.monitored_addrs:
            self.context.flush(addr)

    def reload(self):
        """Timed reload of every monitored address, in order.

        Returns a list of latencies aligned with ``monitored_addrs``.
        """
        return [
            self.context.probe_latency(self.core_id, addr)
            for addr in self.monitored_addrs
        ]

    def hits(self, latencies=None):
        """Indices whose reload classified as a hit."""
        if latencies is None:
            latencies = self.reload()
        return [
            i
            for i, latency in enumerate(latencies)
            if latency <= self.HIT_THRESHOLD_CYCLES
        ]


def run_flush_reload(prepare, secret, monitored_addrs, config, seed=0,
                     sanitize=None):
    """A single-core FLUSH+RELOAD attack on a fresh machine.

    ``prepare(context, secret)`` is the PoC's pre-leak phase (it flushes
    the monitored lines); the leak phase it returns runs on core 0, then
    core 0 reloads every monitored line.  Returns ``(latencies, hits)``.
    """
    with AttackContext(config, seed=seed, sanitize=sanitize) as context:
        receiver = FlushReloadReceiver(context, 0, monitored_addrs)
        context.run_ops(0, *prepare(context, secret))
        latencies = receiver.reload()
    return latencies, receiver.hits(latencies)
