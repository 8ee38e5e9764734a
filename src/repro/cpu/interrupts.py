"""Timer interrupts and InvisiSpec's interrupt-delay window (Section VI-D).

Interrupts squash the whole ROB, so they are one of the Futuristic-model
squash sources (Table I).  IS-Future must delay interrupts from the moment
a USL becomes speculative non-squashable until the load reaches the ROB
head; the hardware does this "automatically, transparently and for very
short periods", keeping a minimum enabled window so interrupts never
starve.
"""

from __future__ import annotations


class InterruptUnit:
    """Periodic timer interrupt with a short hardware-disable window."""

    def __init__(self, interval, min_enabled_cycles=64):
        self.interval = interval  # 0 disables the timer entirely
        self.min_enabled_cycles = min_enabled_cycles
        self.next_at = interval if interval else None
        self.disabled = False
        self.pending = False
        self._enabled_since = 0
        self.stat_delayed = 0

    def should_fire(self, now):
        """True if an interrupt must squash the pipeline this cycle."""
        if self.next_at is None:
            return False
        if now >= self.next_at:
            if self.disabled:
                if not self.pending:
                    self.pending = True
                    self.stat_delayed += 1
                return False
            self.pending = False
            while self.next_at <= now:
                self.next_at += self.interval
            return True
        return False

    def disable_until_head(self):
        """Request the disable window; refused if an interrupt is pending
        or the minimum enabled period has not elapsed."""
        if self.disabled:
            return True
        if self.pending:
            return False
        self.disabled = True
        return True

    def on_head_retired(self, now):
        """Re-enable interrupts when the protected load retires."""
        if self.disabled:
            self.disabled = False
            self._enabled_since = now
