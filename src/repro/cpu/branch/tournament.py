"""Tournament branch predictor (Table IV).

A local predictor (per-PC history indexing 2-bit counters), a global
predictor (global history register indexing 2-bit counters), and a chooser
(2-bit counters selecting local vs global per global-history index).  This
is a real, trainable structure: attacker code mistrain it exactly as the
Spectre PoC requires, and its accuracy on the synthetic workloads sets each
app's squash rate.

Prediction is made at dispatch with the speculative global history; history
is repaired on a squash using the checkpoint taken at prediction time.
"""

from __future__ import annotations

from array import array


class TournamentPredictor:
    """Local + global + chooser, gem5-style."""

    def __init__(
        self,
        local_history_entries=1024,
        local_history_bits=10,
        local_counter_entries=1024,
        global_history_bits=12,
    ):
        self.local_history_entries = local_history_entries
        self.local_history_bits = local_history_bits
        self.local_history_mask = (1 << local_history_bits) - 1
        self.local_counter_entries = local_counter_entries
        self.global_history_bits = global_history_bits
        self.global_history_mask = (1 << global_history_bits) - 1

        self._local_history = [0] * local_history_entries
        self._local_counters = [1] * local_counter_entries  # weakly not-taken
        self._global_counters = [1] * (1 << global_history_bits)
        self._choice_counters = [1] * (1 << global_history_bits)  # prefer local
        self.global_history = 0

        self.stat_lookups = 0
        self.stat_mispredicts = 0

    # ------------------------------------------------------------ interface
    #
    # predict() and update() run once per branch in pre-training and in the
    # pipeline, so they index and saturate the 2-bit counters inline: the
    # local history slot is ``(pc >> 2) % local_history_entries``, its
    # counter ``history % local_counter_entries``, and a counter moves one
    # step toward the outcome within [0, 3].

    def predict(self, pc):
        """Predict direction; returns ``(taken, checkpoint)``.

        The checkpoint captures the speculative global history so it can be
        restored when the branch squashes.
        """
        self.stat_lookups += 1
        history = self.global_history
        local_taken = self._local_counters[
            self._local_history[(pc >> 2) % self.local_history_entries]
            % self.local_counter_entries
        ] >= 2
        global_taken = self._global_counters[history] >= 2
        taken = (
            global_taken if self._choice_counters[history] >= 2 else local_taken
        )
        # Speculatively update global history with the prediction.
        self.global_history = ((history << 1) | taken) & self.global_history_mask
        return taken, (history, local_taken, global_taken)

    def update(self, pc, taken, checkpoint, mispredicted):
        """Train on the architectural outcome at branch resolution."""
        history_at_predict, local_taken, global_taken = checkpoint
        # Chooser trains toward whichever component was right.
        if local_taken != global_taken:
            choice = self._choice_counters
            counter = choice[history_at_predict]
            if global_taken == taken:
                choice[history_at_predict] = counter + 1 if counter < 3 else 3
            else:
                choice[history_at_predict] = counter - 1 if counter > 0 else 0
        global_counters = self._global_counters
        local_counters = self._local_counters
        local_history = self._local_history
        lhi = (pc >> 2) % self.local_history_entries
        local = local_history[lhi]
        lci = local % self.local_counter_entries
        global_counter = global_counters[history_at_predict]
        local_counter = local_counters[lci]
        if taken:
            global_counters[history_at_predict] = (
                global_counter + 1 if global_counter < 3 else 3
            )
            local_counters[lci] = local_counter + 1 if local_counter < 3 else 3
        else:
            global_counters[history_at_predict] = (
                global_counter - 1 if global_counter > 0 else 0
            )
            local_counters[lci] = local_counter - 1 if local_counter > 0 else 0
        bit = int(taken)
        local_history[lhi] = ((local << 1) | bit) & self.local_history_mask
        if mispredicted:
            self.stat_mispredicts += 1
            # Repair global history: redo the shift with the real outcome.
            self.global_history = (
                (history_at_predict << 1) | bit
            ) & self.global_history_mask

    def squash_restore(self, checkpoint):
        """Restore speculative history for squashed-but-unresolved branches."""
        history_at_predict, _lt, _gt = checkpoint
        self.global_history = history_at_predict

    # ------------------------------------------------------------ snapshots

    @property
    def geometry(self):
        """The constructor arguments: ``TournamentPredictor(*geometry)``."""
        return (
            self.local_history_entries, self.local_history_bits,
            self.local_counter_entries, self.global_history_bits,
        )

    def snapshot(self):
        """Immutable, compact copy of the trained state (not the stats).

        The three 2-bit counter tables are ``bytes``, the local histories
        the ``bytes`` of an ``array('H')``, plus the global history.
        """
        return (
            array("H", self._local_history).tobytes(),
            bytes(self._local_counters),
            bytes(self._global_counters),
            bytes(self._choice_counters),
            self.global_history,
        )

    def restore(self, snapshot):
        """Load a :meth:`snapshot` of a predictor of the same geometry.

        Every table is a new list, so training this predictor afterwards
        never writes into ``snapshot`` or into any other predictor.
        """
        local_history, local, global_, choice, global_history = snapshot
        self._local_history = list(array("H", local_history))
        self._local_counters = list(local)
        self._global_counters = list(global_)
        self._choice_counters = list(choice)
        self.global_history = global_history

    @property
    def accuracy(self):
        if not self.stat_lookups:
            return 1.0
        return 1.0 - self.stat_mispredicts / self.stat_lookups
