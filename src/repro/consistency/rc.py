"""Release Consistency (Section II-B).

RC allows any reordering except across synchronization: loads/stores may
not be reordered with a prior acquire or a subsequent release.  RC cores
squash a performed load on an incoming invalidation only when an older
non-retired acquire exists, and drain the write buffer out of order.

For InvisiSpec, only USLs that read under an older outstanding
acquire/fence must validate; nearly all loads expose (Section V-C), which
is why the paper sees almost no validations under RC.
"""

from __future__ import annotations

from .model import ConsistencyPolicy


class RCPolicy(ConsistencyPolicy):
    name = "RC"
    fifo_write_buffer = False
    reads = frozenset(("sync",))

    def _older_sync(self, core, seq):
        sync_seq = core.min_incomplete_sync_seq()
        return sync_seq is not None and sync_seq < seq

    def squash_on_invalidation(self, core, lq_entry):
        return self._older_sync(core, lq_entry.seq)

    def usl_needs_validation(self, core, lq_entry, optimization_enabled):
        return self._older_sync(core, lq_entry.seq)
