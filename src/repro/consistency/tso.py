"""Total Store Order (Section II-B).

TSO forbids all observable reorderings except store->load.  Implementations
keep load->load order by squashing a performed-but-unretired load when its
line is invalidated or evicted; the write buffer is FIFO so stores perform
in order.

For InvisiSpec (Section V-C): a USL that reads while an older load or fence
is still outstanding in the ROB must validate; with the Section V-C1
optimization, a USL whose older loads have all performed *and* completed
their validations may expose instead.
"""

from __future__ import annotations

from ..cpu.lsq import STATE_NORMAL, STATE_VALIDATION
from .model import ConsistencyPolicy


class TSOPolicy(ConsistencyPolicy):
    name = "TSO"
    fifo_write_buffer = True
    reads = frozenset(("fence",))

    def squash_on_invalidation(self, core, lq_entry):
        # Conventional TSO hardware conservatively squashes any performed,
        # not-yet-retired load whose line is invalidated.
        return True

    def usl_needs_validation(self, core, lq_entry, optimization_enabled):
        index = lq_entry.index
        for other in core.lq.live:
            if other.index >= index:
                break
            if not other.valid:
                continue
            if not optimization_enabled:
                return True  # any older load in the ROB forces a validation
            # Section V-C1: the USL may expose only if every older load has
            # (1) received its data and (2) finished any validation it needed.
            if not other.performed:
                return True
            if other.vstate == STATE_VALIDATION and not other.visibility_done:
                return True
            if other.vstate == STATE_NORMAL and other.rob.state != "completed":
                return True
        # An older incomplete fence also forces validation.
        fence_seq = core.min_incomplete_fence_seq()
        if fence_seq is not None and fence_seq < lq_entry.seq:
            return True
        return False
