"""The visibility engine: validations and exposures.

Implements Sections V-C and V-D:

* Validations/exposures are initiated in program order (a sufficient
  condition for consistency, proven in the paper's appendix).
* Under IS-Future, an issued validation blocks all later validations and
  exposures until it completes; exposures overlap freely.  Under
  IS-Spectre everything overlaps.
* A validation compares the bytes the USL consumed (in the SB) against the
  line's current value; a mismatch squashes the USL and everything younger.
* Early squash (Section V-C2): a USL needing validation is squashed as soon
  as its line is invalidated; and when a validation brings a line in, any
  later same-line USL whose SB bytes no longer match is squashed too.
"""

from __future__ import annotations

from ..coherence.requests import MemRequest, RequestKind
from ..stats.histogram import LatencyHistogram
from .lifecycle import advance_vstate
from ..cpu.lsq import (
    STATE_COMPLETE,
    STATE_DEFERRED,
    STATE_EXPOSURE,
    STATE_NORMAL,
    STATE_VALIDATION,
)


#: vstates that need no visibility action at all.
_SETTLED_STATES = (STATE_COMPLETE, STATE_NORMAL, STATE_DEFERRED)


class VisibilityEngine:
    """Per-core engine issuing validations/exposures for USLs."""

    def __init__(self, core):
        self.core = core
        self._counts = core.counters.counts
        #: Service-latency distribution of validations — the evidence for
        #: the paper's "validation stalls are negligible" claim.
        self.validation_latency = LatencyHistogram()

    # ------------------------------------------------------------ issue scan

    def tick(self):
        """Issue eligible validations/exposures, oldest first."""
        core = self.core
        blocks_overlap = core.policy.validation_blocks_overlap
        for entry in core.lq.live:
            if not entry.valid:
                continue
            state = entry.vstate
            if state is None:
                # A load that has not even resolved yet may still become a
                # USL; issuing past it would break program-order initiation.
                return
            if state in _SETTLED_STATES:
                continue
            if entry.visibility_issued:
                if entry.validation_inflight and blocks_overlap:
                    return  # IS-Future: nothing may pass an in-flight validation
                continue
            # Not yet issued: must wait for the initial Spec-GetS response,
            # and for the visibility point; initiation is in program order,
            # so the first blocked entry stops the scan.
            if not entry.performed:
                return
            if not core.policy.visible_now(core, entry):
                return
            self._issue(entry)
            if entry.vstate == STATE_VALIDATION and blocks_overlap:
                return

    def _issue(self, entry):
        core = self.core
        is_validation = entry.vstate == STATE_VALIDATION
        kind = RequestKind.VALIDATE if is_validation else RequestKind.EXPOSE
        core.wake_requested = True
        entry.visibility_issued = True
        entry.validation_inflight = is_validation
        entry.visibility_issue_cycle = core.kernel.cycle
        # Apply the deferred D-TLB state update (Section VI-E3), and train
        # the hardware prefetcher now that the access is visible (VI-B).
        core.tlb.touch(core.space.page_of(entry.addr))
        core._train_prefetcher(entry.rob.op.pc, entry.addr, lq_entry=entry)
        self._counts[
            "invisispec.validations" if is_validation else "invisispec.exposures"
        ] += 1
        if core.tracelog is not None:
            core.tracelog.record(
                core.kernel.cycle, core.core_id,
                "validate" if is_validation else "expose",
                f"seq={entry.seq} addr=0x{entry.addr:x}",
            )
        request = MemRequest(
            core_id=core.core_id,
            addr=entry.addr,
            size=entry.size,
            kind=kind,
            seq=entry.seq,
            lq_index=entry.index,
            epoch=entry.epoch,
            on_complete=lambda result: self._on_complete(entry, result, is_validation),
        )
        core.hierarchy.submit(request)

    # ------------------------------------------------------------ completion

    def _on_complete(self, entry, result, is_validation):
        core = self.core
        # The LQ entry object is unique to one dynamic load: validity plus
        # the ROB squash flag fully identify a stale completion.
        if not entry.valid or entry.rob.squashed:
            # The load was squashed while the transaction was in flight; the
            # line still landed in the caches, which is harmless under both
            # attack models (Section VI-A2).
            return
        core.wake_requested = True
        if is_validation:
            if entry.visibility_issue_cycle is not None:
                self.validation_latency.record(
                    core.kernel.cycle - entry.visibility_issue_cycle
                )
            self._counts[f"invisispec.validation_level.{result.level}"] += 1
            if result.level == "l1":
                self._counts["invisispec.validations_l1_hit"] += 1
            else:
                self._counts["invisispec.validations_l1_miss"] += 1
            self._finish_validation(entry, result)
        else:
            entry.validation_inflight = False
            entry.visibility_done = True
            advance_vstate(entry, STATE_COMPLETE)
            self._counts[f"invisispec.exposure_level.{result.level}"] += 1

    def _finish_validation(self, entry, result):
        core = self.core
        sb_entry = core.sb.entry(entry.index)
        expected = None
        if sb_entry.valid and sb_entry.lq_index == entry.index:
            offset = core.space.offset_in_line(entry.addr)
            expected = sb_entry.data[offset:offset + entry.size]
        if expected is not None and tuple(result.data) == tuple(expected):
            entry.validation_inflight = False
            entry.visibility_done = True
            advance_vstate(entry, STATE_COMPLETE)
            self._early_squash_same_line(entry)
            return
        self._counts["invisispec.validation_failures"] += 1
        core.squash_load(entry, reason="validation_fail")

    def _early_squash_same_line(self, entry):
        """Section V-C2, second case: the validated line exposes staleness
        in *later* same-line USLs still awaiting validation."""
        core = self.core
        if not core.config.early_squash:
            return
        index = entry.index
        for other in core.lq.loads_to_line(entry.line_addr):
            if other.index <= index or not other.valid:
                continue
            if (
                other.performed
                and other.vstate == STATE_VALIDATION
                and not other.visibility_done
            ):
                other_sb = core.sb.entry(other.index)
                if not other_sb.valid or other_sb.lq_index != other.index:
                    continue
                offset = core.space.offset_in_line(other.addr)
                used = other_sb.data[offset:offset + other.size]
                if not core.image.matches(other.addr, other.size, used):
                    self._counts["invisispec.early_squash_sibling"] += 1
                    core.squash_load(other, reason="consistency")
                    return

    # ------------------------------------------------------- invalidation hook

    def on_invalidation(self, line_addr):
        """Section V-C2, first case: an invalidation hits a line whose USL
        still needs validation — squash it now, the validation would fail."""
        core = self.core
        if not core.config.early_squash:
            return
        for entry in core.lq.loads_to_line(line_addr):
            if (
                entry.valid
                and entry.performed
                and entry.vstate == STATE_VALIDATION
                and not entry.visibility_done
                and not entry.rob.is_wrong_path
            ):
                self._counts["invisispec.early_squash_invalidation"] += 1
                core.squash_load(entry, reason="consistency")
                return

    # ----------------------------------------------------------- USL classify

    def classify(self, lq_entry):
        """E or V per the consistency model (Section V-C)."""
        needs_validation = self.core.consistency.usl_needs_validation(
            self.core, lq_entry, self.core.config.val_to_exp_optimization
        )
        return STATE_VALIDATION if needs_validation else STATE_EXPOSURE
