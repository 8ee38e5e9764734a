"""The load engine: InvisiSpec's USL path, validations and exposures.

An IS scheme's policy builds one per core; Base and the fence schemes
build none.  The engine owns the core's SB, its deferred-TLB loads and
its SB-merge waiters, and implements Sections V-C to V-E and VI-E3:

* A USL probes the D-TLB without updating it; a miss defers the walk to
  the visibility point.  An issued USL is classified E or V, then copies
  an older same-line USL's SB line, waits for its fill, or sends a
  Spec-GetS that fills its own.
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
from .sb import SpeculativeBuffer
from ..cpu.lsq import (
    STATE_COMPLETE,
    STATE_DEFERRED,
    STATE_EXPOSURE,
    STATE_NORMAL,
    STATE_VALIDATION,
)
from ..cpu.tracking import LazyMinTracker


#: vstates that need no visibility action at all.
_SETTLED_STATES = (STATE_COMPLETE, STATE_NORMAL, STATE_DEFERRED)


class VisibilityEngine:
    """Per-core engine: USL issue, the SB, validations and exposures."""

    def __init__(self, core):
        self.core = core
        self._counts = core.counters.counts
        self.sb = SpeculativeBuffer(
            core.params.core.load_queue_entries, core.space.line_bytes
        )
        #: SB-merge waiters (Section V-E): source LQ virtual index -> the
        #: younger USLs waiting for its line.  The sanitizer reads it.
        self.sb_waiters = {}
        # Loads whose TLB miss deferred them to their visibility point.  A
        # retired entry no longer points at its (dead) LQ entry.
        self._deferred = LazyMinTracker(
            lambda e: e.lq_entry is not None
            and e.lq_entry.valid
            and e.lq_entry.vstate == STATE_DEFERRED
        )
        #: Service-latency distribution of validations — the evidence for
        #: the paper's "validation stalls are negligible" claim.
        self.validation_latency = LatencyHistogram()

    # ------------------------------------------------------------ core hooks

    def load_dispatched(self, lq_index):
        self.sb.allocate(lq_index)

    def load_retired(self, lq_index):
        self.sb.invalidate(lq_index)

    def load_squashed(self, lq_index):
        self.sb.invalidate(lq_index)
        self.sb_waiters.pop(lq_index, None)

    # ------------------------------------------------------------- USL issue

    def start_usl(self, entry, lq_entry):
        """Probe the D-TLB for a USL without touching its state.  True on
        a hit: the core issues it now.  A miss waits for the visibility
        point (Section VI-E3)."""
        core = self.core
        if core.monitor is not None:
            # The whole USL issue sequence (TLB probe, classification,
            # forwarding scan, Spec-GetS submit) must leave the TLB and
            # prefetcher untouched until the visibility point.
            core.monitor.open_usl_window(core, entry.seq)
        if core.tlb.lookup(core.space.page_of(lq_entry.addr), update_state=False):
            return True
        advance_vstate(lq_entry, STATE_DEFERRED)
        lq_entry.issued = True
        self._deferred.push(entry)
        self._counts["invisispec.tlb_deferred"] += 1
        if core.monitor is not None:
            core.monitor.close_usl_window(core, entry.seq, "usl_deferred")
        return False

    def issue_usl(self, entry, lq_entry, forwarded):
        """The USL half of the core's load issue (``forwarded``: by a store)."""
        core = self.core
        is_prefetch = lq_entry.prefetch
        # E or V per the consistency model (Section V-C); a prefetch is E.
        needs_validation = not is_prefetch and core.consistency.usl_needs_validation(
            core, lq_entry, core.config.val_to_exp_optimization
        )
        advance_vstate(
            lq_entry, STATE_VALIDATION if needs_validation else STATE_EXPOSURE
        )
        self._counts["invisispec.usls"] += 1
        if core.monitor is not None:
            # Closed before the forwarding cascade below: a forwarded value
            # can wake a dependent store whose own (visible) TLB access is
            # legitimate.
            core.monitor.close_usl_window(core, entry.seq, "usl_issued")

        space = core.space
        addr, size = lq_entry.addr, lq_entry.size
        if forwarded:
            self.sb.forward_from_store(
                lq_entry.index, lq_entry.line_addr, space.offset_in_line(addr),
                [(entry.value >> (8 * i)) & 0xFF for i in range(size)],
            )
            # The forwarded value completes the load; the Spec-GetS below
            # still runs to populate the SB line (Section VI-A2).
            core._finish_load_local(entry, lq_entry)

        older = core.lq.older_pending_request(lq_entry, lq_entry.line_addr)
        if older is not None and not forwarded:
            src_sb = self.sb.entry(older.index)
            if src_sb.valid and src_sb.lq_index == older.index and older.performed:
                # Section V-E: copy the line the older USL already brought.
                dst = self.sb.copy(
                    older.index, lq_entry.index, space.byte_mask(addr, size)
                )
                self._counts["invisispec.sb_hits"] += 1
                offset = space.offset_in_line(addr)
                core._finish_load_value(
                    entry, lq_entry, dst.data[offset:offset + size]
                )
                return
            # Wait for the older USL's line to arrive, then copy.
            self._counts["invisispec.sb_merge_waits"] += 1
            self.sb_waiters.setdefault(older.index, []).append(entry)
            return

        self._counts["invisispec.sb_misses"] += 1
        core._submit_load(
            entry, lq_entry,
            RequestKind.SPEC_PREFETCH if is_prefetch else RequestKind.SPEC_LOAD,
            self._on_line,
        )

    def _on_line(self, entry, lq_entry, result):
        """Spec-GetS reply: fill the SB line, serve its waiters, deliver."""
        if entry.squashed or not lq_entry.valid:
            return
        core = self.core
        space = core.space
        slot = self.sb.fill(
            lq_entry.index,
            lq_entry.line_addr,
            core.hierarchy.image.read_bytes(lq_entry.line_addr, space.line_bytes),
            result.version,
            space.byte_mask(lq_entry.addr, lq_entry.size),
        )
        self._serve_sb_waiters(lq_entry)
        if lq_entry.forwarded:
            return  # value already delivered by the store forward
        offset = space.offset_in_line(lq_entry.addr)
        data = slot.data[offset:offset + lq_entry.size] if slot else result.data
        core._finish_load_value(entry, lq_entry, data)

    def _serve_sb_waiters(self, lq_entry):
        waiters = self.sb_waiters.pop(lq_entry.index, None)
        if not waiters:
            return
        core = self.core
        space = core.space
        for waiter in waiters:
            if waiter.squashed or not waiter.lq_entry.valid:
                continue
            w_lq = waiter.lq_entry
            mask = space.byte_mask(w_lq.addr, w_lq.size)
            dst = self.sb.copy(lq_entry.index, w_lq.index, mask)
            offset = space.offset_in_line(w_lq.addr)
            core._finish_load_value(
                waiter, w_lq, dst.data[offset:offset + w_lq.size]
            )
            # Serve chained waiters (a third USL may be waiting on this one).
            self._serve_sb_waiters(w_lq)

    # ------------------------------------------------------------ issue scan

    def tick(self):
        """Issue ready validations/exposures in order, then a deferred walk."""
        core = self.core
        blocks_overlap = core.policy.validation_blocks_overlap
        for entry in core.lq.live:
            if not entry.valid:
                continue
            state = entry.vstate
            if state is None:
                # A load that has not even resolved yet may still become a
                # USL; issuing past it would break program-order initiation.
                break
            if state in _SETTLED_STATES:
                continue
            if entry.visibility_issued:
                if entry.validation_inflight and blocks_overlap:
                    break  # IS-Future: nothing may pass an in-flight validation
                continue
            # Not yet issued: must wait for the initial Spec-GetS response,
            # and for the visibility point; initiation is in program order,
            # so the first blocked entry stops the scan.
            if not entry.performed:
                break
            if not core.policy.visible_now(core, entry):
                break
            self._issue(entry)
            if entry.vstate == STATE_VALIDATION and blocks_overlap:
                break
        # The oldest deferred load walks the TLB once it is visible.
        entry = self._deferred.min_entry()
        if entry is None:
            return
        lq_entry = entry.lq_entry
        if not core.policy.visible_now(core, lq_entry):
            return
        core.wake_requested = True
        advance_vstate(lq_entry, STATE_NORMAL)
        core.tlb.fill(core.space.page_of(lq_entry.addr))
        self._counts["invisispec.tlb_walks_at_visibility"] += 1
        core.kernel.schedule(
            core.params.tlb.walk_latency,
            lambda: self._issue_deferred(entry, lq_entry),
        )

    def _issue_deferred(self, entry, lq_entry):
        """The walk is over: the now-visible load issues as a normal one
        (no wake: the walk's tick already moved it to N)."""
        if entry.squashed or not lq_entry.valid:
            return
        if lq_entry.forwarded or lq_entry.performed:
            return
        core = self.core
        core._submit_load(entry, lq_entry, RequestKind.LOAD, core._on_load_data)

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
        sb_entry = self.sb.entry(entry.index)
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
                other_sb = self.sb.entry(other.index)
                if not other_sb.valid or other_sb.lq_index != other.index:
                    continue
                offset = core.space.offset_in_line(other.addr)
                used = other_sb.data[offset:offset + other.size]
                if not core.hierarchy.image.matches(other.addr, other.size, used):
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
