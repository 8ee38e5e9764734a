"""The runtime invariant monitor.

One :class:`Sanitizer` instance hooks a whole :class:`~repro.system.System`
(kernel, hierarchy, every core) and checks four invariant families while
the simulation runs — see the package docstring and ``docs/SANITIZER.md``.

Hook protocol
-------------

The instrumented components each hold a ``monitor`` attribute (``None``
when sanitizing is off) and call:

* kernel: ``on_cycle(cycle)`` after firing each cycle's events, and
  ``on_quiesce(cycle)`` right before a successful ``run()`` returns;
* hierarchy: ``invisible_enter/invisible_exit`` around the synchronous
  processing of a Spec-GetS, ``on_line_event`` after every visible
  coherence state transition, and ``on_inv_scheduled/on_inv_delivered``
  around in-flight invalidations (the skip-set that keeps legal transient
  windows from being reported);
* core: ``open_usl_window/close_usl_window`` around USL issue (TLB and
  prefetcher must stay untouched), ``on_prefetcher_train`` on every
  training call, and ``on_load_commit`` at load retirement (differential
  check against the golden memory model).

Modes: ``strict`` (alias ``fail_fast``) raises the violation as soon as a
check fails; ``record`` keeps running and collects every violation for the
reliability journal.  Either way ``self.violations`` holds the full list.
"""

from __future__ import annotations

from collections import Counter, deque

from ..coherence.checker import check_all, line_coherence_problems
from ..errors import (
    CoherenceViolation,
    ConfigError,
    ConsistencyViolation,
    ProtocolError,
    StructuralViolation,
    VisibilityViolation,
)
from .fingerprint import (
    diff_fingerprints,
    prefetcher_digest,
    tlb_digest,
    visible_fingerprint,
)
from .golden import GoldenMemoryModel

#: Mode names accepted on the CLI (``--sanitize[=MODE]``).
SANITIZER_MODES = ("strict", "record")


def make_sanitizer(value):
    """Coerce a CLI/config value into a :class:`Sanitizer` (or ``None``).

    Accepts ``None`` (off), an existing instance, ``True`` (strict), or a
    mode name from :data:`SANITIZER_MODES` (plus the ``fail_fast`` alias).
    """
    if value is None or isinstance(value, Sanitizer):
        return value
    if value is True:
        return Sanitizer("strict")
    if isinstance(value, str):
        mode = "strict" if value == "fail_fast" else value
        if mode not in SANITIZER_MODES:
            raise ConfigError(
                f"unknown sanitizer mode {value!r}; choose from "
                f"{SANITIZER_MODES} (or 'fail_fast')"
            )
        return Sanitizer(mode)
    raise ConfigError(f"cannot build a sanitizer from {value!r}")


class Sanitizer:
    """Continuous visibility / coherence / structural / consistency checks."""

    def __init__(
        self,
        mode="strict",
        trace_window=64,
        structural_period=2048,
        mshr_leak_cycles=200_000,
        golden_history=128,
    ):
        if mode == "fail_fast":
            mode = "strict"
        if mode not in SANITIZER_MODES:
            raise ConfigError(f"unknown sanitizer mode {mode!r}")
        self.mode = mode
        self.trace_window = trace_window
        self.structural_period = structural_period
        self.mshr_leak_cycles = mshr_leak_cycles
        self.golden_history = golden_history

        self.system = None
        self.kernel = None
        self.hierarchy = None
        self.cores = ()
        self.golden = None

        self.violations = []  # list of InvariantViolation.to_dict() records
        self.checks = Counter()  # check name -> times run
        self._events = deque(maxlen=trace_window)
        self._invisible_depth = 0
        self._invisible_ctx = None  # (req, line, before-fingerprint)
        self._pending_invs = Counter()  # (core_id, line) -> in-flight Invs
        self._usl_windows = {}  # (core_id, seq) -> (tlb digest, pf digest)
        self._last_sweep = 0

    # ---------------------------------------------------------------- wiring

    def install(self, system):
        """Attach to every component of a built (not yet run) system."""
        self.system = system
        self.kernel = system.kernel
        self.hierarchy = system.hierarchy
        self.cores = list(system.cores)
        self.kernel.monitor = self
        self.hierarchy.monitor = self
        for core in self.cores:
            core.monitor = self
        self.golden = GoldenMemoryModel(
            self.hierarchy.image,
            self.hierarchy.space,
            history_limit=self.golden_history,
        )
        self.golden.attach()
        self._last_sweep = self.kernel.cycle
        return self

    def release(self):
        """Detach from the system once its run is over (after
        :meth:`finalize`); the report stays readable."""
        self.kernel.monitor = None
        self.hierarchy.monitor = None
        for core in self.cores:
            core.monitor = None
        self.golden.detach()
        self.system = self.kernel = self.hierarchy = None
        self.cores = ()
        self._invisible_ctx = None

    # ----------------------------------------------------------- violations

    def _now(self):
        return self.kernel.cycle if self.kernel is not None else None

    def _record_event(self, kind, line=None, core=None):
        self._events.append((self._now(), kind, line, core))

    def _trace(self):
        out = []
        for cycle, kind, line, core in self._events:
            parts = [f"@{cycle}", kind]
            if line is not None:
                parts.append(f"line=0x{line:x}")
            if core is not None:
                parts.append(f"core={core}")
            out.append(" ".join(parts))
        return tuple(out)

    def _report(self, violation):
        self.violations.append(violation.to_dict())
        if self.mode == "strict":
            raise violation

    # ------------------------------------------------- visibility (hierarchy)

    def invisible_enter(self, req, line):
        """A Spec-GetS is about to be processed synchronously."""
        self._invisible_depth += 1
        if self._invisible_depth > 1:
            return  # nested re-entry (submit -> _transaction): one snapshot
        self._record_event(f"spec[{req.kind.value}]", line=line, core=req.core_id)
        self._invisible_ctx = (
            req, line, visible_fingerprint(self.hierarchy, line, req.core_id)
        )

    def invisible_exit(self, req, line):
        self._invisible_depth -= 1
        if self._invisible_depth > 0 or self._invisible_ctx is None:
            return
        ctx_req, ctx_line, before = self._invisible_ctx
        self._invisible_ctx = None
        self.checks["visibility"] += 1
        after = visible_fingerprint(self.hierarchy, ctx_line, ctx_req.core_id)
        diffs = diff_fingerprints(before, after)
        if diffs:
            self._report(VisibilityViolation(
                f"{ctx_req.kind.value} mutated observer-visible state: "
                + "; ".join(diffs),
                cycle=self._now(),
                core_id=ctx_req.core_id,
                line_addr=ctx_line,
                event=f"spec[{ctx_req.kind.value}] seq={ctx_req.seq}",
                trace=self._trace(),
            ))

    # -------------------------------------------------- coherence (hierarchy)

    def on_inv_scheduled(self, core_id, line):
        self._pending_invs[(core_id, line)] += 1
        self._record_event("inv_scheduled", line=line, core=core_id)

    def on_inv_delivered(self, core_id, line):
        key = (core_id, line)
        if self._pending_invs.get(key, 0) > 0:
            self._pending_invs[key] -= 1
            if not self._pending_invs[key]:
                del self._pending_invs[key]

    def on_line_event(self, line, event, core_id=None):
        """A visible coherence transition touched ``line``: re-check it."""
        self._record_event(event, line=line, core=core_id)
        self.checks["coherence_line"] += 1
        skip = {
            core for (core, pending_line), count in self._pending_invs.items()
            if pending_line == line and count > 0
        }
        for _kind, message, core in line_coherence_problems(
            self.hierarchy, line, skip_cores=skip
        ):
            self._report(CoherenceViolation(
                message,
                cycle=self._now(),
                core_id=core,
                line_addr=line,
                event=event,
                trace=self._trace(),
            ))

    # ------------------------------------------------------ visibility (core)

    def open_usl_window(self, core, seq):
        """A USL is issuing: its TLB/prefetcher state must not change."""
        self._usl_windows[(core.core_id, seq)] = (
            tlb_digest(core.tlb), prefetcher_digest(core.prefetcher)
        )

    def close_usl_window(self, core, seq, event):
        snap = self._usl_windows.pop((core.core_id, seq), None)
        if snap is None:
            return
        self.checks["usl_window"] += 1
        tlb_now = tlb_digest(core.tlb)
        pf_now = prefetcher_digest(core.prefetcher)
        for name, before, after in (
            ("TLB", snap[0], tlb_now),
            ("prefetcher", snap[1], pf_now),
        ):
            if before != after:
                self._report(VisibilityViolation(
                    f"USL issue mutated {name} state before its visibility "
                    f"point ({before!r} -> {after!r})",
                    cycle=self._now(),
                    core_id=core.core_id,
                    event=f"{event} seq={seq}",
                    trace=self._trace(),
                ))

    def on_prefetcher_train(self, core, pc, addr, lq_entry):
        """Training is legal only for visible accesses (Section VI-B)."""
        self.checks["prefetcher_train"] += 1
        if lq_entry is None:
            return
        if (
            lq_entry.vstate in ("E", "V", "D")
            and not lq_entry.visibility_issued
        ):
            self._report(VisibilityViolation(
                f"prefetcher trained by a pre-visibility USL "
                f"(pc=0x{pc:x}, vstate={lq_entry.vstate})",
                cycle=self._now(),
                core_id=core.core_id,
                line_addr=lq_entry.line_addr,
                event=f"train seq={lq_entry.seq}",
                trace=self._trace(),
            ))

    # ----------------------------------------------------- consistency (core)

    def on_load_commit(self, core, lq_entry, value):
        """Differentially check a retiring load against the golden model.

        Store-forwarded loads are skipped (their value legally predates the
        store's perform).  The CoRR (same-location ordering) part only runs
        under TSO: the simulator's RC mode allows same-line load-load
        reordering that the conservative golden check would flag.
        """
        if self.golden is None or lq_entry.forwarded:
            return
        if lq_entry.addr is None or lq_entry.rob.is_wrong_path:
            return
        self.checks["consistency"] += 1
        core_key = (
            core.core_id
            if core.config.consistency == "tso"
            # A unique per-load key disables the cross-load CoRR comparison
            # while keeping the thin-air check.
            else (core.core_id, lq_entry.seq)
        )
        error = self.golden.check_load(
            core_key, lq_entry.addr, lq_entry.size, value
        )
        if error is not None:
            self._report(ConsistencyViolation(
                error,
                cycle=self._now(),
                core_id=core.core_id,
                line_addr=lq_entry.line_addr,
                event=f"commit seq={lq_entry.seq}",
                trace=self._trace(),
            ))

    # ------------------------------------------------------- kernel cadence

    def on_cycle(self, cycle):
        if cycle - self._last_sweep >= self.structural_period:
            self._last_sweep = cycle
            self._structural_sweep(cycle, final=False)

    def on_quiesce(self, cycle):
        """Everything drained: full-hierarchy and end-state checks."""
        self.checks["quiesce"] += 1
        leftovers = {
            key: count for key, count in self._pending_invs.items() if count
        }
        if leftovers:
            (core, line), count = next(iter(leftovers.items()))
            self._report(CoherenceViolation(
                f"{sum(leftovers.values())} invalidation(s) scheduled but "
                f"never delivered (first: {count} for core {core})",
                cycle=cycle,
                core_id=core,
                line_addr=line,
                event="quiesce",
                trace=self._trace(),
            ))
        try:
            check_all(self.hierarchy)
        except ProtocolError as exc:
            self._report(CoherenceViolation(
                str(exc), cycle=cycle, event="quiesce", trace=self._trace()
            ))
        self._structural_sweep(cycle, final=True)

    # ------------------------------------------------------------ structural

    def _structural_violation(self, message, core_id=None, line=None):
        self._report(StructuralViolation(
            message,
            cycle=self._now(),
            core_id=core_id,
            line_addr=line,
            trace=self._trace(),
        ))

    def _structural_sweep(self, now, final):
        self.checks["structural_sweep"] += 1
        hierarchy = self.hierarchy

        for core_id, mshr in enumerate(hierarchy.mshrs):
            if len(mshr) > mshr.num_entries:
                self._structural_violation(
                    f"MSHR file over capacity ({len(mshr)}/{mshr.num_entries})",
                    core_id=core_id,
                )
            for line in mshr.outstanding_lines():
                entry = mshr.lookup(line)
                if entry is None:
                    continue
                if final:
                    self._structural_violation(
                        "MSHR entry leaked past quiesce",
                        core_id=core_id, line=line,
                    )
                elif now - entry.issued_cycle > self.mshr_leak_cycles:
                    self._structural_violation(
                        f"MSHR entry outstanding for "
                        f"{now - entry.issued_cycle} cycles (leak?)",
                        core_id=core_id, line=line,
                    )
            if final and hierarchy._mshr_waiting[core_id]:
                self._structural_violation(
                    f"{len(hierarchy._mshr_waiting[core_id])} request(s) "
                    f"stranded in the MSHR wait queue at quiesce",
                    core_id=core_id,
                )

        for core in self.cores:
            cid = core.core_id
            if len(core.rob) > core.rob.capacity:
                self._structural_violation(
                    f"ROB over capacity ({len(core.rob)}/{core.rob.capacity})",
                    core_id=cid,
                )
            if len(core.lq) > core.lq.capacity:
                self._structural_violation(
                    f"LQ over capacity ({len(core.lq)}/{core.lq.capacity})",
                    core_id=cid,
                )
            if len(core.sq) > core.sq.capacity:
                self._structural_violation(
                    f"SQ over capacity ({len(core.sq)}/{core.sq.capacity})",
                    core_id=cid,
                )
            visibility = core.visibility
            if visibility is not None:
                for slot in visibility.sb.valid_entries():
                    lq_entry = core.lq.slot(slot.lq_index)
                    if (
                        lq_entry is None
                        or not lq_entry.valid
                        or lq_entry.index != slot.lq_index
                    ):
                        self._structural_violation(
                            f"SB slot holds data for a dead load "
                            f"(lq_index={slot.lq_index}): squashed-load "
                            f"cleanup failed",
                            core_id=cid, line=slot.line_addr,
                        )
                for lq_index, waiters in visibility.sb_waiters.items():
                    if not any(not w.squashed for w in waiters):
                        continue
                    src = core.lq.slot(lq_index)
                    if src is None or not src.valid:
                        self._structural_violation(
                            f"SB-merge waiters stranded on dead source load "
                            f"lq_index={lq_index}",
                            core_id=cid,
                        )
            if hierarchy.llc_sbs is not None:
                for slot in hierarchy.llc_sbs[cid]._slots:
                    if slot.valid and slot.epoch > core.epoch:
                        self._structural_violation(
                            f"LLC-SB entry from future epoch {slot.epoch} "
                            f"(core epoch {core.epoch})",
                            core_id=cid, line=slot.line_addr,
                        )
            budget_stop = (
                core.max_instructions is not None
                and core.retired_instructions >= core.max_instructions
            )
            if final and core.done and not budget_stop:
                # Only a trace-exhaustion finish guarantees drained
                # structures; an instruction-budget stop freezes the core
                # mid-flight with ROB/LQ/SB contents by design.
                if not core.rob.empty:
                    self._structural_violation(
                        "done core left entries in the ROB", core_id=cid
                    )
                if len(core.lq) or len(core.sq):
                    self._structural_violation(
                        "done core left entries in the LQ/SQ", core_id=cid
                    )
                if not core.write_buffer.empty:
                    self._structural_violation(
                        "done core left entries in the write buffer",
                        core_id=cid,
                    )
                if visibility is not None and visibility.sb.valid_entries():
                    self._structural_violation(
                        "done core left valid SB entries", core_id=cid
                    )

    # -------------------------------------------------------------- reporting

    def report(self):
        out = {
            "mode": self.mode,
            "violations": list(self.violations),
            "violation_count": len(self.violations),
            "checks": dict(self.checks),
        }
        if self.golden is not None:
            out["golden"] = {
                "writes_recorded": self.golden.stat_writes_recorded,
                "loads_checked": self.golden.stat_loads_checked,
                "checks_skipped": self.golden.stat_checks_skipped,
            }
        return out

    def finalize(self, result):
        """Stamp the run result with this sanitizer's report."""
        result.sanitizer_report = self.report()
        return result
