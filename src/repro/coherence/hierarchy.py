"""The multiprocessor data cache hierarchy.

This module ties together the per-core L1Ds, the banked inclusive shared L2
with its MESI directory, the mesh NoC, DRAM, and (when InvisiSpec is
enabled) the per-core LLC speculative buffers.  Cores submit
:class:`MemRequest` objects; the hierarchy computes transaction latencies,
accounts every message on the NoC, applies coherence state changes, and
fires the request callback when data is ready.

Transaction kinds
-----------------

* ``LOAD`` — a safe/visible read (GetS).  Fills L1 and L2, updates
  replacement and directory state.
* ``SPEC_LOAD`` — InvisiSpec's Spec-GetS (Section VI-E1): returns the latest
  copy of the line *without changing any cache, replacement, or directory
  state*.  On an LLC miss the line is read from memory and a copy is
  deposited in the requesting core's LLC-SB.  A Spec-GetS forwarded to an
  owner that is writing the line back bounces and retries.
* ``VALIDATE`` / ``EXPOSE`` — the second access of a USL (Section V-A4).
  Behaves like a visible GetS; on an LLC miss it first checks the
  requester's LLC-SB (address + epoch match) to avoid a second DRAM access.
* ``STORE`` — GetX/upgrade.  Invalidates remote sharers; completion waits
  for the invalidation round trip.  The global memory image is updated at
  completion (the store *performs*, Section II-B).
* ``PREFETCH`` — a visible software-prefetch or at-visibility hardware
  prefetch (GetS into the caches).

Timing simplification: directory state transitions are applied atomically
when the transaction is processed at its home bank; wire, bank-occupancy,
and DRAM latencies are layered on top of that atomic step.  The one
transient window kept is the dirty write-back (its in-flight period is
when Spec-GetS bounces happen).
"""

from __future__ import annotations

from ..mem.cache import CacheArray
from ..mem.dram import DRAMModel
from ..mem.mshr import MSHRFile
from ..network.noc import NoC, TrafficCategory
from ..sim.events import cancelled
from .directory import Directory
from .mesi import MESIState
from .protocol import DirOutcome, L1Event, apply_l1_event, route_request
from .requests import AccessResult, MemRequest, RequestKind

# Enum members read on every transaction, bound once: a class attribute
# read of an enum member costs a descriptor call.
_INVALID, _SHARED, _MODIFIED = (
    MESIState.INVALID, MESIState.SHARED, MESIState.MODIFIED,
)
_STORE, _SPEC_LOAD = RequestKind.STORE, RequestKind.SPEC_LOAD
_VISIBILITY_KINDS = (RequestKind.VALIDATE, RequestKind.EXPOSE)
_L1_HIT, _STORE_UPGRADE = DirOutcome.L1_HIT, DirOutcome.STORE_UPGRADE
_SPEC_BOUNCE = DirOutcome.SPEC_BOUNCE
_REMOTE_OWNER_OUTCOMES = (
    DirOutcome.SPEC_BOUNCE,
    DirOutcome.SPEC_FORWARD,
    DirOutcome.OWNER_FORWARD,
    DirOutcome.OWNER_INVALIDATE,
)
_L2_OUTCOMES = (DirOutcome.L2_READ, DirOutcome.L2_STORE, DirOutcome.SPEC_L2_READ)

__all__ = [
    "AccessResult",
    "CacheHierarchy",
    "MemRequest",
    "RequestKind",
]


class _KindInfo:
    """Per-:class:`RequestKind` constants, built once at import: the
    kind's traffic category and its ``hierarchy.*`` counter names.
    ``_KIND_INFO[kind.index]`` looks one up without hashing the Enum."""

    __slots__ = (
        "category", "requests", "l1_hits", "l1_misses",
        "l1_misses_secondary", "remote_l1", "l2_hits", "l2_misses", "dram",
    )

    def __init__(self, kind, category):
        self.category = category
        for field in self.__slots__[1:]:
            setattr(self, field, f"hierarchy.{field}.{kind.value}")


_CATEGORY_OF_KIND = {
    RequestKind.LOAD: TrafficCategory.NORMAL,
    RequestKind.STORE: TrafficCategory.NORMAL,
    RequestKind.PREFETCH: TrafficCategory.NORMAL,
    RequestKind.SPEC_LOAD: TrafficCategory.SPECLOAD,
    RequestKind.SPEC_PREFETCH: TrafficCategory.SPECLOAD,
    RequestKind.VALIDATE: TrafficCategory.EXPOSE_VALIDATE,
    RequestKind.EXPOSE: TrafficCategory.EXPOSE_VALIDATE,
}
_KIND_INFO = tuple(
    _KindInfo(kind, _CATEGORY_OF_KIND[kind]) for kind in RequestKind
)


#: Part of the L2 round trip charged before the directory/tag lookup.
_L2_TAG_FRACTION = 0.5


class CacheHierarchy:
    """L1s + banked shared L2 + directory + NoC + DRAM (+ LLC-SBs)."""

    #: Cycles a bank is occupied per transaction (pipelined bank port).
    BANK_OCCUPANCY = 2
    #: Cycles an L1 port is occupied per access.
    L1_OCCUPANCY = 1
    #: Delay before a bounced Spec-GetS retries.
    BOUNCE_RETRY_DELAY = 4
    #: Cycles a dirty write-back stays in flight (directory transient).
    WRITEBACK_DELAY = 6

    def __init__(self, params, kernel, image, counters, faults=None):
        self.params = params
        self.kernel = kernel
        self.image = image
        self.space = image.space
        # log2 of the line size: the request path aligns addresses and
        # picks banks with shifts instead of AddressSpace calls.
        self._line_shift = self.space.line_bytes.bit_length() - 1
        self.counters = counters
        self._counts = counters.counts
        #: Optional FaultInjector shared with the NoC, DRAM and kernel;
        #: the hierarchy itself consults the ``inv.ack_drop`` and
        #: ``mshr.stuck`` sites.
        self.faults = faults
        self.noc = NoC(params.network, faults=faults)
        self.dram = DRAMModel(latency=params.dram_latency, faults=faults)
        self.num_banks = params.num_l2_banks
        self.l1s = [CacheArray(params.l1d) for _ in range(params.num_cores)]
        self.l2 = [CacheArray(params.l2_bank) for _ in range(self.num_banks)]
        self.dirs = [Directory(b) for b in range(self.num_banks)]
        self.mshrs = [
            MSHRFile(params.core.mshr_entries) for _ in range(params.num_cores)
        ]
        self.llc_sbs = None  # list of LLCSpeculativeBuffer, set by the system
        #: Optional runtime sanitizer (:mod:`repro.sanitizer`): notified
        #: around invisible transactions, on every visible coherence state
        #: transition, and when invalidations are scheduled/delivered.
        self.monitor = None
        self._cores = [None] * params.num_cores
        self._mshr_waiting = [[] for _ in range(params.num_cores)]
        self._l1_ports = [[0, 0] for _ in range(params.num_cores)]  # [cycle, used]
        self._l1_port_count = params.l1d.ports
        self._l1_latency = params.l1d.round_trip_latency
        self._l2_tag_latency = max(
            1, int(params.l2_bank.round_trip_latency * _L2_TAG_FRACTION)
        )
        self._bank_free = [0] * self.num_banks
        # Mesh node of each bank and core (bank i and core i share node i).
        nodes = params.network.num_nodes
        self._bank_nodes = [bank % nodes for bank in range(self.num_banks)]
        self._core_nodes = [core % nodes for core in range(params.num_cores)]
        self._mem_node = 0

    # ------------------------------------------------------------------ wiring

    def attach_core(self, core_id, core):
        """Register the core for invalidation/eviction callbacks."""
        self._cores[core_id] = core

    def release(self):
        """Forget the attached cores and the requests still in flight,
        whose completion callbacks close over their cores (the run is
        over).  Cache, directory and NoC state stay readable."""
        self._cores = [None] * len(self._cores)
        self._mshr_waiting = [[] for _ in self._mshr_waiting]
        for mshr in self.mshrs:
            mshr.clear()

    def set_llc_sbs(self, llc_sbs):
        self.llc_sbs = llc_sbs

    # ------------------------------------------------------------- geometry

    def bank_of(self, line_addr):
        return (line_addr >> self._line_shift) % self.num_banks

    # ------------------------------------------------------------- port model

    def _bank_slot(self, bank, arrival):
        """Serialize transactions through a bank's single port."""
        start = self._bank_free[bank]
        if start < arrival:
            start = arrival
        self._bank_free[bank] = start + self.BANK_OCCUPANCY
        self._counts["l2.bank_queue_cycles"] += start - arrival
        return start

    # ------------------------------------------------------- sanitizer hooks

    def _note_line(self, line, event, core_id=None):
        """Tell the sanitizer a visible coherence transition touched a line."""
        if self.monitor is not None:
            self.monitor.on_line_event(line, event, core_id=core_id)

    # ---------------------------------------------------------------- submit

    def submit(self, req):
        """Entry point: process ``req`` starting at the current cycle."""
        monitor = self.monitor
        if monitor is not None and req.kind.invisible:
            # Fingerprint the observer-visible state around the synchronous
            # processing of a Spec-GetS: any change is a visibility bug.
            line = self.space.line_of(req.addr)
            monitor.invisible_enter(req, line)
            try:
                self._process(req)
            finally:
                monitor.invisible_exit(req, line)
            return
        self._process(req)

    def _process(self, req):
        now = self.kernel.cycle
        shift = self._line_shift
        line = (req.addr >> shift) << shift
        core_id = req.core_id
        # The first cycle >= now with a free port of this core's L1.
        port = self._l1_ports[core_id]
        if port[0] < now:
            port[0] = now
            port[1] = 0
        if port[1] < self._l1_port_count:
            port[1] += 1
        else:
            port[0] += 1
            port[1] = 1
        slot = port[0]
        kind = req.kind
        info = _KIND_INFO[kind.index]
        first_attempt = not req.accounted
        if first_attempt:
            req.accounted = True
            self._counts[info.requests] += 1

        entry = self.l1s[core_id].lookup(line, touch=not kind.invisible)
        l1_state = entry.state if entry is not None else _INVALID
        # Only the L1-local routing outcomes are decided here; the remote
        # facts (owner, L2 residency, write-back windows) are resolved at
        # the home bank inside _transaction_steps with the same table.
        outcome = route_request(kind, l1_state, False, False, False)
        if outcome is _L1_HIT:
            ready = slot + self._l1_latency
            if kind is _STORE:
                entry.state = apply_l1_event(entry.state, L1Event.STORE_HIT)
                self.dirs[self.bank_of(line)].set_owner(line, core_id)
                self._note_line(line, "store_l1_hit", core_id=core_id)
                self._finish_store(req, ready, "l1", info.category)
                return
            self._counts[info.l1_hits] += 1
            self.kernel.schedule_at(
                ready, lambda: self._do_complete_read(req, "l1")
            )
            return
        if outcome is _STORE_UPGRADE:
            self._upgrade(req, line, slot)
            return
        self._miss(req, line, slot, first_attempt)

    # ------------------------------------------------------------- miss path

    def _miss(self, req, line, slot, first_attempt=True):
        mshr = self.mshrs[req.core_id]
        existing = mshr.lookup(line)
        if existing is not None and self._can_merge(req, existing):
            # A secondary miss (hit-under-miss): accounted separately, not
            # as a demand L1 miss.
            mshr.merge(line, req)
            counts = self._counts
            counts["hierarchy.mshr_merges"] += 1
            if first_attempt:
                counts[_KIND_INFO[req.kind.index].l1_misses_secondary] += 1
            return
        if first_attempt:
            self._counts[_KIND_INFO[req.kind.index].l1_misses] += 1
        if existing is not None:
            # Program-order or kind-class conflict: issue an independent
            # transaction (extra Spec-GetS in flight for the same line are
            # explicitly allowed, Section VI-A2).
            self._counts["hierarchy.mshr_bypass"] += 1
            self._transaction(req, line, slot)
            return
        if mshr.full:
            self._counts["hierarchy.mshr_full_stalls"] += 1
            self._mshr_waiting[req.core_id].append(req)
            return
        mshr.allocate(line, req.seq, req.kind.invisible, self.kernel.cycle)
        self._transaction(req, line, slot)

    def _can_merge(self, req, mshr_entry):
        # Never let a request reuse state allocated by a younger instruction
        # (Section VII); never mix invisible with visible transactions; and
        # stores always need their own GetX.
        if req.kind is _STORE:
            return False
        if req.seq < mshr_entry.allocator_seq:
            return False
        return req.kind.invisible == mshr_entry.speculative

    # -------------------------------------------------------- the transaction

    def _transaction(self, req, line, slot):
        """Compute the full remote transaction for a primary request.

        Bounced Spec-GetS retries re-enter here directly (not via submit),
        so the sanitizer's invisible guard wraps this level too; the depth
        counter in the monitor keeps the submit -> _transaction nesting to
        one fingerprint pair.
        """
        monitor = self.monitor
        if monitor is not None and req.kind.invisible:
            monitor.invisible_enter(req, line)
            try:
                self._transaction_steps(req, line, slot)
            finally:
                monitor.invisible_exit(req, line)
            return
        self._transaction_steps(req, line, slot)

    def _transaction_steps(self, req, line, slot):
        kind = req.kind
        cat = _KIND_INFO[kind.index].category
        bank = self.bank_of(line)
        core_node = self._core_nodes[req.core_id]
        bank_node = self._bank_nodes[bank]

        arrive = slot + self.noc.send(core_node, bank_node, False, cat)
        t_bank = self._bank_slot(bank, arrive)
        t_dir = t_bank + self._l2_tag_latency

        directory = self.dirs[bank]
        dentry = directory.entry(line)
        owner = dentry.owner if dentry else None

        outcome = route_request(
            kind,
            _INVALID,  # the local L1 already missed
            owner is not None and owner != req.core_id,
            self.l2[bank].contains(line),
            dentry.writeback_in_flight(t_dir) if dentry is not None else False,
        )
        if outcome in _REMOTE_OWNER_OUTCOMES:
            self._remote_owner_path(
                req, line, slot, bank, dentry, t_dir, cat, outcome
            )
        elif outcome in _L2_OUTCOMES:
            self._l2_hit_path(req, line, bank, t_bank, cat)
        else:
            self._memory_path(req, line, bank, t_dir, cat)

    # -------------------------------------------------- path: remote L1 owner

    def _remote_owner_path(self, req, line, slot, bank, dentry, t_dir, cat, outcome):
        kind = req.kind
        owner = dentry.owner
        bank_node = self._bank_nodes[bank]
        owner_node = self._core_nodes[owner]
        core_node = self._core_nodes[req.core_id]

        if outcome is _SPEC_BOUNCE:
            # The owner is losing the line: bounce the Spec-GetS.
            self.noc.send(bank_node, owner_node, False, cat)  # forward
            nack_lat = self.noc.send(owner_node, core_node, False, cat)
            req.bounces += 1
            self._counts["invisispec.spec_gets_bounces"] += 1
            retry_at = t_dir + nack_lat + self.BOUNCE_RETRY_DELAY
            # Retry the transaction directly: re-entering submit() would
            # merge the request into its own still-allocated MSHR.
            self.kernel.schedule_at(
                retry_at, lambda: self._transaction(req, line, self.kernel.cycle)
            )
            return

        fwd_lat = self.noc.send(bank_node, owner_node, False, cat)
        t_owner = t_dir + fwd_lat + self.params.l1d.round_trip_latency
        data_lat = self.noc.send(owner_node, core_node, True, cat)
        ready = t_owner + data_lat
        self._counts[_KIND_INFO[kind.index].remote_l1] += 1

        if kind is _STORE:
            # GetX: the owner is invalidated; ownership moves.
            self._deliver_invalidation(owner, line, t_owner, cat, "coherence")
            dentry.owner = req.core_id
            dentry.sharers.discard(req.core_id)
            self._note_line(line, "store_ownership_move", core_id=req.core_id)
            self._finish_store(req, ready, "remote_l1", cat)
            return

        if kind.invisible:
            # Spec-GetS: data streamed from the owner, no state changes.
            self._complete_read(req, ready, "remote_l1")
            return

        # Visible read: owner demotes M/E -> S and writes the line back to
        # the L2 bank (data message), the requester becomes a sharer.
        owner_entry = self.l1s[owner].lookup(line, touch=False)
        if owner_entry is not None:
            if owner_entry.state.dirty:
                self.noc.send(owner_node, bank_node, True, cat)  # writeback
            owner_entry.state = apply_l1_event(owner_entry.state, L1Event.DEMOTE)
        self.dirs[bank].demote_owner(line)
        self.dirs[bank].add_sharer(line, req.core_id)
        if not self.l2[bank].contains(line):
            self._fill_l2(bank, line, t_owner, cat)
        self._note_line(line, "owner_demoted", core_id=req.core_id)
        self._schedule_visible_fill(req, line, ready, "remote_l1", cat)

    # --------------------------------------------------------- path: L2 hit

    def _l2_hit_path(self, req, line, bank, t_bank, cat):
        kind = req.kind
        bank_node = self._bank_nodes[bank]
        core_node = self._core_nodes[req.core_id]
        self.l2[bank].lookup(line, touch=not kind.invisible)
        self._counts[_KIND_INFO[kind.index].l2_hits] += 1
        data_lat = self.noc.send(bank_node, core_node, True, cat)
        ready = t_bank + self.params.l2_bank.round_trip_latency + data_lat

        if kind is _STORE:
            ready = self._invalidate_sharers(req, line, bank, t_bank, cat, ready)
            if ready is None:
                return  # acks lost (fault injection): the store never performs
            self.dirs[bank].set_owner(line, req.core_id)
            self._purge_llc_sbs(line)
            self._note_line(line, "store_l2_hit", core_id=req.core_id)
            self._finish_store(req, ready, "l2", cat)
            return

        if kind.invisible:
            self._complete_read(req, ready, "l2")
            return

        self.dirs[bank].add_sharer(line, req.core_id)
        self._schedule_visible_fill(req, line, ready, "l2", cat)

    # -------------------------------------------------------- path: memory

    def _memory_path(self, req, line, bank, t_dir, cat):
        kind = req.kind
        bank_node = self._bank_nodes[bank]
        core_node = self._core_nodes[req.core_id]
        self._counts[_KIND_INFO[kind.index].l2_misses] += 1

        # Validation/exposure first checks the requester's LLC-SB.
        if kind in _VISIBILITY_KINDS and self.llc_sbs:
            llc_sb = self.llc_sbs[req.core_id]
            if llc_sb.match(req.lq_index, line, req.epoch):
                self._counts["invisispec.llc_sb_hits"] += 1
                data_lat = self.noc.send(bank_node, core_node, True, cat)
                ready = t_dir + llc_sb.access_latency + data_lat
                self._fill_l2(bank, line, t_dir, cat)
                self.dirs[bank].add_sharer(line, req.core_id)
                self._purge_llc_sbs(line)
                self._schedule_visible_fill(req, line, ready, "llc_sb", cat)
                return
            self._counts["invisispec.llc_sb_misses"] += 1

        mem_req_lat = self.noc.send(bank_node, self._mem_node, False, cat)
        dram_done = self.dram.access(t_dir + mem_req_lat, line)
        mem_data_lat = self.noc.send(self._mem_node, bank_node, True, cat)
        t_back = dram_done + mem_data_lat
        data_lat = self.noc.send(bank_node, core_node, True, cat)
        ready = t_back + data_lat
        self._counts[_KIND_INFO[kind.index].dram] += 1

        if kind.invisible:
            # No fills anywhere; deposit a copy in the requester's LLC-SB.
            if self.llc_sbs is not None and kind is _SPEC_LOAD:
                self.llc_sbs[req.core_id].insert(req.lq_index, line, req.epoch)
            self._complete_read(req, ready, "dram")
            return

        # A visible access that misses in the LLC purges the line from every
        # core's LLC-SB (Section VI-C).
        self._purge_llc_sbs(line)
        self._fill_l2(bank, line, t_back, cat)

        if kind is _STORE:
            self.dirs[bank].set_owner(line, req.core_id)
            self._note_line(line, "store_dram", core_id=req.core_id)
            self._finish_store(req, ready, "dram", cat)
            return

        self.dirs[bank].add_sharer(line, req.core_id)
        self._schedule_visible_fill(req, line, ready, "dram", cat)

    # -------------------------------------------------------- path: upgrade

    def _upgrade(self, req, line, slot):
        """Store hit in S: acquire ownership, invalidating other sharers."""
        cat = _KIND_INFO[req.kind.index].category
        bank = self.bank_of(line)
        bank_node = self._bank_nodes[bank]
        core_node = self._core_nodes[req.core_id]
        arrive = slot + self.noc.send(core_node, bank_node, False, cat)
        t_bank = self._bank_slot(bank, arrive)
        ack_lat = self.noc.send(bank_node, core_node, False, cat)
        ready = t_bank + ack_lat + 1
        ready = self._invalidate_sharers(req, line, bank, t_bank, cat, ready)
        if ready is None:
            return  # acks lost (fault injection): the upgrade never completes
        self.dirs[bank].set_owner(line, req.core_id)
        entry = self.l1s[req.core_id].lookup(line, touch=False)
        if entry is not None:
            entry.state = apply_l1_event(entry.state, L1Event.UPGRADE)
        self._purge_llc_sbs(line)
        self._counts["hierarchy.upgrades"] += 1
        self._note_line(line, "store_upgrade", core_id=req.core_id)
        self._finish_store(req, ready, "upgrade", cat)

    # ----------------------------------------------------------- state moves

    def _invalidate_sharers(self, req, line, bank, t_bank, cat, ready):
        """Send Inv to every other sharer; returns completion including acks.

        Returns ``None`` when an injected ``inv.ack_drop`` fault loses the
        acks: the store can then never perform, which is exactly the lost
        ack deadlock the kernel's detector exists for.  Callers must stop
        the transaction (no completion is scheduled) in that case.
        """
        directory = self.dirs[bank]
        bank_node = self._bank_nodes[bank]
        others = directory.sharers_other_than(line, req.core_id)
        worst_ack = ready
        for sharer in others:
            deliver_lat = self.noc.send(bank_node, self._core_nodes[sharer], False, cat)
            deliver_at = t_bank + deliver_lat
            if self.faults is not None and self.faults.fire("inv.drop") is not None:
                # The Inv is lost but its ack is spuriously counted: the
                # directory stops tracking the sharer, which keeps a stale
                # copy while the writer proceeds to M — a silent SWMR /
                # directory-agreement break, detectable only by the
                # sanitizer (unlike inv.ack_drop, which deadlocks visibly).
                self._counts["faults.invs_dropped"] += 1
                directory.remove_core(line, sharer)
                continue
            self._deliver_invalidation(sharer, line, deliver_at, cat, "coherence")
            ack_lat = self.noc.send(self._core_nodes[sharer], bank_node, False, cat)
            worst_ack = max(worst_ack, deliver_at + ack_lat)
            directory.remove_core(line, sharer)
        self._counts["coherence.invalidations_sent"] += len(others)
        if (
            others
            and self.faults is not None
            and self.faults.fire("inv.ack_drop") is not None
        ):
            self._counts["faults.inv_acks_dropped"] += 1
            return None
        return worst_ack

    def _deliver_invalidation(self, core_id, line, at_cycle, cat, reason):
        """Schedule the arrival of an Inv at a core's L1."""

        def deliver():
            if self.monitor is not None:
                self.monitor.on_inv_delivered(core_id, line)
            self.l1s[core_id].invalidate(line)
            core = self._cores[core_id]
            if core is not None:
                core.on_invalidation(line, reason)
            self._note_line(line, f"inv_delivered[{reason}]", core_id=core_id)

        handle = self.kernel.schedule_at(at_cycle, deliver)
        # Register the in-flight window with the sanitizer so the stale copy
        # is not flagged before delivery.  An event pre-cancelled by the
        # kernel.event_drop fault will never fire: skip registering it, so
        # the pending counter cannot leak (the lost Inv then surfaces as the
        # coherence violation it really is).
        if self.monitor is not None and not cancelled(handle):
            self.monitor.on_inv_scheduled(core_id, line)

    def _schedule_visible_fill(self, req, line, ready, level, cat):
        """At ``ready``: install the line in the requester's L1, complete."""

        def finish():
            self._fill_l1(req.core_id, line, cat)
            self._do_complete_read(req, level)

        self.kernel.schedule_at(ready, finish)

    def _fill_l1(self, core_id, line, cat, state=None):
        """Install a line into an L1; state defaults to E (sole copy) or S."""
        l1 = self.l1s[core_id]
        existing = l1.lookup(line, touch=False)
        if existing is not None:
            if state is not None:
                # A store performing into a still-resident copy: a plain
                # writable hit, or an ownership re-assertion if a remote
                # read demoted the copy to S while the store was in flight.
                event = (
                    L1Event.UPGRADE
                    if existing.state is _SHARED
                    else L1Event.FILL_MODIFIED
                )
                existing.state = apply_l1_event(existing.state, event)
            return
        if state is None:
            bank = self.bank_of(line)
            dentry = self.dirs[bank].entry(line)
            if (
                dentry is not None
                and dentry.owner is not None
                and dentry.owner != core_id
            ):
                # A conflicting write (re)acquired ownership while this
                # read's fill was in flight: installing a Shared copy next
                # to a Modified one would break SWMR.  The data was already
                # delivered to the requester; simply keep no copy.
                self._counts["coherence.fills_dropped_by_writer"] += 1
                return
            others = self.dirs[bank].sharers_other_than(line, core_id)
            # Register presence at fill time: an invalidation delivered
            # between the directory's atomic step and this fill must still
            # find the core tracked.  A sole copy is granted E and tracked
            # as the owner, so a later remote read demotes it.
            if others:
                event = L1Event.FILL_SHARED
                self.dirs[bank].add_sharer(line, core_id)
            else:
                event = L1Event.FILL_EXCLUSIVE
                self.dirs[bank].set_owner(line, core_id)
            state = apply_l1_event(_INVALID, event)
        _entry, victim = l1.insert(line, state)
        if victim is not None:
            self._handle_l1_eviction(core_id, victim, cat)
        self._note_line(line, "l1_fill", core_id=core_id)

    def _handle_l1_eviction(self, core_id, victim, cat):
        vline = victim.line_addr
        vbank = self.bank_of(vline)
        directory = self.dirs[vbank]
        directory.remove_core(vline, core_id)
        if victim.state.dirty:
            self.noc.send(
                self._core_nodes[core_id], self._bank_nodes[vbank], True, cat
            )
            entry = directory.entry(vline, create=True)
            entry.wb_pending_until = self.kernel.cycle + self.WRITEBACK_DELAY
            self._counts["coherence.l1_writebacks"] += 1
        self._counts["coherence.l1_evictions"] += 1
        core = self._cores[core_id]
        if core is not None:
            core.on_l1_eviction(vline)
        self._note_line(vline, "l1_eviction", core_id=core_id)

    def _fill_l2(self, bank, line, at_cycle, cat):
        """Install a line in an inclusive L2 bank, evicting if needed."""
        l2 = self.l2[bank]
        if l2.contains(line):
            return
        _entry, victim = l2.insert(line, _SHARED)
        if victim is None:
            self._note_line(line, "l2_fill")
            return
        vline = victim.line_addr
        directory = self.dirs[bank]
        dentry = directory.entry(vline)
        if dentry is not None:
            # Inclusive hierarchy: evicting from L2 recalls all L1 copies.
            # Sorted walk: recall-message order is cycle-affecting.
            holders = set(dentry.sharers)
            if dentry.owner is not None:
                holders.add(dentry.owner)
            for core_id in sorted(holders):
                lat = self.noc.send(
                    self._bank_nodes[bank], self._core_nodes[core_id], False, cat
                )
                self._deliver_invalidation(
                    core_id, vline, at_cycle + lat, cat, "l2_evict"
                )
            directory.drop(vline)
        # Stale LLC-SB copies of the victim can no longer be trusted.
        self._purge_llc_sbs(vline)
        self.noc.send(self._bank_nodes[bank], self._mem_node, True, cat)
        self._counts["coherence.l2_evictions"] += 1
        self._note_line(vline, "l2_eviction")
        self._note_line(line, "l2_fill")

    def _purge_llc_sbs(self, line):
        """Drop ``line`` from every core's LLC-SB."""
        if not self.llc_sbs:
            return
        for llc_sb in self.llc_sbs:
            llc_sb.invalidate_line(line)

    # ------------------------------------------------------------ completion

    def _complete_read(self, req, ready, level):
        self.kernel.schedule_at(ready, lambda: self._do_complete_read(req, level))

    def _do_complete_read(self, req, level):
        if self.faults is not None and self.faults.fire("mshr.stuck") is not None:
            # The fill is lost and the MSHR entry stays pinned: merged
            # targets never complete and the core hangs on the load.
            self._counts["faults.mshr_stuck"] += 1
            return
        data, version = self.image.snapshot(req.addr, req.size)
        result = AccessResult(
            level, data, version, self.kernel.cycle, bounces=req.bounces
        )
        self._release_own_mshr(req)
        if req.on_complete is not None:
            req.on_complete(result)

    def _finish_store(self, req, ready, level, cat):
        line = self.space.line_of(req.addr)
        bank = self.bank_of(line)

        def perform():
            # Between the directory's atomic processing of this GetX and the
            # store performing, a read may have demoted this core and added
            # sharers.  The store logically orders after those reads, so
            # ownership is re-asserted now: any sharer that appeared in the
            # window is invalidated again.
            directory = self.dirs[bank]
            now = self.kernel.cycle
            for sharer in directory.sharers_other_than(line, req.core_id):
                lat = self.noc.send(
                    self._bank_nodes[bank], self._core_nodes[sharer], False, cat
                )
                self._deliver_invalidation(sharer, line, now + lat, cat, "coherence")
                directory.remove_core(line, sharer)
                self._counts["coherence.invalidations_sent"] += 1
            directory.set_owner(line, req.core_id)
            self.image.write(req.addr, req.size, req.store_value)
            self._fill_l1(req.core_id, line, cat, state=_MODIFIED)
            self._note_line(line, "store_performed", core_id=req.core_id)
            result = AccessResult(level, None, 0, now)
            self._release_own_mshr(req)
            if req.on_complete is not None:
                req.on_complete(result)

        self.kernel.schedule_at(ready, perform)

    def _release_own_mshr(self, req):
        line = self.space.line_of(req.addr)
        mshr = self.mshrs[req.core_id]
        entry = mshr.lookup(line)
        if entry is not None and entry.allocator_seq == req.seq:
            targets = list(entry.targets)
            mshr.complete(line)
            for target in targets:
                self._do_complete_read(target, "mshr_merge")
            self._drain_mshr_waiters(req.core_id)

    def _drain_mshr_waiters(self, core_id):
        """A freed MSHR lets queued misses proceed (next cycle).

        The whole queue is resubmitted: a resubmitted request may hit the
        cache or merge rather than allocate, so popping exactly one per
        release could strand the rest.  Still-blocked requests simply
        re-queue inside submit().
        """
        waiting = self._mshr_waiting[core_id]
        if not waiting:
            return
        batch = list(waiting)
        waiting.clear()

        def resubmit():
            for req in batch:
                self.submit(req)

        self.kernel.schedule(1, resubmit)

    # ------------------------------------------------------ attacker primitive

    def flush_line(self, line_addr):
        """clflush semantics: evict the line from every cache level.

        The memory image is always architecturally current (stores update
        it when they perform), so a dirty write-back is a no-op here beyond
        the accounting.
        """
        for core_id, l1 in enumerate(self.l1s):
            entry = l1.invalidate(line_addr)
            if entry is not None:
                self._counts["hierarchy.clflush_l1"] += 1
                core = self._cores[core_id]
                if core is not None:
                    core.on_l1_eviction(line_addr)
        bank = self.bank_of(line_addr)
        if self.l2[bank].invalidate(line_addr) is not None:
            self._counts["hierarchy.clflush_l2"] += 1
        self.dirs[bank].drop(line_addr)

    # ---------------------------------------------------------- debug helpers

    def l1_state(self, core_id, addr):
        entry = self.l1s[core_id].lookup(self.space.line_of(addr), touch=False)
        return entry.state if entry is not None else MESIState.INVALID
