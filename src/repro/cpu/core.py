"""The out-of-order core.

Trace-driven 8-issue pipeline with a ROB, LQ/SQ, tournament branch
prediction, wrong-path (transient) execution, a post-retirement write
buffer, a data TLB, and pluggable security schemes (Table V) and
consistency models (TSO/RC).

Pipeline events per tick (one call per cycle, newest stage first):

1. interrupt check
2. retire up to ``issue_width`` from the ROB head
3. drain the write buffer per the consistency model
4. the InvisiSpec load engine, when the scheme has one
   (validations/exposures, deferred TLB walks)
5. dispatch up to ``issue_width`` ops from the fetch queue
6. refill the fetch queue (correct path or wrong path)

Execution itself is event-driven: an op starts executing when its operands
complete (wake-up lists), and finishes via a kernel event.  Memory
operations go through :class:`repro.coherence.CacheHierarchy`.

The core knows nothing of InvisiSpec's hardware: an IS scheme's policy
builds its load engine (:mod:`repro.invisispec.valexp`), which the core
calls as ``self.visibility`` at dispatch, an unsafe load's start and
issue, the tick, retire, squash and invalidation.  Under Base and the
fence schemes it is ``None`` and every load is safe.

Sleep and wake
--------------

A tick that does no work and sets no flag returns ``"idle"`` and the
kernel stops ticking the core (see :mod:`repro.sim.kernel`).  Everything
that can change what a tick does from outside the core's own tick is a
*waking entry point* that sets :attr:`Core.wake_requested`:

* ``_complete_entry``, which every op's completion reaches: the ALU and
  branch events (``_complete_alu``, ``_resolve_branch``) and a load's
  data (``_on_load_data``, and the engine's SB fill ``_on_line``) wake
  only through it;
* ``_issue_load_to_memory``, whose TLB-walk event moves a load out of the
  unclassified vstate that stops the in-order visibility scan;
* ``_on_store_performed``, the engine's validation/exposure completion
  ``_on_complete``, the hierarchy's ``on_invalidation``/``on_l1_eviction``,
  ``squash_load`` and ``reopen``.

Two of the engine's callbacks change nothing a tick reads, so they do
not wake: ``_on_line`` for a load a store forward already completed only
fills its SB line (an SB waiter it serves completes, and wakes), and
``_issue_deferred`` only submits a load the waking tick of the engine's
deferred-TLB stage already moved to state N.  The only time-driven
change, the timer interrupt, is the core's :attr:`Core.wake_cycle`:
while one is due or pending the kernel ticks the core at every step,
flag or not.

A tick's own changes are seen by the stages after it in the same tick
(the order above), so a tick sets the flag only for a change that an
earlier stage, or the same stage on the next tick, acts on: issuing a
validation, exposure or deferred TLB walk, or the trace running dry.
That tick then reports ``"waiting"``.  Marking a fence done, in
``_retire`` or ``_tick_fences``, needs no flag: the later stages see it,
and each op it releases wakes the core when it completes.
While asleep the core owes the kernel the idle tick's stall counters once
per skipped tick; :meth:`Core.credit_idle_ticks` pays them.
"""

from __future__ import annotations

from collections import deque

from ..coherence.hierarchy import MemRequest, RequestKind
from ..consistency import make_consistency_policy
from ..errors import SimulationError
from ..invisispec.lifecycle import advance_vstate
from ..invisispec.policy import make_scheme_policy
from ..mem.prefetcher import StridePrefetcher
from ..mem.tlb import DataTLB
from ..mem.writebuffer import WriteBuffer
from .branch import TournamentPredictor
from .icache import ICacheTrafficModel
from .interrupts import InterruptUnit
from .isa import MicroOp, OpKind
from .lsq import (
    LoadQueue,
    STATE_COMPLETE,
    STATE_EXPOSURE,
    STATE_NORMAL,
    STATE_VALIDATION,
    StoreQueue,
)
from .rob import ROBEntry, ReorderBuffer
from .tracking import (
    SQUASH_CONDITIONS,
    LazyMinTracker,
    SquashPoint,
    SquashTracker,
)
from .trace import ReplayStream

# Enum members read per op, bound once: a class attribute read of an enum
# member costs a descriptor call.
_ALU, _NOP, _FP = OpKind.ALU, OpKind.NOP, OpKind.FP
_BRANCH, _STORE, _LOAD = OpKind.BRANCH, OpKind.STORE, OpKind.LOAD
_PREFETCH, _FENCE = OpKind.PREFETCH, OpKind.FENCE
_EXCEPTION, _RELEASE = OpKind.EXCEPTION, OpKind.RELEASE

#: The trackers the core reads under every scheme: its execution gate and
#: LFENCE completion query the fence tracker.
_CORE_READS = frozenset(("fence",))

class Core:
    """One hardware thread of the simulated machine."""

    def __init__(
        self,
        core_id,
        params,
        config,
        kernel,
        hierarchy,
        trace_source,
        counters,
        max_instructions=None,
        icache_miss_rate=0.0,
        warmup_instructions=0,
        on_warmup_done=None,
        tracelog=None,
    ):
        self.core_id = core_id
        self.name = f"core{core_id}"
        self.params = params
        self.config = config
        self.kernel = kernel
        self.hierarchy = hierarchy
        self.space = hierarchy.space
        self.counters = counters
        self._counts = counters.counts
        self.max_instructions = max_instructions

        core_params = params.core
        self.width = core_params.issue_width
        self._fp_alu_latency = core_params.fp_alu_latency
        self._branch_resolve_latency = core_params.branch_resolve_latency
        self.rob = ReorderBuffer(core_params.rob_entries)
        self.lq = LoadQueue(core_params.load_queue_entries)
        self.sq = StoreQueue(core_params.store_queue_entries)

        self.policy = make_scheme_policy(config.scheme, config)
        self.consistency = make_consistency_policy(config.consistency)
        self.write_buffer = WriteBuffer(
            core_params.write_buffer_entries,
            fifo=self.consistency.fifo_write_buffer,
        )
        self.predictor = TournamentPredictor()
        self.tlb = DataTLB(params.tlb)
        self.interrupts = InterruptUnit(core_params.interrupt_interval)
        self.prefetcher = (
            StridePrefetcher(
                degree=core_params.prefetch_degree,
                line_bytes=params.line_bytes,
            )
            if core_params.prefetch_degree
            else None
        )

        node = core_id % params.network.num_nodes
        self.icache = ICacheTrafficModel(
            hierarchy.noc, node, node, icache_miss_rate
        )

        self.replay = ReplayStream(trace_source, on_end=self.wake)
        self._fetch_queue = deque()
        self._wrong_path_branch = None
        self._wp_index = 0
        self._pending_front_fence = False

        self._next_seq = 0
        self.epoch = 0
        self._live_by_pos = {}
        self._live_by_seq = {}
        self._waiters = {}  # seq -> [ROBEntry] wake-up lists
        self._fence_blocked = []
        self._interrupt_protect_seq = None

        # Only the trackers something reads are built and fed (an unread
        # one is never queried, so it never shrinks): IS-Fu/IS-Sel read
        # the five Section VIII conditions, IS-Sp the branch tracker,
        # Base and the fences none; TSO reads the fence tracker, RC the
        # sync tracker.  The fence tracker is always built, because the
        # core's own execution gate (_on_deps_ready) and LFENCE completion
        # (_tick_fences) read it under every scheme.  A judge on a core
        # it does not govern, or any later reader, adds its reads through
        # attach_load_issue_probe.  See :mod:`repro.cpu.tracking`.
        self._build_trackers(
            self.policy.reads | self.consistency.reads | _CORE_READS
        )

        #: Set by every waking entry point; cleared at the start of a tick.
        self.wake_requested = False
        # The stall counter the last tick's retire/dispatch stage bumped:
        # what a skipped idle tick would have bumped (credit_idle_ticks).
        self._retire_stall = None
        self._dispatch_stall = None

        self.tracelog = tracelog
        self.env = {}
        self.retired_instructions = 0
        self.warmup_instructions = warmup_instructions
        self._on_warmup_done = on_warmup_done
        self._warmup_reported = warmup_instructions <= 0
        self.done = False
        self.start_cycle = kernel.cycle
        self.finish_cycle = None
        #: Optional runtime sanitizer (:mod:`repro.sanitizer`): notified
        #: around USL issue, on prefetcher training, and at load commit.
        self.monitor = None
        #: Optional load-issue probe (:meth:`attach_load_issue_probe`).
        self.load_issue_probe = None
        #: The InvisiSpec load engine (:mod:`repro.invisispec.valexp`) an
        #: IS scheme's policy builds; ``None`` under Base and the fences.
        self.visibility = self.policy.make_engine(self)

        hierarchy.attach_core(core_id, self)

    # ---------------------------------------------------------- tracker hooks

    def _build_trackers(self, reads):
        """Build the trackers named in ``reads``, fresh, and bind their
        queries; the :class:`SquashPoint` only when ``reads`` holds all
        five Section VIII conditions.  A query whose tracker is unread is
        not bound, so reading it raises instead of answering "none"."""
        point = SquashPoint() if SQUASH_CONDITIONS <= reads else None
        trackers = {}
        # The point recomputes in this order: keep it.
        for name, is_active in (
            ("branch", lambda e: not e.resolved),
            ("exceptable", self._exceptable_active),
            ("store", lambda e: e.state != "retired"),
            ("unvalidated", self._unvalidated_active),
            ("fence", lambda e: not e.fence_done),
            ("sync", lambda e: e.state != "retired"),
        ):
            if name in reads:
                trackers[name] = (
                    SquashTracker(is_active, point)
                    if point is not None and name in SQUASH_CONDITIONS
                    else LazyMinTracker(is_active)
                )
        #: Tracker name -> the tracker, for every tracker this core feeds.
        self.trackers = trackers
        self.squash_point = point

        def feeds(*names):
            return tuple(trackers[n].push for n in names if n in trackers)

        # What each kind of op is pushed into at dispatch, in push order.
        self._load_feeds = feeds("exceptable", "unvalidated")
        self._branch_feeds = feeds("branch")
        self._store_feeds = feeds("exceptable", "store")
        self._fence_feeds = feeds("fence", "sync")
        self._fault_feeds = feeds("exceptable")

        self.min_incomplete_fence_seq = trackers["fence"].min_seq
        if "branch" in trackers:
            self.min_unresolved_branch_seq = trackers["branch"].min_seq
        if "sync" in trackers:
            self.min_incomplete_sync_seq = trackers["sync"].min_seq
        if point is not None:
            # IS-Future's visibility point: the seq of the oldest op that
            # can still squash a younger one, or ``None``.
            self.min_squashing_seq = point.min_seq

    def attach_load_issue_probe(self, probe, reads):
        """Call ``probe(core, rob_entry, unsafe_speculative)`` the moment
        a load issues to memory, before any cache traffic.

        ``reads`` names the trackers the probe queries, such as the
        :attr:`~repro.invisispec.policy.SchemePolicy.reads` of a policy
        it consults as a judge; the core builds those it lacks.  It
        rebuilds its trackers fresh, which is exact only with no live
        entry in the ROB: attach between runs.
        """
        if not self.rob.empty:
            raise SimulationError(
                f"{self.name}: cannot attach a load-issue probe while "
                f"{len(self.rob)} ROB entries are live"
            )
        if not reads <= self.trackers.keys():
            self._build_trackers(reads | self.trackers.keys())
        self.load_issue_probe = probe

    @staticmethod
    def _exceptable_active(entry):
        if entry.state == "retired":
            return False
        kind = entry.op.kind
        if kind.is_load_like:
            lq_entry = entry.lq_entry
            return lq_entry is None or not lq_entry.performed
        if kind is _STORE:
            sq_entry = entry.sq_entry
            return sq_entry is None or not sq_entry.addr_resolved
        return entry.op.raises_exception or kind is _EXCEPTION

    @staticmethod
    def _unvalidated_active(entry):
        if entry.state == "retired":
            return False
        lq_entry = entry.lq_entry
        if lq_entry is None:
            return True  # dispatched, LQ not yet wired (never happens live)
        state = lq_entry.vstate
        if state == STATE_COMPLETE or lq_entry.visibility_done:
            return False
        if state == STATE_EXPOSURE and lq_entry.visibility_issued:
            return False
        if state == STATE_NORMAL and entry.state == "completed":
            return False
        return True

    def request_interrupt_protection(self, seq):
        """IS-Future: open the interrupt-delay window for a USL (Section
        VI-D).  Returns False if the window cannot be opened right now."""
        if not self.interrupts.disable_until_head():
            return False
        if self._interrupt_protect_seq is None or seq > self._interrupt_protect_seq:
            self._interrupt_protect_seq = seq
        return True

    # ----------------------------------------------------------------- tick

    def tick(self):
        if self.done:
            return "done"
        now = self.kernel.cycle
        self.wake_requested = False
        self._retire_stall = self._dispatch_stall = None
        work = 0
        if self._check_interrupt(now):
            work += 1
        work += self._retire(now)
        self._tick_fences(now)
        work += self._drain_write_buffer(now)
        if self.visibility is not None and self.lq.live:
            self.visibility.tick()
        work += self._dispatch(now)
        work += self._fill_fetch_queue()
        self._counts["core.cycles"] += 1
        if self.done:
            return "done"
        if work:
            return "active"
        return "waiting" if self.wake_requested else "idle"

    # ------------------------------------------------------------ sleep/wake

    def wake(self):
        """Ask the kernel to tick this core again (a waking entry point)."""
        self.wake_requested = True

    @property
    def wake_cycle(self):
        """The cycle at which time alone changes an idle core's tick: the
        next timer interrupt (``None`` when the timer is off)."""
        return self.interrupts.next_at

    def credit_idle_ticks(self, ticks):
        """Account ``ticks`` idle ticks the kernel skipped.

        The core has not changed since its last (idle) tick, so each
        skipped tick would have bumped exactly what that tick bumped.
        """
        counts = self._counts
        counts["core.cycles"] += ticks
        if self._retire_stall is not None:
            counts[self._retire_stall] += ticks
        if self._dispatch_stall is not None:
            counts[self._dispatch_stall] += ticks

    # ------------------------------------------------------------- interrupts

    def _check_interrupt(self, now):
        next_at = self.interrupts.next_at
        if next_at is None or now < next_at:
            return False
        if not self.interrupts.should_fire(now):
            return False
        if self.rob.empty:
            return False
        self._squash_all("interrupt")
        return True

    # ----------------------------------------------------------------- fetch

    def _fill_fetch_queue(self):
        fetched = 0
        limit = 2 * self.width
        while len(self._fetch_queue) < limit:
            if self._wrong_path_branch is not None:
                op = self.replay.wrong_path_op(
                    self._wrong_path_branch.op, self._wp_index
                )
                if op is None:
                    break
                self._wp_index += 1
                pos, is_wp = None, True
            else:
                item = self.replay.fetch()
                if item is None:
                    break
                pos, op = item
                is_wp = False
            self._enqueue_fetched(pos, op, is_wp)
            fetched += 1
        if fetched:
            self.icache.on_fetch(fetched)
            self._counts["core.fetched_ops"] += fetched
        return fetched

    def _enqueue_fetched(self, pos, op, is_wrong_path):
        if self._pending_front_fence or (
            self.policy.inserts_fence_before_load and op.kind is _LOAD
        ):
            self._pending_front_fence = False
            self._fetch_queue.append((None, MicroOp(_FENCE, pc=op.pc), is_wrong_path))
        self._fetch_queue.append((pos, op, is_wrong_path))
        if self.policy.inserts_fence_after_branch and op.kind is _BRANCH:
            self._fetch_queue.append((None, MicroOp(_FENCE, pc=op.pc), is_wrong_path))

    # -------------------------------------------------------------- dispatch

    def _dispatch(self, now):
        fetch_queue = self._fetch_queue
        if not fetch_queue:
            return 0
        rob, lq, sq = self.rob, self.lq, self.sq
        counts = self._counts
        width = self.width
        dispatched = 0
        while dispatched < width and fetch_queue:
            pos, op, is_wp = fetch_queue[0]
            if rob.full:
                self._dispatch_stall = "core.rob_full_stalls"
                counts[self._dispatch_stall] += 1
                break
            kind = op.kind
            if kind.is_load_like and lq.full:
                self._dispatch_stall = "core.lq_full_stalls"
                counts[self._dispatch_stall] += 1
                break
            if kind is _STORE and sq.full:
                self._dispatch_stall = "core.sq_full_stalls"
                counts[self._dispatch_stall] += 1
                break
            fetch_queue.popleft()

            seq = self._next_seq
            self._next_seq = seq + 1
            entry = ROBEntry(op, seq, pos, is_wp, now)
            rob.push(entry)
            if self.tracelog is not None:
                self.tracelog.record(
                    now, self.core_id, "dispatch",
                    f"seq={seq} {kind.value}{' WP' if is_wp else ''}",
                )
            self._live_by_seq[seq] = entry
            if pos is not None:
                self._live_by_pos[pos] = entry
            dispatched += 1
            if self._dispatch_one(entry, op, kind, now):
                break  # the frontend was redirected
        if dispatched:
            counts["core.dispatched_ops"] += dispatched
        return dispatched

    def _dispatch_one(self, entry, op, kind, now):
        """Kind-specific dispatch work, then dependence wiring; returns
        True on a fetch redirect."""
        redirect = False
        if kind.is_load_like:
            lq_entry = self.lq.allocate(entry, self.epoch)
            if self.visibility is not None:
                self.visibility.load_dispatched(lq_entry.index)
            for push in self._load_feeds:
                push(entry)
        elif kind is _BRANCH:
            predicted, checkpoint = self.predictor.predict(op.pc)
            entry.predicted_taken = predicted
            entry.predictor_checkpoint = checkpoint
            entry.mispredicted = predicted != op.taken
            for push in self._branch_feeds:
                push(entry)
            if entry.mispredicted and not entry.is_wrong_path:
                redirect = self._enter_wrong_path(entry)
        elif kind is _STORE:
            self.sq.allocate(entry)
            for push in self._store_feeds:
                push(entry)
        elif kind.is_fence_like:
            for push in self._fence_feeds:
                push(entry)
        elif kind is _EXCEPTION or op.raises_exception:
            for push in self._fault_feeds:
                push(entry)
            if kind is _EXCEPTION and not entry.is_wrong_path:
                # A faulting instruction redirects the frontend: the
                # transient continuation (Meltdown-style access/transmit
                # pairs) is supplied as the op's wrong-path arm and is
                # squashed — never architecturally re-fetched — when the
                # exception retires.
                redirect = self._enter_wrong_path(entry)

        # Wire the dependences: wait on every producer still executing.
        pending = 0
        if op.deps:
            pos = entry.stream_pos
            for distance in op.deps:
                # Stream-positional for correct-path ops (squash-stable),
                # seq-relative for wrong-path ops.
                if pos is not None:
                    producer = self._live_by_pos.get(pos - distance)
                elif entry.seq >= distance:
                    producer = self._live_by_seq.get(entry.seq - distance)
                else:
                    producer = None
                if (
                    producer is not None
                    and not producer.squashed
                    and producer.state != "completed"
                ):
                    pending += 1
                    waiters = self._waiters.get(producer.seq)
                    if waiters is None:
                        self._waiters[producer.seq] = [entry]
                    else:
                        waiters.append(entry)
        entry.pending_deps = pending
        if pending == 0:
            self._on_deps_ready(entry, now)
        return redirect

    def _enter_wrong_path(self, branch_entry):
        """Frontend follows the misprediction: purge the queued correct-path
        ops, rewind the replay stream, and start the wrong-path stream."""
        self._fetch_queue.clear()
        if branch_entry.stream_pos is not None:
            self.replay.rewind_to(branch_entry.stream_pos + 1)
        self._wrong_path_branch = branch_entry
        self._wp_index = 0
        if (
            self.policy.inserts_fence_after_branch
            and branch_entry.op.kind is _BRANCH
        ):
            # The architectural fence after the branch exists on both arms;
            # the wrong path must fetch it too, or Fence-Spectre would not
            # actually block transient execution.  Exception shadows get no
            # such fence — Fence-Spectre does not defend them.
            self._pending_front_fence = True
        self._counts["core.wrong_path_entries"] += 1
        return True

    # ------------------------------------------------------------- execution

    def _on_deps_ready(self, entry, now):
        if entry.squashed:
            return
        fence_seq = self.min_incomplete_fence_seq()
        if fence_seq is not None and fence_seq < entry.seq:
            self._fence_blocked.append(entry)
            return
        entry.state = "executing"
        op = entry.op
        kind = op.kind
        if kind is _ALU or kind is _NOP:
            self.kernel.schedule(
                max(op.latency, 1), lambda: self._complete_alu(entry)
            )
        elif kind.is_load_like:
            self._start_load(entry, now)
        elif kind is _BRANCH:
            delay = max(op.latency, self._branch_resolve_latency)
            self.kernel.schedule(delay, lambda: self._resolve_branch(entry))
        elif kind is _FP:
            self.kernel.schedule(
                max(op.latency, self._fp_alu_latency),
                lambda: self._complete_alu(entry),
            )
        elif kind is _STORE:
            self._resolve_store(entry, now)
        elif kind.is_fence_like or kind is _EXCEPTION:
            # Fences/acquires/releases "complete" at dispatch; their ordering
            # effect is enforced at retire and via the execution gate.
            self._complete_entry(entry)
        else:
            raise SimulationError(f"cannot execute {entry.op!r}")

    def _release_fence_blocked(self, now):
        if not self._fence_blocked:
            return
        blocked, self._fence_blocked = self._fence_blocked, []
        for entry in blocked:
            if not entry.squashed:
                self._on_deps_ready(entry, now)

    def _complete_alu(self, entry):
        if entry.squashed:
            return
        op = entry.op
        if op.compute_fn is not None and op.dst is not None:
            self.env[op.dst] = op.compute_fn(self.env)
            entry.value = self.env[op.dst]
        self._complete_entry(entry)

    def _complete_entry(self, entry):
        if entry.squashed or entry.state == "completed":
            return
        self.wake_requested = True
        entry.state = "completed"
        entry.complete_cycle = self.kernel.cycle
        now = self.kernel.cycle
        for waiter in self._waiters.pop(entry.seq, ()):
            if waiter.squashed:
                continue
            waiter.pending_deps -= 1
            if waiter.pending_deps == 0:
                self._on_deps_ready(waiter, now)

    # -------------------------------------------------------------- branches

    def _resolve_branch(self, entry):
        if entry.squashed or entry.resolved:
            return
        entry.resolved = True
        op = entry.op
        if not entry.is_wrong_path:
            self.predictor.update(
                op.pc, op.taken, entry.predictor_checkpoint, entry.mispredicted
            )
            self._counts["core.branches_resolved"] += 1
            if entry.mispredicted:
                self._counts["core.branch_mispredicts"] += 1
                self._squash_branch(entry)
        self._complete_entry(entry)

    def _squash_branch(self, branch_entry):
        # predictor.update() already repaired the global history with the
        # architectural outcome; the generic checkpoint restore would
        # clobber it with the *mispredicted* bit.
        self._squash_after(
            branch_entry.seq,
            branch_entry.stream_pos + 1 if branch_entry.stream_pos is not None else None,
            "branch",
            restore_history=False,
        )

    # ----------------------------------------------------------------- loads

    def _start_load(self, entry, now):
        op = entry.op
        lq_entry = entry.lq_entry
        addr = op.addr if op.addr is not None else op.addr_fn(self.env)
        size = op.size
        lq_entry.addr = addr
        lq_entry.size = size
        self.lq.set_line(lq_entry, self.space.line_of(addr))
        lq_entry.epoch = self.epoch
        entry.addr = addr

        # A scheme without a load engine deems every load safe.
        visibility = self.visibility
        if visibility is not None and not self.policy.load_is_safe(self, entry):
            if visibility.start_usl(entry, lq_entry):
                self._issue_load_to_memory(entry, True)
            return

        vpn = self.space.page_of(addr)
        if not self.tlb.lookup(vpn, update_state=True):
            self.tlb.fill(vpn)
            self.kernel.schedule(
                self.params.tlb.walk_latency,
                lambda: self._issue_load_to_memory(entry, unsafe_speculative=False),
            )
            return

        self._issue_load_to_memory(entry, False)

    def _issue_load_to_memory(self, entry, unsafe_speculative):
        """Issue a load whose translation is done (or, for an unsafe
        speculative load, probed): the load engine takes the USL's half."""
        if entry.squashed:
            return
        self.wake_requested = True
        op = entry.op
        lq_entry = entry.lq_entry
        lq_entry.issued = True
        addr = lq_entry.addr

        if self.load_issue_probe is not None:
            self.load_issue_probe(self, entry, unsafe_speculative)

        forwarded = self._try_store_forward(entry, lq_entry, addr, lq_entry.size)

        if unsafe_speculative:
            self.visibility.issue_usl(entry, lq_entry, forwarded)
            return
        advance_vstate(lq_entry, STATE_NORMAL)
        self._train_prefetcher(op.pc, addr, lq_entry=lq_entry)
        if forwarded:
            self._finish_load_local(entry, lq_entry)
            return
        kind = RequestKind.PREFETCH if op.kind is _PREFETCH else RequestKind.LOAD
        self._submit_load(entry, lq_entry, kind, self._on_load_data)

    def _try_store_forward(self, entry, lq_entry, addr, size):
        """Forward from the SQ (in-flight stores) or the write buffer."""
        store = self.sq.forwarding_store(entry.seq, addr, size)
        value = None
        if store is not None:
            shift = (addr - store.addr) * 8
            value = (store.value >> shift) & ((1 << (8 * size)) - 1)
        else:
            wb_entry = self.write_buffer.pending_store_to(addr, size, self.space)
            if (
                wb_entry is not None
                and wb_entry.addr <= addr
                and addr + size <= wb_entry.addr + wb_entry.size
            ):
                shift = (addr - wb_entry.addr) * 8
                value = (wb_entry.value >> shift) & ((1 << (8 * size)) - 1)
        if value is None:
            return False
        entry.value = value
        if entry.op.dst is not None:
            self.env[entry.op.dst] = value
        lq_entry.forwarded = True
        self._counts["core.store_forwards"] += 1
        return True

    def _submit_load(self, entry, lq_entry, kind, on_data):
        """Send a load's request; ``on_data(entry, lq_entry, result)`` gets
        the reply."""
        request = MemRequest(
            core_id=self.core_id,
            addr=lq_entry.addr,
            size=lq_entry.size,
            kind=kind,
            seq=entry.seq,
            lq_index=lq_entry.index,
            epoch=self.epoch,
            on_complete=lambda result: on_data(entry, lq_entry, result),
        )
        self.hierarchy.submit(request)

    def _on_load_data(self, entry, lq_entry, result):
        """A visible load's data arrived."""
        if entry.squashed or not lq_entry.valid or lq_entry.forwarded:
            return
        self._finish_load_value(entry, lq_entry, result.data)

    def _finish_load_value(self, entry, lq_entry, data):
        """Deliver load bytes to the register file and wake dependents."""
        value = int.from_bytes(bytes(data), "little")
        entry.value = value
        if entry.op.dst is not None:
            self.env[entry.op.dst] = value
        lq_entry.performed = True
        self._counts["core.loads_performed"] += 1
        self._complete_entry(entry)

    def _finish_load_local(self, entry, lq_entry):
        lq_entry.performed = True
        self._counts["core.loads_performed"] += 1
        self._complete_entry(entry)

    # -------------------------------------------------------- hw prefetcher

    def _train_prefetcher(self, pc, addr, lq_entry=None):
        """Train the stride prefetcher on a *visible* access and issue the
        prefetches it proposes as ordinary cache fills.

        Under InvisiSpec only visible accesses reach this point: USLs train
        the prefetcher at their visibility point instead (Section VI-B), so
        a squashed transient load can never leave prefetch footprints.  The
        sanitizer audits exactly that via ``lq_entry`` (when the caller is
        a load): training by a pre-visibility USL is a violation.
        """
        if self.monitor is not None:
            self.monitor.on_prefetcher_train(self, pc, addr, lq_entry)
        if self.prefetcher is None:
            return
        for prefetch_addr in self.prefetcher.train(pc, addr):
            self._counts["core.hw_prefetches_issued"] += 1
            request = MemRequest(
                core_id=self.core_id,
                addr=prefetch_addr,
                size=8,
                kind=RequestKind.PREFETCH,
                seq=self._next_seq + (1 << 30),  # outside program order
                on_complete=None,
            )
            self.hierarchy.submit(request)

    # ---------------------------------------------------------------- stores

    def _resolve_store(self, entry, now):
        op = entry.op
        sq_entry = entry.sq_entry
        addr = op.addr if op.addr is not None else op.addr_fn(self.env)
        value = (
            op.store_value_fn(self.env)
            if op.store_value_fn is not None
            else op.store_value
        )
        sq_entry.addr = addr
        sq_entry.size = op.size
        sq_entry.value = value
        sq_entry.addr_resolved = True
        entry.addr = addr

        vpn = self.space.page_of(addr)
        if not self.tlb.lookup(vpn, update_state=True, is_store=True):
            self.tlb.fill(vpn, is_store=True)
            self.kernel.schedule(
                self.params.tlb.walk_latency, lambda: self._complete_entry(entry)
            )
        else:
            self._complete_entry(entry)

        self._check_store_load_alias(entry, sq_entry)

    def _check_store_load_alias(self, store_entry, sq_entry):
        """Memory-dependence misspeculation (the SSB surface, Section IV):
        a younger load already performed against stale data."""
        victim = None
        store_seq = store_entry.seq
        for lq_entry in self.lq.live:
            if lq_entry.rob.seq < store_seq or not lq_entry.valid:
                continue
            # Any younger load already *issued* against memory read (or will
            # read) stale data: it bypassed this store.  Loads that have not
            # issued yet will pick the store up via forwarding.
            if not lq_entry.issued or lq_entry.forwarded:
                continue
            if lq_entry.rob.is_wrong_path:
                continue
            if lq_entry.addr is None:
                continue
            if (
                lq_entry.addr < sq_entry.addr + sq_entry.size
                and sq_entry.addr < lq_entry.addr + lq_entry.size
            ):
                victim = lq_entry
                break
        if victim is not None:
            self._counts["core.store_load_alias_squashes"] += 1
            self.squash_load(victim, reason="store_alias")

    # ---------------------------------------------------------------- retire

    def _retire(self, now):
        rob = self.rob
        counts = self._counts
        retired = 0
        while retired < self.width:
            head = rob.head()
            if head is None:
                self._maybe_finish()
                break
            op = head.op
            kind = op.kind

            if kind.is_fence_like:
                # A release must drain the write buffer before retiring;
                # plain fences/acquires were completed by _tick_fences (or
                # complete trivially here at the head).
                if kind is _RELEASE and not self.write_buffer.empty:
                    self._retire_stall = "core.fence_drain_stall_cycles"
                    counts[self._retire_stall] += 1
                    break
                if not head.fence_done:
                    head.fence_done = True

            if head.state != "completed":
                break

            if kind.is_load_like:
                lq_entry = head.lq_entry
                vstate = lq_entry.vstate
                if vstate == STATE_VALIDATION and not lq_entry.visibility_done:
                    self._retire_stall = "invisispec.validation_stall_cycles"
                    counts[self._retire_stall] += 1
                    break
                if vstate == STATE_EXPOSURE and not lq_entry.visibility_issued:
                    break  # exposure must at least be on the wire
                if (
                    self.monitor is not None
                    and kind is _LOAD
                    and lq_entry.performed
                ):
                    self.monitor.on_load_commit(self, lq_entry, head.value)
                retired_lq = self.lq.retire_head()
                if retired_lq is not lq_entry:
                    raise SimulationError("LQ head does not match retiring load")
                lq_entry.valid = False
                if self.visibility is not None:
                    self.visibility.load_retired(lq_entry.index)
                head.lq_entry = None  # leaves no ROB <-> LQ cycle behind
            elif kind is _STORE:
                if self.write_buffer.full:
                    self._retire_stall = "core.wb_full_stalls"
                    counts[self._retire_stall] += 1
                    break
                sq_entry = head.sq_entry
                retired_sq = self.sq.retire_head()
                if retired_sq is not sq_entry:
                    raise SimulationError("SQ head does not match retiring store")
                self.write_buffer.push(
                    sq_entry.addr,
                    sq_entry.size,
                    sq_entry.value,
                    head.seq,
                    is_release=False,
                )
                head.sq_entry = None
            elif kind is _EXCEPTION or op.raises_exception:
                counts["core.exceptions"] += 1
                refetch = (
                    head.stream_pos + 1 if head.stream_pos is not None else None
                )
                self._squash_after(head.seq, refetch, "exception")

            rob.pop_head()
            head.state = "retired"
            if self.tracelog is not None:
                self.tracelog.record(
                    now, self.core_id, "retire",
                    f"seq={head.seq} {kind.value}",
                )
            seq = head.seq
            self._live_by_seq.pop(seq, None)
            self._waiters.pop(seq, None)
            pos = head.stream_pos
            if pos is not None:
                self.replay.retire(pos)
                self._live_by_pos.pop(pos, None)
                self.retired_instructions += 1
                counts["core.retired_instructions"] += 1
                if (
                    not self._warmup_reported
                    and self.retired_instructions >= self.warmup_instructions
                ):
                    self._warmup_reported = True
                    if self._on_warmup_done is not None:
                        self._on_warmup_done(self.core_id)
            retired += 1
            if (
                self._interrupt_protect_seq is not None
                and seq >= self._interrupt_protect_seq
            ):
                self._interrupt_protect_seq = None
                self.interrupts.on_head_retired(now)
            if kind.is_fence_like:
                self._release_fence_blocked(now)
            if (
                self.max_instructions is not None
                and self.retired_instructions >= self.max_instructions
            ):
                self._finish()
                break
        return retired

    def _tick_fences(self, now):
        """LFENCE semantics: a fence (or acquire) completes once every older
        instruction has completed locally — it need not reach the ROB head.
        Releases additionally wait for the write buffer and are handled at
        retire."""
        fence_seq = self.min_incomplete_fence_seq()
        if fence_seq is None:
            return
        fence_entry = None
        for entry in self.rob:
            if entry.seq >= fence_seq:
                fence_entry = entry if entry.seq == fence_seq else None
                break
            if entry.state != "completed":
                return  # an older instruction is still executing
        if fence_entry is None or fence_entry.op.kind is _RELEASE:
            return
        if not self.write_buffer.empty and fence_entry.op.kind is _FENCE:
            # Treat an explicit workload FENCE op as a full fence only when
            # it was not injected by a defense scheme (defensive fences are
            # LFENCEs); injected fences have no stream position.
            if fence_entry.stream_pos is not None:
                return
        fence_entry.fence_done = True
        self._release_fence_blocked(now)

    def _maybe_finish(self):
        if (
            self.replay.exhausted
            and not self._fetch_queue
            and self._wrong_path_branch is None
            and self.rob.empty
            and self.write_buffer.empty
        ):
            self._finish()

    def _finish(self):
        if not self.done:
            self.done = True
            self.finish_cycle = self.kernel.cycle
            self.counters.set("core.finish_cycle", self.finish_cycle)

    def reopen(self):
        """Resume a finished core after its trace source was extended
        (multi-phase attack experiments)."""
        self.wake_requested = True
        self.done = False
        self.finish_cycle = None
        self.replay.reopen()

    # ----------------------------------------------------------- write buffer

    def _drain_write_buffer(self, now):
        candidates = self.write_buffer.drain_candidates()
        for wb_entry in candidates:
            self.write_buffer.mark_inflight(wb_entry)
            request = MemRequest(
                core_id=self.core_id,
                addr=wb_entry.addr,
                size=wb_entry.size,
                kind=RequestKind.STORE,
                seq=wb_entry.seq,
                store_value=wb_entry.value,
                on_complete=lambda result, e=wb_entry: self._on_store_performed(e),
            )
            self.hierarchy.submit(request)
        return len(candidates)

    def _on_store_performed(self, wb_entry):
        self.wake_requested = True
        self.write_buffer.retire_entry(wb_entry)
        self._counts["core.stores_performed"] += 1

    # ------------------------------------------------------------- squashing

    def squash_load(self, lq_entry, reason):
        """Squash a load and everything younger; the load re-executes."""
        entry = lq_entry.rob
        if entry.squashed or not lq_entry.valid or entry.state == "retired":
            return
        if entry.is_wrong_path:
            return  # will die with its branch anyway
        self.wake_requested = True
        self._squash_after(entry.seq - 1, entry.stream_pos, reason)

    def _squash_all(self, reason):
        self._squash_after(-1, self.replay.retire_pos, reason)

    def _squash_after(self, boundary_seq, refetch_pos, reason,
                      restore_history=True):
        squashed = self.rob.squash_after(boundary_seq)
        self._counts[f"core.squashes.{reason}"] += 1
        self._counts["core.squashed_ops"] += len(squashed)
        if self.tracelog is not None:
            self.tracelog.record(
                self.kernel.cycle, self.core_id, "squash",
                f"{reason}: {len(squashed)} ops after seq={boundary_seq}",
            )

        min_lq = None
        min_sq = None
        oldest_branch_checkpoint = None
        for entry in squashed:
            # A squashed op keeps no pointer into the LQ/SQ: the dropped
            # queue entry's ``rob`` link is then the pair's only edge.
            if entry.lq_entry is not None:
                idx = entry.lq_entry.index
                min_lq = idx if min_lq is None else min(min_lq, idx)
                entry.lq_entry = None
            if entry.sq_entry is not None:
                idx = entry.sq_entry.index
                min_sq = idx if min_sq is None else min(min_sq, idx)
                entry.sq_entry = None
            if (
                entry.op.kind is _BRANCH
                and not entry.resolved
                and not entry.is_wrong_path
                and entry.predictor_checkpoint is not None
            ):
                oldest_branch_checkpoint = entry.predictor_checkpoint
            if entry.stream_pos is not None:
                live = self._live_by_pos.get(entry.stream_pos)
                if live is entry:
                    del self._live_by_pos[entry.stream_pos]
            self._live_by_seq.pop(entry.seq, None)
            self._waiters.pop(entry.seq, None)

        if min_lq is not None:
            visibility = self.visibility
            for dropped in self.lq.squash_to(min_lq):
                dropped.valid = False
                if visibility is not None:
                    visibility.load_squashed(dropped.index)
        if min_sq is not None:
            self.sq.squash_to(min_sq)

        if restore_history and oldest_branch_checkpoint is not None:
            self.predictor.squash_restore(oldest_branch_checkpoint)

        self._fetch_queue.clear()
        self._wrong_path_branch = None
        self._wp_index = 0
        if refetch_pos is not None:
            self.replay.rewind_to(refetch_pos)
        if self.policy.inserts_fence_after_branch and reason == "branch":
            # The architectural fence after the branch is re-fetched with
            # the corrected path.
            self._pending_front_fence = True
        self.epoch += 1
        # A squash aborts any open interrupt-delay window.
        self._interrupt_protect_seq = None
        self.interrupts.on_head_retired(self.kernel.cycle)

    # -------------------------------------------------- hierarchy callbacks

    def on_invalidation(self, line_addr, reason):
        """An invalidation for ``line_addr`` arrived at this L1."""
        self.wake_requested = True
        self._counts["core.invalidations_received"] += 1
        if self.visibility is not None:
            self.visibility.on_invalidation(line_addr)
        self._conventional_consistency_check(line_addr, eviction=False)

    def on_l1_eviction(self, line_addr):
        self.wake_requested = True
        self._counts["core.l1_evictions_seen"] += 1
        if self.visibility is not None:
            # InvisiSpec does not squash on evictions: E-marked loads are
            # protected by their exposure, V-marked by their validation
            # (Section IX-C).
            return
        # The other schemes squash on an eviction as existing processors
        # conservatively do (Section IX-C).
        self._conventional_consistency_check(line_addr, eviction=True)

    def _conventional_consistency_check(self, line_addr, eviction):
        """Squash a performed, unretired, visibly-loaded load on its line's
        invalidation/eviction, per the consistency model (Section II-B)."""
        for lq_entry in self.lq.loads_to_line(line_addr):
            if not lq_entry.valid or not lq_entry.performed:
                continue
            if lq_entry.forwarded:
                continue
            if lq_entry.rob.is_wrong_path or lq_entry.rob.state == "retired":
                continue
            if lq_entry.vstate not in (None, STATE_NORMAL):
                continue  # USLs are handled by the visibility engine
            if not self.consistency.squash_on_invalidation(self, lq_entry):
                continue
            self._counts[
                "core.eviction_squashes" if eviction else "core.invalidation_squashes"
            ] += 1
            self.squash_load(lq_entry, reason="consistency")
            return

    def release(self):
        """Cut the core's back-edges once its run is over.

        The visibility engine's ``core`` link, the replay stream's end
        hook, the warm-up callback and the LQ/SQ pointers of ops still in
        the ROB.  Retired state, counters and the caches stay readable.
        """
        if self.visibility is not None:
            self.visibility.core = None
        self.replay.on_end = None
        self._on_warmup_done = None
        for entry in self.rob:
            entry.lq_entry = entry.sq_entry = None

    # ------------------------------------------------------------ inspection

    @property
    def cycles(self):
        return (self.finish_cycle or self.kernel.cycle) - self.start_cycle

    @property
    def ipc(self):
        return self.retired_instructions / max(self.cycles, 1)  # reprolint: disable=float-cycles -- IPC is a reported metric; nothing cycle-affecting consumes this float
