"""Deterministic synthetic trace generation from a workload profile.

The generator emits an endless correct-path stream whose statistics follow
the profile, plus wrong-path streams for mispredicted branches (derived
deterministically from the branch op's identity, so a given branch always
spills the same transient instructions).

Memory layout per core (core *c*):

* random region   — ``0x1000_0000 * (c+1)``: ``footprint_lines`` lines
  spread over ``pages`` pages; a ``hot_lines`` prefix takes
  ``hot_fraction`` of the non-streaming accesses.
* streaming region — above the random region; unit-stride walk, wraps.
* shared region   — ``0x7000_0000`` (PARSEC): common to all cores, source
  of cross-core invalidations and consistency squashes.

Bounded draws.  ``next_op`` and ``wrong_path_op`` run for every op the
pipeline fetches, and ``skip`` for every op pre-training walks, so they
are flat code: what they read is bound to locals, the random-region
address is their only helper call, and every bounded draw is written out
as the rejection loop CPython's ``Random.randrange(n)`` runs for
``n > 0``: draw ``getrandbits(n.bit_length())`` until the value is below
``n``.  That takes the same numbers from the same generator state as
``randrange(n)`` without its two Python-level calls.  The bit widths are
fixed per trace; ``tests/workloads/test_bounded_draws.py`` pins the
equivalence for every bound the generator uses.
"""

from __future__ import annotations

import random

from ..cpu.isa import MicroOp, OpKind
from ..cpu.trace import TraceSource

_STREAM_LINES = 1 << 16  # 4 MB streaming window, larger than the L2 slice
_SHARED_BASE = 0x7000_0000
_LINE = 64
_LINES_PER_PAGE = 4096 // _LINE
_STREAM_BYTES = _STREAM_LINES * _LINE

#: Bounds of the fixed-size draws, and their ``getrandbits`` widths.
_PC_SLOTS = 4096  # correct-path load/store/ALU PCs
_WP_PC_SLOTS = 1024  # wrong-path load/ALU PCs
_WORDS_PER_LINE = 8  # 8-byte word within a line
_STORE_VALUES = 1 << 16
_PC_BITS = _PC_SLOTS.bit_length()
_WP_PC_BITS = _WP_PC_SLOTS.bit_length()
_WORD_BITS = _WORDS_PER_LINE.bit_length()
_PAGE_LINE_BITS = _LINES_PER_PAGE.bit_length()
_STORE_VALUE_BITS = _STORE_VALUES.bit_length()

# Ops pass pc and addr positionally and leave size at MicroOp's default of
# 8 bytes: keyword arguments cost more than the rest of an op's fields.
_LOAD, _STORE, _BRANCH = OpKind.LOAD, OpKind.STORE, OpKind.BRANCH
_ALU, _FP = OpKind.ALU, OpKind.FP


class SyntheticTrace(TraceSource):
    """Endless profile-driven instruction stream for one core."""

    def __init__(self, profile, seed=0, core_id=0):
        self.profile = profile
        self.core_id = core_id
        self.rng = random.Random((seed + 1) * 0x9E3779B1 + core_id)
        self._random = self.rng.random
        self._getrandbits = self.rng.getrandbits
        self._base = 0x1000_0000 * (core_id + 1)
        self._stream_base = self._base + 0x0800_0000
        self._stream_pos = 0
        self._recent_pages = []  # small working set of recently-touched pages
        self._branch_bias = self._make_branch_biases(profile, seed, core_id)
        self._ops_since_load = 99
        self._forced = []  # queued ops (critical sections)
        self._sync_countdown = profile.sync_interval or 0
        self._wp_seed_base = (seed + 1) * 2_654_435_761 + core_id * 97
        # Reseeded by every wrong_path_op: seed(x) leaves it in the state
        # Random(x) starts in, without building a generator per op.
        self._wp_rng = random.Random(0)
        self._branch_salts = {}  # branch op uid -> emission index
        self._branches_emitted = 0
        # Op-mix thresholds, summed in the order the draws compare them.
        self._store_cut = profile.load_frac + profile.store_frac
        self._branch_cut = self._store_cut + profile.branch_frac
        self._wp_load_cut = profile.load_frac + 0.10
        self._wp_branch_cut = self._wp_load_cut + profile.branch_frac
        # Profile-sized draw bounds and their getrandbits widths.
        self._hot_lines = min(profile.hot_lines, profile.footprint_lines)
        self._hot_bits = self._hot_lines.bit_length()
        self._footprint_bits = profile.footprint_lines.bit_length()
        self._shared_bits = profile.shared_lines.bit_length()
        self._branch_pc_bits = profile.branch_pcs.bit_length()

    @staticmethod
    def _make_branch_biases(profile, seed, core_id):
        """Per-PC taken bias; the tournament predictor's asymptotic
        misprediction rate on a bias-b Bernoulli branch is ~min(b, 1-b)."""
        rng = random.Random(seed * 7919 + core_id + 13)
        target = profile.branch_mispredict_target
        biases = {}
        for i in range(profile.branch_pcs):
            pc = 0x40_0000 + 4 * i
            jitter = (rng.random() - 0.5) * min(target, 0.08)
            bias = min(max(1.0 - target + jitter, 0.5), 1.0)
            if rng.random() < 0.5:
                bias = 1.0 - bias  # mostly-not-taken branches
            biases[pc] = bias
        return biases

    # ------------------------------------------------------------- addresses

    _RECENT_PAGE_WINDOW = 48

    def _random_region_addr(self, random_, getrandbits, track_pages=True):
        """An address in the random region: the hot set, a recently-touched
        page (TLB locality) or anywhere in the footprint.

        ``random_`` and ``getrandbits`` are bound methods of the generator
        to draw from.  ``track_pages=False`` for wrong-path generation:
        transient ops must not mutate generator state, or the committed
        stream would differ between schemes."""
        profile = self.profile
        if random_() < profile.hot_fraction:
            bound, bits = self._hot_lines, self._hot_bits
            line = getrandbits(bits)
            while line >= bound:
                line = getrandbits(bits)
        else:
            recent = self._recent_pages
            bound, bits = profile.footprint_lines, self._footprint_bits
            if recent and random_() < profile.tlb_locality:
                count = len(recent)
                count_bits = count.bit_length()
                pick = getrandbits(count_bits)
                while pick >= count:
                    pick = getrandbits(count_bits)
                offset = getrandbits(_PAGE_LINE_BITS)
                while offset >= _LINES_PER_PAGE:
                    offset = getrandbits(_PAGE_LINE_BITS)
                line = recent[pick] * _LINES_PER_PAGE + offset
                if line >= bound:
                    line = getrandbits(bits)
                    while line >= bound:
                        line = getrandbits(bits)
            else:
                line = getrandbits(bits)
                while line >= bound:
                    line = getrandbits(bits)
            if track_pages:
                page = line // _LINES_PER_PAGE
                if page not in recent:
                    recent.append(page)
                    if len(recent) > self._RECENT_PAGE_WINDOW:
                        recent.pop(0)
        word = getrandbits(_WORD_BITS)
        while word >= _WORDS_PER_LINE:
            word = getrandbits(_WORD_BITS)
        return self._base + line * _LINE + 8 * word

    # ------------------------------------------------------------ correct path

    def next_op(self):
        """The next correct-path op.

        :meth:`skip` makes these draws, in this order, without building
        the ops; a change to the draws here must be mirrored there.
        """
        forced = self._forced
        if forced:
            return forced.pop(0)
        profile = self.profile
        getrandbits = self._getrandbits
        if profile.sync_interval:
            self._sync_countdown -= 1
            if self._sync_countdown <= 0:
                self._sync_countdown = profile.sync_interval
                self._queue_critical_section()
                return forced.pop(0)

        random_ = self._random
        r = random_()
        if r < self._store_cut:
            # Load or store: shared region, streaming walk or random region.
            shared_fraction = profile.shared_fraction
            stride_fraction = profile.stride_fraction
            if shared_fraction and random_() < shared_fraction:
                bound, bits = profile.shared_lines, self._shared_bits
                line = getrandbits(bits)
                while line >= bound:
                    line = getrandbits(bits)
                word = getrandbits(_WORD_BITS)
                while word >= _WORDS_PER_LINE:
                    word = getrandbits(_WORD_BITS)
                addr = _SHARED_BASE + line * _LINE + 8 * word
            elif stride_fraction and random_() < stride_fraction:
                # Unit-stride 8-byte walk: one new line every 8 accesses,
                # which is what produces streaming MPKIs in the paper's
                # ~30/kilo-instruction range (Section IX-B) rather than a
                # miss per access.
                pos = self._stream_pos
                addr = self._stream_base + (pos * 8) % _STREAM_BYTES
                self._stream_pos = pos + 1
            else:
                addr = self._random_region_addr(random_, getrandbits)

            if r < profile.load_frac:
                deps = ()
                since = self._ops_since_load
                dep_fraction = profile.load_dep_fraction
                if dep_fraction and since < 8 and random_() < dep_fraction:
                    # Pointer chase: address generation waits for the last
                    # load.
                    deps = (since + 1,)
                self._ops_since_load = 0
                slot = getrandbits(_PC_BITS)
                while slot >= _PC_SLOTS:
                    slot = getrandbits(_PC_BITS)
                return MicroOp(_LOAD, 0x10_0000 + 4 * slot, addr, deps=deps)

            slot = getrandbits(_PC_BITS)
            while slot >= _PC_SLOTS:
                slot = getrandbits(_PC_BITS)
            value = getrandbits(_STORE_VALUE_BITS)
            while value >= _STORE_VALUES:
                value = getrandbits(_STORE_VALUE_BITS)
            return MicroOp(_STORE, 0x20_0000 + 4 * slot, addr, store_value=value)

        since = self._ops_since_load
        self._ops_since_load = since + 1
        if r < self._branch_cut:
            bound, bits = profile.branch_pcs, self._branch_pc_bits
            slot = getrandbits(bits)
            while slot >= bound:
                slot = getrandbits(bits)
            pc = 0x40_0000 + 4 * slot
            taken = random_() < self._branch_bias[pc]
            deps = ()
            if since < 8 and random_() < profile.branch_dep_fraction:
                deps = (since + 1,)
            op = MicroOp(_BRANCH, pc, taken=taken, deps=deps, latency=2)
            self._branch_salts[op.uid] = self._branches_emitted
            self._branches_emitted += 1
            return op

        deps = ()
        if since < 8 and random_() < profile.alu_dep_fraction:
            deps = (since + 1,)
        if random_() < profile.fp_fraction:
            kind, latency = _FP, 3
        else:
            kind, latency = _ALU, 1
        slot = getrandbits(_PC_BITS)
        while slot >= _PC_SLOTS:
            slot = getrandbits(_PC_BITS)
        return MicroOp(kind, 0x30_0000 + 4 * slot, deps=deps, latency=latency)

    def skip(self, ops, on_branch):
        """Advance past ``ops`` correct-path ops without building them.

        The trace ends in the state ``ops`` calls of :meth:`next_op` leave
        it in: the same draws in the same order, the same recent pages,
        streaming position, load distance, sync countdown, queued critical
        section and branch count, so the ops that follow (and their wrong
        paths) are the ones ``next_op`` would have given.  Each branch
        skipped is passed to ``on_branch(pc, taken)`` in stream order.

        A change to :meth:`next_op`'s draws must be mirrored here;
        ``tests/workloads/test_skip.py`` keeps the two in step.
        """
        profile = self.profile
        forced = self._forced
        random_ = self._random
        getrandbits = self._getrandbits
        random_region_addr = self._random_region_addr
        sync_interval = profile.sync_interval
        load_frac = profile.load_frac
        store_cut, branch_cut = self._store_cut, self._branch_cut
        shared_fraction = profile.shared_fraction
        stride_fraction = profile.stride_fraction
        load_dep_fraction = profile.load_dep_fraction
        shared_lines, shared_bits = profile.shared_lines, self._shared_bits
        branch_pcs, branch_pc_bits = profile.branch_pcs, self._branch_pc_bits
        branch_bias = self._branch_bias
        since = self._ops_since_load
        countdown = self._sync_countdown
        stream_steps = branches = 0
        try:
            for _ in range(ops):
                if forced:
                    del forced[0]
                    continue
                if sync_interval:
                    countdown -= 1
                    if countdown <= 0:
                        countdown = sync_interval
                        self._queue_critical_section()
                        del forced[0]
                        continue

                r = random_()
                if r < store_cut:
                    if shared_fraction and random_() < shared_fraction:
                        line = getrandbits(shared_bits)
                        while line >= shared_lines:
                            line = getrandbits(shared_bits)
                        word = getrandbits(_WORD_BITS)
                        while word >= _WORDS_PER_LINE:
                            word = getrandbits(_WORD_BITS)
                    elif stride_fraction and random_() < stride_fraction:
                        stream_steps += 1
                    else:
                        random_region_addr(random_, getrandbits)
                    if r < load_frac:
                        if load_dep_fraction and since < 8:
                            random_()  # load_dep_fraction
                        since = 0
                        slot = getrandbits(_PC_BITS)
                        while slot >= _PC_SLOTS:
                            slot = getrandbits(_PC_BITS)
                    else:
                        slot = getrandbits(_PC_BITS)
                        while slot >= _PC_SLOTS:
                            slot = getrandbits(_PC_BITS)
                        value = getrandbits(_STORE_VALUE_BITS)
                        while value >= _STORE_VALUES:
                            value = getrandbits(_STORE_VALUE_BITS)
                elif r < branch_cut:
                    slot = getrandbits(branch_pc_bits)
                    while slot >= branch_pcs:
                        slot = getrandbits(branch_pc_bits)
                    pc = 0x40_0000 + 4 * slot
                    taken = random_() < branch_bias[pc]
                    if since < 8:
                        random_()  # branch_dep_fraction
                    since += 1
                    branches += 1
                    on_branch(pc, taken)
                else:
                    if since < 8:
                        random_()  # alu_dep_fraction
                    since += 1
                    random_()  # fp_fraction
                    slot = getrandbits(_PC_BITS)
                    while slot >= _PC_SLOTS:
                        slot = getrandbits(_PC_BITS)
        finally:
            self._ops_since_load = since
            self._sync_countdown = countdown
            self._stream_pos += stream_steps
            self._branches_emitted += branches

    def _queue_critical_section(self):
        """acquire; shared load; shared store; release."""
        getrandbits = self._getrandbits
        bound, bits = self.profile.shared_lines, self._shared_bits
        line = getrandbits(bits)
        while line >= bound:
            line = getrandbits(bits)
        # The word draw keeps the stream in step; the section touches the
        # line's first word.
        word = getrandbits(_WORD_BITS)
        while word >= _WORDS_PER_LINE:
            word = getrandbits(_WORD_BITS)
        line_addr = _SHARED_BASE + line * _LINE
        value = getrandbits(_STORE_VALUE_BITS)
        while value >= _STORE_VALUES:
            value = getrandbits(_STORE_VALUE_BITS)
        self._forced.extend(
            [
                MicroOp(OpKind.ACQUIRE, pc=0x50_0000),
                MicroOp(_LOAD, pc=0x50_0004, addr=line_addr, size=8),
                MicroOp(
                    _STORE, pc=0x50_0008, addr=line_addr, size=8,
                    store_value=value,
                ),
                MicroOp(OpKind.RELEASE, pc=0x50_000C),
            ]
        )

    # -------------------------------------------------------------- wrong path

    def wrong_path_op(self, branch_op, index):
        """Transient instructions past a mispredicted branch.

        Deterministic in (branch identity, index): re-encountering the same
        dynamic branch produces the same transient stream.
        """
        if index >= 48:
            return None  # deep enough for any realistic resolve window
        # Seed from the branch's emission index, not its global op uid:
        # transient streams must be identical regardless of how many other
        # traces were built in the process.
        salt = self._branch_salts.get(branch_op.uid, 0)
        rng = self._wp_rng
        rng.seed(self._wp_seed_base + salt * 1_000_003 + index)
        random_ = rng.random
        getrandbits = rng.getrandbits
        r = random_()
        # Wrong paths are load-richer than average: the squashed side of a
        # branch typically touches data the correct path does not.
        if r < self._wp_load_cut:
            # Random-region only, no state tracking: wrong-path generation
            # must not perturb the correct-path stream (streaming pointer,
            # recent pages), or the committed stream would differ across
            # schemes.
            addr = self._random_region_addr(
                random_, getrandbits, track_pages=False
            )
            slot = getrandbits(_WP_PC_BITS)
            while slot >= _WP_PC_SLOTS:
                slot = getrandbits(_WP_PC_BITS)
            return MicroOp(_LOAD, 0x60_0000 + 4 * slot, addr)
        if r < self._wp_branch_cut:
            bound, bits = self.profile.branch_pcs, self._branch_pc_bits
            slot = getrandbits(bits)
            while slot >= bound:
                slot = getrandbits(bits)
            pc = 0x40_0000 + 4 * slot
            return MicroOp(
                _BRANCH, pc, taken=random_() < self._branch_bias[pc], latency=2
            )
        slot = getrandbits(_WP_PC_BITS)
        while slot >= _WP_PC_SLOTS:
            slot = getrandbits(_WP_PC_BITS)
        return MicroOp(_ALU, 0x60_4000 + 4 * slot)
