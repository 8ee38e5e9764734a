"""Replay model-checker counterexample traces on the live simulator.

A counterexample from :mod:`repro.staticcheck.model` is a list of rule
labels -- the shortest message interleaving that drives the *mutated*
abstract protocol into a property violation.  This module turns such a
trace into a concrete stimulus program for the real, unmodified
:class:`~repro.coherence.hierarchy.CacheHierarchy` driven by a
:class:`~repro.sim.kernel.SimKernel`, and asserts that the real code
survives it:

* every request completes (no deadlock, no lost fill);
* invisible steps (Spec-GetS) leave no footprint in the L1s, the L2,
  or the directory;
* at quiescence the hierarchy satisfies SWMR, directory agreement and
  L2 inclusion, and the memory image holds the last value stored to
  each line.

The timed simulator schedules its own deliveries, so the *async* rule
labels of the abstract trace (``deliver_fill``, ``deliver_inv``,
``perform_store``, ``wb_land``, ``deliver_spec``, ``spec_retry``) have
no replay action: running each submitted request to completion covers
them.  The *stimulus* labels map one-to-one:

================  ====================================================
abstract label    live-simulator action
================  ====================================================
``issue_load``    submit a ``LOAD``
``issue_store``   submit a ``STORE`` (fresh value per step)
``issue_spec``    snapshot visible state, submit a ``SPEC_LOAD``,
                  assert the snapshot is unchanged on completion
``spec_visible``  submit the paired ``VALIDATE`` (same lq slot/epoch)
``spec_squash``   squash: bump the core's epoch, no memory access
``l1_evict``      force the line out of that core's L1 through the
                  real eviction path (directory notify + write-back)
``l2_evict``      force the line out of its L2 bank through the real
                  recall path (L1 recalls + directory drop)
================  ====================================================

Each replayed trace is a regression test (tests/coherence/
test_model_traces.py): the bug the checker caught in the mutated model
must not exist in the shipped protocol.
"""

from __future__ import annotations

import itertools
import re

from ..coherence.checker import line_coherence_problems
from ..coherence.hierarchy import CacheHierarchy, MemRequest, RequestKind
from ..invisispec.llc_sb import LLCSpeculativeBuffer
from ..mem.address import AddressSpace
from ..mem.memimage import MemoryImage
from ..network.noc import TrafficCategory
from ..params import SystemParams
from ..sim.kernel import SimKernel
from ..stats.counters import Counters

__all__ = ["ReplayError", "TraceReplayer", "replay_trace"]

#: ``verb cN lM [rest]`` -- c/l groups are optional (``l2_evict l0``,
#: ``wb_land l0`` have no core; squash/evict labels carry trailing text).
_LABEL_RE = re.compile(
    r"^(?P<verb>[a-z][a-z0-9_]*)(?: c(?P<core>\d+))?(?: l(?P<line>\d+))?(?: (?P<rest>.*))?$"
)

#: Labels that are internal/asynchronous in the abstract model; the
#: timed simulator performs them on its own schedule.
_ASYNC_VERBS = frozenset(
    {
        "perform_store",
        "deliver_fill",
        "deliver_inv",
        "deliver_spec",
        "spec_retry",
        "wb_land",
    }
)

#: Line-address stride between abstract line indices.  Distinct L2 sets
#: and (with more than one bank) distinct home banks, like the model's
#: independent lines.
_LINE_STRIDE = 0x4_0000
_LINE_BASE = 0x10_0000


class ReplayError(AssertionError):
    """The live simulator diverged from the protocol's guarantees."""


def parse_label(label):
    """Split a rule label into ``(verb, core, line, rest)``."""
    m = _LABEL_RE.match(label)
    if m is None:
        raise ValueError(f"unparseable trace label: {label!r}")
    core = m.group("core")
    line = m.group("line")
    return (
        m.group("verb"),
        int(core) if core is not None else None,
        int(line) if line is not None else None,
        m.group("rest") or "",
    )


class _StubCore:
    """Receives invalidation/eviction callbacks; records them."""

    def __init__(self):
        self.invalidations = []
        self.evictions = []

    def on_invalidation(self, line, reason):
        self.invalidations.append((line, reason))

    def on_l1_eviction(self, line):
        self.evictions.append(line)


class TraceReplayer:
    """Drives one counterexample trace through a fresh hierarchy."""

    #: Cycle budget per replayed request; a blown budget is a deadlock.
    MAX_CYCLES_PER_STEP = 100_000

    def __init__(self, cores=2, lines=1):
        self.num_cores = max(2, cores)
        self.num_lines = lines
        self.params = SystemParams(num_cores=self.num_cores)
        self.kernel = SimKernel()
        self.space = AddressSpace()
        self.image = MemoryImage(self.space)
        self.counters = Counters()
        self.hierarchy = CacheHierarchy(
            self.params, self.kernel, self.image, self.counters
        )
        self.cores = [_StubCore() for _ in range(self.num_cores)]
        for i, core in enumerate(self.cores):
            self.hierarchy.attach_core(i, core)
        self.llc_sbs = [
            LLCSpeculativeBuffer(32) for _ in range(self.num_cores)
        ]
        self.hierarchy.set_llc_sbs(self.llc_sbs)
        self._seq = itertools.count(1)
        self._epochs = [0] * self.num_cores
        self._spec_slots = {}  # (core, line) -> (lq_index, epoch)
        self._next_lq = [0] * self.num_cores
        self._last_store = {}  # line index -> value
        self._store_value = itertools.count(0x51)
        self.steps_replayed = 0

    # ----------------------------------------------------------- geometry

    def line_addr(self, line_index):
        return _LINE_BASE + line_index * _LINE_STRIDE

    # ------------------------------------------------------------ driving

    def _submit(self, core, line_index, kind, value=0, lq_index=0, epoch=0):
        outcome = {}
        start = self.kernel.cycle
        req = MemRequest(
            core_id=core,
            addr=self.line_addr(line_index),
            size=8,
            kind=kind,
            seq=next(self._seq),
            lq_index=lq_index,
            epoch=epoch,
            store_value=value,
            on_complete=lambda r: outcome.setdefault("result", r),
        )
        self.hierarchy.submit(req)
        self.kernel.run(max_cycles=start + self.MAX_CYCLES_PER_STEP)
        if "result" not in outcome:
            raise ReplayError(
                f"{kind.value} by core {core} to line {line_index} never "
                "completed: the live hierarchy deadlocked"
            )
        return outcome["result"]

    def _visible_snapshot(self, line_index):
        """Observer-visible state a Spec-GetS must not change."""
        line = self.space.line_of(self.line_addr(line_index))
        bank = self.hierarchy.bank_of(line)
        dentry = self.hierarchy.dirs[bank].entry(line)
        return (
            tuple(
                self.hierarchy.l1_state(c, self.line_addr(line_index))
                for c in range(self.num_cores)
            ),
            self.hierarchy.l2[bank].contains(line),
            None
            if dentry is None
            else (dentry.owner, tuple(sorted(dentry.sharers))),
        )

    def _force_l1_evict(self, core, line_index):
        line = self.space.line_of(self.line_addr(line_index))
        victim = self.hierarchy.l1s[core].invalidate(line)
        if victim is not None:
            # through the real eviction path: directory notify + write-back
            self.hierarchy._handle_l1_eviction(
                core, victim, TrafficCategory.NORMAL
            )

    def _force_l2_evict(self, line_index):
        line = self.space.line_of(self.line_addr(line_index))
        bank = self.hierarchy.bank_of(line)
        victim = self.hierarchy.l2[bank].invalidate(line)
        if victim is None:
            return
        directory = self.hierarchy.dirs[bank]
        dentry = directory.entry(line)
        if dentry is not None:
            # inclusive recall of every L1 copy, as _fill_l2 does on a
            # capacity eviction
            holders = set(dentry.sharers)
            if dentry.owner is not None:
                holders.add(dentry.owner)
            for core_id in sorted(holders):
                self.hierarchy._deliver_invalidation(
                    core_id,
                    line,
                    self.kernel.cycle + 1,
                    TrafficCategory.NORMAL,
                    "l2_evict",
                )
            directory.drop(line)
        self.hierarchy._purge_llc_sbs(line)
        self.kernel.run(max_cycles=self.kernel.cycle + self.MAX_CYCLES_PER_STEP)

    # ------------------------------------------------------------- replay

    def step(self, label):
        """Replay one trace label; raises ReplayError on divergence."""
        verb, core, line, _rest = parse_label(label)
        if verb in _ASYNC_VERBS:
            return
        if verb == "issue_load":
            self._submit(core, line, RequestKind.LOAD)
        elif verb == "issue_store":
            value = next(self._store_value)
            self._submit(core, line, RequestKind.STORE, value=value)
            self._last_store[line] = value
        elif verb == "issue_spec":
            before = self._visible_snapshot(line)
            lq_index = self._next_lq[core]
            self._next_lq[core] += 1
            self._spec_slots[(core, line)] = (lq_index, self._epochs[core])
            self._submit(
                core,
                line,
                RequestKind.SPEC_LOAD,
                lq_index=lq_index,
                epoch=self._epochs[core],
            )
            after = self._visible_snapshot(line)
            if after != before:
                raise ReplayError(
                    f"Spec-GetS by core {core} changed visible state on "
                    f"line {line}: {before} -> {after}"
                )
        elif verb == "spec_visible":
            lq_index, epoch = self._spec_slots.pop(
                (core, line), (self._next_lq[core], self._epochs[core])
            )
            self._submit(
                core,
                line,
                RequestKind.VALIDATE,
                lq_index=lq_index,
                epoch=epoch,
            )
        elif verb == "spec_squash":
            # the USL is squashed: its SB slot dies with the epoch bump;
            # no memory access is issued
            self._spec_slots.pop((core, line), None)
            self._epochs[core] += 1
        elif verb == "l1_evict":
            self._force_l1_evict(core, line)
        elif verb == "l2_evict":
            self._force_l2_evict(line)
        else:
            raise ValueError(f"unknown trace label verb: {verb!r}")
        self.steps_replayed += 1

    def finish(self):
        """Drain the kernel, then check end-state coherence invariants."""
        self.kernel.run(max_cycles=self.kernel.cycle + self.MAX_CYCLES_PER_STEP)
        for line_index in range(self.num_lines):
            addr = self.line_addr(line_index)
            problems = line_coherence_problems(
                self.hierarchy, self.space.line_of(addr)
            )
            if problems:
                kind, message, _core = problems[0]
                raise ReplayError(
                    f"{kind} broken at quiescence on line {line_index}: "
                    f"{message}"
                )
            if line_index in self._last_store:
                got = self.image.read(addr, 8)
                want = self._last_store[line_index]
                if got != want:
                    raise ReplayError(
                        f"memory image lost the last store to line "
                        f"{line_index}: read {got:#x}, expected {want:#x}"
                    )

    def replay(self, trace):
        for label in trace:
            self.step(label)
        self.finish()
        return self


def replay_trace(trace, cores=2, lines=1):
    """Replay ``trace`` on a fresh live hierarchy; returns the replayer.

    Raises :class:`ReplayError` when the unmodified simulator exhibits
    the divergence the model checker predicted only for the mutant.
    """
    replayer = TraceReplayer(cores=cores, lines=lines)
    return replayer.replay(trace)
