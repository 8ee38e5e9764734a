"""Scheme policies: Table V's five processor configurations.

A scheme policy answers, for its core:

* which fence ops the frontend must inject (the Fence-Spectre /
  Fence-Future baselines);
* whether a load about to issue is *safe* or an Unsafe Speculative Load
  (Section V-A1);
* whether a USL has reached its *visibility point* (Section V-B);
* how validations and exposures may overlap (Section V-D);
* which of its core's squash trackers it reads (:attr:`SchemePolicy.reads`;
  see :mod:`repro.cpu.tracking`);
* whether its core gets an InvisiSpec load engine
  (:meth:`SchemePolicy.make_engine`).
"""

from __future__ import annotations

from ..configs import Scheme
from ..cpu.tracking import SQUASH_CONDITIONS
from ..errors import ConfigError
from .valexp import VisibilityEngine


class SchemePolicy:
    """Base: the conventional, insecure processor."""

    name = "Base"
    inserts_fence_after_branch = False
    inserts_fence_before_load = False
    #: IS-Future requires validations to block later val/exp issues.
    validation_blocks_overlap = False
    #: The core trackers this policy queries (:mod:`repro.cpu.tracking`).
    reads = frozenset()
    #: The InvisiSpec load engine class of an IS scheme's cores.
    engine = None

    def make_engine(self, core):
        """Build ``core``'s load engine; ``None`` when every load is safe."""
        return self.engine(core) if self.engine is not None else None

    def load_is_safe(self, core, rob_entry):
        """Safe loads issue normal coherence transactions (State N)."""
        return True

    def visible_now(self, core, lq_entry):
        """Has this USL reached its visibility point?"""
        return True


class FenceSpectrePolicy(SchemePolicy):
    """A fence after every indirect/conditional branch."""

    name = "Fe-Sp"
    inserts_fence_after_branch = True


class FenceFuturePolicy(SchemePolicy):
    """A fence before every load."""

    name = "Fe-Fu"
    inserts_fence_before_load = True


class ISSpectrePolicy(SchemePolicy):
    """InvisiSpec-Spectre: USLs are loads in the shadow of an unresolved
    control-flow instruction; they become visible when all preceding
    branches resolve.  Validations and exposures may all overlap."""

    name = "IS-Sp"
    validation_blocks_overlap = False
    reads = frozenset(("branch",))
    engine = VisibilityEngine

    def load_is_safe(self, core, rob_entry):
        branch_seq = core.min_unresolved_branch_seq()
        return branch_seq is None or branch_seq > rob_entry.seq

    def visible_now(self, core, lq_entry):
        branch_seq = core.min_unresolved_branch_seq()
        return branch_seq is None or branch_seq > lq_entry.seq


class ISFuturePolicy(SchemePolicy):
    """InvisiSpec-Future: any speculative load that can still be squashed
    by an earlier instruction is a USL.  It becomes visible when it is
    non-speculative (ROB head) or speculative non-squashable: every older
    instruction can no longer squash it (Section V-A1 and the Section VIII
    conditions (i)-(v)), with interrupts delayed for the duration."""

    name = "IS-Fu"
    validation_blocks_overlap = True
    reads = SQUASH_CONDITIONS
    engine = VisibilityEngine

    # Every entry the Section VIII trackers hold active is in the ROB, so
    # nothing older than the ROB head can squash it: a head load is always
    # non-squashable, and the head check only decides whether a
    # validation/exposure needs the interrupt window.

    def load_is_safe(self, core, rob_entry):
        return self._non_squashable(core, rob_entry.seq)

    def visible_now(self, core, lq_entry):
        seq = lq_entry.seq
        if not self._non_squashable(core, seq):
            return False
        head = core.rob.head()
        if head is not None and head.seq == seq:
            return True
        # Initiating a pre-head validation/exposure requires the
        # interrupt-delay window (Section VI-D); refused if an interrupt
        # is already pending (anti-starvation).
        return core.request_interrupt_protection(seq)

    @staticmethod
    def _non_squashable(core, seq):
        """No older instruction can squash ``seq``: none is an unresolved
        branch, may still raise, is an uncommitted store, an unvalidated
        load or an incomplete fence (Section VIII (i)-(v))."""
        blocking = core.min_squashing_seq()
        return blocking is None or blocking >= seq


class SelectivePolicy(ISFuturePolicy):
    """Analysis-guided selective protection (repro.specflow).

    Only loads whose static PC the speculative-taint analysis flagged as a
    possible transmitter (``TRANSMIT``) or could not prove harmless
    (``UNKNOWN``) take the USL/invisible path; for those the policy applies
    full IS-Future semantics, so the scheme defends the Futuristic attack
    model on every protected PC.  Loads the analysis proved ``SAFE`` —
    their address can never carry transiently-tainted data — issue down the
    conventional fast path, which is what buys back IS-Future's overhead.
    """

    name = "IS-Sel"

    def __init__(self, protected_pcs=frozenset()):
        self.protected_pcs = frozenset(protected_pcs)

    def load_is_safe(self, core, rob_entry):
        if rob_entry.op.pc not in self.protected_pcs:
            return True
        return super().load_is_safe(core, rob_entry)


_POLICIES = {
    Scheme.BASE: SchemePolicy,
    Scheme.FENCE_SPECTRE: FenceSpectrePolicy,
    Scheme.FENCE_FUTURE: FenceFuturePolicy,
    Scheme.IS_SPECTRE: ISSpectrePolicy,
    Scheme.IS_FUTURE: ISFuturePolicy,
}


def make_scheme_policy(scheme, config=None):
    """Instantiate the policy for ``scheme``.

    ``config`` (a :class:`~repro.configs.ProcessorConfig`) is only needed
    by :attr:`Scheme.SELECTIVE`, whose protected-PC set lives in the
    config; the classic five schemes ignore it.
    """
    if scheme is Scheme.SELECTIVE:
        protected = (
            config.protected_pcs if config is not None else frozenset()
        )
        return SelectivePolicy(protected)
    try:
        return _POLICIES[scheme]()
    except KeyError:
        raise ConfigError(f"unknown scheme {scheme!r}")
