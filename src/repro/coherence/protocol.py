"""Declarative MESI/InvisiSpec protocol tables.

The per-line protocol logic used to be inlined across
:mod:`repro.coherence.hierarchy`; this module lifts it into explicit,
enumerable tables so that the *same* rules drive both the live simulator
and the offline exhaustive model checker
(:mod:`repro.staticcheck.model`).  Three tables are exported:

* :data:`L1_TRANSITIONS` — the complete L1 MESI next-state function,
  keyed by ``(MESIState, L1Event)``.  Undefined pairs are protocol
  errors, not silent no-ops.
* :func:`route_request` — the directory's dispatch decision for one
  transaction, as a pure function of the request kind and the
  directory's view of the line (remote owner? L2 resident? write-back
  in flight?).  This is the decision tree at the top of
  ``CacheHierarchy._transaction_steps`` and friends, made enumerable.
* :data:`VISIBLE_EFFECTS` — for every routing outcome, the set of
  observer-visible state components the transaction is *permitted* to
  mutate.  Invisible (Spec-GetS) outcomes map to the empty set; the
  model checker enforces the table against every transition it
  explores, and the runtime sanitizer checks the same property
  dynamically (docs/SANITIZER.md).

The tables are deliberately side-effect free: no counters, no stats, no
kernel access (``reprolint``'s ``stats-in-protocol`` rule enforces
this), so the model checker can call them millions of times without
dragging simulator state along.
"""

from __future__ import annotations

import enum

from ..errors import ProtocolError
from .requests import RequestKind
from .mesi import MESIState


class L1Event(enum.Enum):
    """Events that move one L1 copy between MESI states."""

    FILL_SHARED = "fill_shared"  # read fill, other copies exist
    FILL_EXCLUSIVE = "fill_exclusive"  # read fill, sole copy
    FILL_MODIFIED = "fill_modified"  # store performs into the L1
    STORE_HIT = "store_hit"  # store hits a writable copy
    UPGRADE = "upgrade"  # S -> M ownership acquisition
    DEMOTE = "demote"  # remote visible read demotes the owner
    INVALIDATE = "invalidate"  # Inv delivery (coherence or recall)
    EVICT = "evict"  # capacity eviction
    SPEC_PROBE = "spec_probe"  # Spec-GetS touches the copy: identity


for _index, _event in enumerate(L1Event):
    _event.index = _index
del _index, _event


M, E, S, I = (
    MESIState.MODIFIED,
    MESIState.EXCLUSIVE,
    MESIState.SHARED,
    MESIState.INVALID,
)

#: The complete L1 next-state function.  Every state change an L1 copy is
#: allowed to make appears here; anything else is a ProtocolError.
L1_TRANSITIONS = {
    (I, L1Event.FILL_SHARED): S,
    (I, L1Event.FILL_EXCLUSIVE): E,
    (I, L1Event.FILL_MODIFIED): M,
    # A store performing into a copy that is already resident writable.
    (E, L1Event.FILL_MODIFIED): M,
    (M, L1Event.FILL_MODIFIED): M,
    (E, L1Event.STORE_HIT): M,
    (M, L1Event.STORE_HIT): M,
    (S, L1Event.UPGRADE): M,
    (M, L1Event.DEMOTE): S,
    (E, L1Event.DEMOTE): S,
    (M, L1Event.INVALIDATE): I,
    (E, L1Event.INVALIDATE): I,
    (S, L1Event.INVALIDATE): I,
    (M, L1Event.EVICT): I,
    (E, L1Event.EVICT): I,
    (S, L1Event.EVICT): I,
    # Spec-GetS is the identity on every state, including INVALID: the
    # paper's invisibility requirement stated as a transition rule.
    (M, L1Event.SPEC_PROBE): M,
    (E, L1Event.SPEC_PROBE): E,
    (S, L1Event.SPEC_PROBE): S,
    (I, L1Event.SPEC_PROBE): I,
}


#: :data:`L1_TRANSITIONS` as ``_NEXT_STATE[state.index][event.index]``
#: (``None`` where undefined): the simulator applies an L1 event on every
#: fill, store hit and demotion, and a dict keyed by Enum members would
#: call the Python-level ``Enum.__hash__`` twice per lookup.
_NEXT_STATE = tuple(
    tuple(L1_TRANSITIONS.get((state, event)) for event in L1Event)
    for state in MESIState
)


def apply_l1_event(state, event):
    """Next L1 state for ``event``; raises ProtocolError if undefined."""
    next_state = _NEXT_STATE[state.index][event.index]
    if next_state is None:
        raise ProtocolError(
            f"undefined L1 transition: {state.name} x {event.value}"
        )
    return next_state


class DirOutcome(enum.Enum):
    """How the directory routes one transaction (the dispatch decision
    inlined in ``CacheHierarchy``, as an enumerable value)."""

    L1_HIT = "l1_hit"  # served locally, no directory involvement
    STORE_UPGRADE = "store_upgrade"  # store hit in S: invalidate sharers
    OWNER_FORWARD = "owner_forward"  # visible read forwarded to M/E owner
    OWNER_INVALIDATE = "owner_invalidate"  # GetX invalidates the owner
    SPEC_FORWARD = "spec_forward"  # Spec-GetS streamed from the owner
    SPEC_BOUNCE = "spec_bounce"  # Spec-GetS nacked (wb in flight)
    L2_READ = "l2_read"  # visible read served by the L2 bank
    L2_STORE = "l2_store"  # GetX served by L2, sharers invalidated
    SPEC_L2_READ = "spec_l2_read"  # Spec-GetS served by L2, no changes
    MEM_READ = "mem_read"  # visible read from DRAM, fills L2+L1
    MEM_STORE = "mem_store"  # GetX from DRAM
    SPEC_MEM_READ = "spec_mem_read"  # Spec-GetS from DRAM -> LLC-SB only


def route_request(kind, l1_state, owner_is_remote, l2_resident, wb_in_flight):
    """Pure routing decision for one transaction.

    Mirrors (and is consulted by) the hierarchy's dispatch: L1 hit first,
    then remote-owner, then L2, then memory.  ``owner_is_remote`` means
    the directory names an owner other than the requester.
    """
    if kind is RequestKind.STORE:
        if l1_state.writable:
            return DirOutcome.L1_HIT
        if l1_state is S:
            return DirOutcome.STORE_UPGRADE
        if owner_is_remote:
            return DirOutcome.OWNER_INVALIDATE
        if l2_resident:
            return DirOutcome.L2_STORE
        return DirOutcome.MEM_STORE
    if l1_state.readable and not kind.invisible:
        return DirOutcome.L1_HIT
    if kind.invisible:
        # An L1 hit also serves a Spec-GetS (probe only, no touch); the
        # model checker treats that as the identity it is.
        if l1_state.readable:
            return DirOutcome.L1_HIT
        if owner_is_remote:
            if wb_in_flight:
                return DirOutcome.SPEC_BOUNCE
            return DirOutcome.SPEC_FORWARD
        if l2_resident:
            return DirOutcome.SPEC_L2_READ
        return DirOutcome.SPEC_MEM_READ
    if owner_is_remote:
        return DirOutcome.OWNER_FORWARD
    if l2_resident:
        return DirOutcome.L2_READ
    return DirOutcome.MEM_READ


#: Observer-visible state components a transaction outcome may mutate.
#: Component names: ``l1`` (any L1 tag/state/replacement), ``l2`` (bank
#: tag/replacement), ``dir`` (owner/sharer sets), ``image`` (memory
#: image version).  The invisible outcomes are the empty set — that row
#: *is* the InvisiSpec theorem, and both the model checker (statically)
#: and the sanitizer (dynamically) enforce it.
VISIBLE_EFFECTS = {
    DirOutcome.L1_HIT: frozenset({"l1", "dir"}),
    DirOutcome.STORE_UPGRADE: frozenset({"l1", "dir", "image"}),
    DirOutcome.OWNER_FORWARD: frozenset({"l1", "l2", "dir"}),
    DirOutcome.OWNER_INVALIDATE: frozenset({"l1", "dir", "image"}),
    DirOutcome.L2_READ: frozenset({"l1", "l2", "dir"}),
    DirOutcome.L2_STORE: frozenset({"l1", "l2", "dir", "image"}),
    DirOutcome.MEM_READ: frozenset({"l1", "l2", "dir"}),
    DirOutcome.MEM_STORE: frozenset({"l1", "l2", "dir", "image"}),
    DirOutcome.SPEC_FORWARD: frozenset(),
    DirOutcome.SPEC_BOUNCE: frozenset(),
    DirOutcome.SPEC_L2_READ: frozenset(),
    DirOutcome.SPEC_MEM_READ: frozenset(),
}


def outcome_is_invisible(outcome):
    """True when the outcome must leave observer-visible state untouched."""
    return not VISIBLE_EFFECTS[outcome]
