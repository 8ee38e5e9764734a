"""The USL visibility lifecycle as a checkable transition table.

A load-queue entry's ``vstate`` walks a small state machine (Section
VI-A1 plus this implementation's deferred-TLB state):

```
  None ──classify──> E | V | N | D
  D    ──issues at visibility point──> N
  E    ──exposure completes──> C
  V    ──validation completes──> C
```

Squash recycles the whole LQ entry (a fresh object), so there is no
backward edge.  The table is shared by the live pipeline (every
``vstate`` assignment goes through :func:`advance_vstate`) and by the
offline model checker (:mod:`repro.staticcheck.model`), whose abstract
speculative transactions step through exactly these states.
"""

from __future__ import annotations

from ..cpu.lsq import (
    STATE_COMPLETE,
    STATE_DEFERRED,
    STATE_EXPOSURE,
    STATE_NORMAL,
    STATE_VALIDATION,
)
from ..errors import ProtocolError

#: Allowed (old, new) vstate edges; ``None`` is the unclassified state.
VSTATE_TRANSITIONS = frozenset(
    {
        (None, STATE_EXPOSURE),
        (None, STATE_VALIDATION),
        (None, STATE_NORMAL),
        (None, STATE_DEFERRED),
        (STATE_DEFERRED, STATE_NORMAL),
        (STATE_EXPOSURE, STATE_COMPLETE),
        (STATE_VALIDATION, STATE_COMPLETE),
    }
)


def advance_vstate(lq_entry, new_state):
    """Move ``lq_entry.vstate`` along a table edge; reject anything else."""
    old = lq_entry.vstate
    if (old, new_state) not in VSTATE_TRANSITIONS:
        raise ProtocolError(
            f"illegal USL vstate transition {old!r} -> {new_state!r} "
            f"(lq index {lq_entry.index})"
        )
    lq_entry.vstate = new_state
