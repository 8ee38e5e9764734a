"""Coherence invariant checking.

The classic single-writer/multiple-reader (SWMR) invariant plus
directory/L1 agreement and inclusion, stated once, per line, by
:func:`line_coherence_problems`.  :func:`check_all` runs it over every
L1-resident line; the litmus tests call it after every run, and it is also
handy in notebooks when extending the protocol.

Because invalidations and fills travel with latency, the whole-hierarchy
check is meaningful when the machine is quiet (no events in flight);
mid-flight checks may report transient disagreement that is not a bug.
The line-scoped check takes a ``skip_cores`` set for exactly that case:
the runtime sanitizer (:mod:`repro.sanitizer`) calls it on every state
transition naming the cores with an invalidation in flight for the line,
so transient windows do not produce false positives.
"""

from __future__ import annotations

from ..errors import ProtocolError
from .mesi import MESIState


def line_coherence_problems(hierarchy, line, skip_cores=frozenset()):
    """Incremental per-line checks; returns ``[(kind, message, core)]``.

    ``skip_cores`` names cores with an in-flight invalidation (or other
    scheduled state change) for ``line``: their stale copy is expected and
    must not be reported.  Used by the runtime sanitizer after every
    coherence state transition touching ``line``.
    """
    problems = []
    holders = []
    for core_id, l1 in enumerate(hierarchy.l1s):
        if core_id in skip_cores:
            continue
        entry = l1.lookup(line, touch=False)
        if entry is not None:
            holders.append((core_id, entry.state))

    writers = [c for c, s in holders if s.writable]
    readers = [c for c, s in holders if s is MESIState.SHARED]
    if writers and (len(writers) > 1 or readers):
        problems.append((
            "swmr",
            f"SWMR violated: writers={writers}, readers={readers}",
            writers[0],
        ))

    bank = hierarchy.bank_of(line)
    dentry = hierarchy.dirs[bank].entry(line)
    for core_id, _state in holders:
        if dentry is None:
            problems.append((
                "directory",
                f"core {core_id} holds the line but the directory has "
                f"no entry",
                core_id,
            ))
            continue
        if not (dentry.owner == core_id or core_id in dentry.sharers):
            problems.append((
                "directory",
                f"core {core_id} holds the line untracked "
                f"(owner={dentry.owner}, sharers={sorted(dentry.sharers)})",
                core_id,
            ))

    for core_id, _state in holders:
        if not hierarchy.l2[bank].contains(line):
            problems.append((
                "inclusion",
                f"core {core_id} holds the line absent from L2 bank {bank}",
                core_id,
            ))
    return problems


def check_all(hierarchy):
    """Every invariant over every L1-resident line (only a line some L1
    holds can break one); raises the first problem as a
    :class:`ProtocolError` that names its kind."""
    lines = dict.fromkeys(
        line for l1 in hierarchy.l1s for line in l1.resident_lines()
    )
    for line in lines:
        problems = line_coherence_problems(hierarchy, line)
        if problems:
            kind, message, _core = problems[0]
            raise ProtocolError(f"{kind} at 0x{line:x}: {message}")
    return True
