"""Load queue and store queue.

The LQ mirrors the paper's Figure 3: each entry carries the status bits
Valid, Performed, State (E/V/C/N) and Prefetch, and maps one-to-one onto a
Speculative Buffer entry (the SB itself lives in
:mod:`repro.invisispec.sb`).  Entries are identified by a *virtual index*
(``index % capacity`` is the physical slot, which the SB mirrors), so
allocating, retiring from the head, and squashing from the tail are pointer
moves — exactly the property the paper exploits for the SB design.  The
LQ also indexes its entries by resolved line address.
"""

from __future__ import annotations

from ..errors import SimulationError
from .isa import OpKind

#: LQ-entry State bits (Section VI-A1).
STATE_EXPOSURE = "E"  # requires an exposure at the visibility point
STATE_VALIDATION = "V"  # requires a validation at the visibility point
STATE_COMPLETE = "C"  # exposure or validation has completed
STATE_NORMAL = "N"  # invisible speculation not necessary
#: Extra state (this implementation): a USL whose D-TLB miss deferred it to
#: its visibility point (Section VI-E3); it becomes N when it issues.
STATE_DEFERRED = "D"

_PREFETCH = OpKind.PREFETCH

#: States of a USL whose Spec-GetS fills its SB line (Section VI-A).
_SB_FILLING_STATES = (STATE_EXPOSURE, STATE_VALIDATION)


class LoadQueueEntry:
    """One in-flight load (or software prefetch)."""

    __slots__ = (
        "index",
        "rob",
        "seq",
        "addr",
        "size",
        "line_addr",
        "valid",
        "performed",
        "vstate",
        "prefetch",
        "issued",
        "visibility_issued",
        "visibility_done",
        "validation_inflight",
        "forwarded",
        "epoch",
        "visibility_issue_cycle",
    )

    def __init__(self, index, rob_entry, epoch):
        self.index = index
        self.rob = rob_entry
        #: The load's ROB seq, copied: the visibility scans read it often.
        self.seq = rob_entry.seq
        self.addr = None
        self.size = 0
        self.line_addr = None
        self.valid = True
        self.performed = False
        self.vstate = None  # one of the STATE_* constants once issued
        self.prefetch = rob_entry.op.kind is _PREFETCH
        self.issued = False
        self.visibility_issued = False
        self.visibility_done = False
        self.validation_inflight = False
        self.forwarded = False
        self.epoch = epoch
        self.visibility_issue_cycle = None

    def __repr__(self):
        return (
            f"LQEntry(idx={self.index}, seq={self.seq}, addr={self.addr}, "
            f"state={self.vstate}, performed={self.performed})"
        )


class StoreQueueEntry:
    """One in-flight store (pre-commit)."""

    __slots__ = ("index", "rob", "seq", "addr", "size", "value", "addr_resolved")

    def __init__(self, index, rob_entry):
        self.index = index
        self.rob = rob_entry
        self.seq = rob_entry.seq
        self.addr = None
        self.size = 0
        self.value = 0
        self.addr_resolved = False


class _CircularQueue:
    """Virtual-index queue shared by the LQ and SQ.

    Live entries have consecutive virtual indices ``head .. tail - 1`` and
    sit in :attr:`live`, oldest first, so program-order scans iterate a
    plain list.
    """

    def __init__(self, capacity, name):
        self.capacity = capacity
        self.name = name
        self.head = 0  # oldest live virtual index
        self.tail = 0  # next virtual index to allocate
        #: Live entries, oldest first (``live[i].index == head + i``).
        #: Read-only outside this module.
        self.live = []

    def __len__(self):
        return self.tail - self.head

    @property
    def full(self):
        return self.tail - self.head >= self.capacity

    def slot(self, index):
        if not self.head <= index < self.tail:
            return None
        return self.live[index - self.head]

    def entries(self):
        """Live entries oldest-first (a snapshot list)."""
        return list(self.live)

    def _allocate_slot(self, entry):
        if self.tail - self.head >= self.capacity:
            raise SimulationError(f"{self.name} overflow; caller must check full")
        self.live.append(entry)
        self.tail += 1

    def retire_head(self):
        if not self.live:
            raise SimulationError(f"retiring from empty {self.name}")
        self.head += 1
        return self.live.pop(0)

    def squash_to(self, new_tail):
        """Drop entries with virtual index >= ``new_tail``; returns them,
        youngest first."""
        live = self.live
        keep = max(new_tail, self.head) - self.head
        if keep >= len(live):
            return []
        dropped = live[keep:]
        del live[keep:]
        dropped.reverse()
        self.tail = self.head + keep
        return dropped


class LoadQueue(_CircularQueue):
    """The LQ; its virtual indices double as SB entry indices.

    Besides the program-order list, the LQ indexes its live entries by
    resolved line address (oldest first per line), so the same-line
    queries of Sections V-C2 and V-E visit only same-line candidates.
    """

    def __init__(self, capacity):
        super().__init__(capacity, "LQ")
        self._by_line = {}  # line_addr -> [LoadQueueEntry], oldest first

    def allocate(self, rob_entry, epoch):
        entry = LoadQueueEntry(self.tail, rob_entry, epoch)
        self._allocate_slot(entry)
        rob_entry.lq_entry = entry
        return entry

    def set_line(self, entry, line_addr):
        """Record a live entry's resolved line address in the line index."""
        if entry.line_addr is not None:
            self._unlink(entry)
        entry.line_addr = line_addr
        bucket = self._by_line.get(line_addr)
        if bucket is None:
            self._by_line[line_addr] = [entry]
            return
        # Addresses resolve out of order: keep each bucket in index order.
        position = len(bucket)
        index = entry.index
        while position and bucket[position - 1].index > index:
            position -= 1
        bucket.insert(position, entry)

    def _unlink(self, entry):
        bucket = self._by_line[entry.line_addr]
        bucket.remove(entry)
        if not bucket:
            del self._by_line[entry.line_addr]

    def retire_head(self):
        entry = super().retire_head()
        if entry.line_addr is not None:
            self._unlink(entry)
        return entry

    def squash_to(self, new_tail):
        dropped = super().squash_to(new_tail)
        for entry in dropped:
            if entry.line_addr is not None:
                self._unlink(entry)
        return dropped

    def loads_to_line(self, line_addr):
        """Live entries whose resolved address maps to ``line_addr``,
        oldest first.  This is the index's own list: callers must not
        mutate it, and must stop iterating once they squash."""
        return self._by_line.get(line_addr, [])

    def older_pending_request(self, entry, line_addr):
        """Youngest *earlier* (program order) USL to the same line whose
        Spec-GetS will (or did) fill an SB entry — the SB-copy reuse case of
        Section V-E.  Never returns a younger load (Section VII), and never
        a deferred/normal load, which does not fill the SB."""
        best = None
        index = entry.index
        for other in self._by_line.get(line_addr, ()):
            if other.index >= index:
                break
            if (
                other.valid
                and other.issued
                and other.vstate in _SB_FILLING_STATES
                and not other.forwarded
            ):
                best = other
        return best


class StoreQueue(_CircularQueue):
    def __init__(self, capacity):
        super().__init__(capacity, "SQ")

    def allocate(self, rob_entry):
        entry = StoreQueueEntry(self.tail, rob_entry)
        self._allocate_slot(entry)
        rob_entry.sq_entry = entry
        return entry

    def forwarding_store(self, load_seq, addr, size):
        """Youngest older store that fully covers [addr, addr+size)."""
        best = None
        end = addr + size
        for entry in self.live:
            if entry.rob.seq >= load_seq:
                break
            if not entry.addr_resolved:
                continue
            if entry.addr <= addr and end <= entry.addr + entry.size:
                best = entry
        return best

    def unresolved_older_than(self, load_seq):
        """True if an older store still has an unresolved address.

        A conventional core lets the load issue anyway (memory-dependence
        speculation) and squashes on a later alias — the Speculative Store
        Bypass surface of Section IV.
        """
        for entry in self.live:
            if entry.rob.seq >= load_seq:
                break
            if not entry.addr_resolved:
                return True
        return False
