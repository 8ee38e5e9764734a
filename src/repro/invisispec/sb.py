"""The L1-level Speculative Buffer (Section VI-A).

The SB has as many entries as the load queue with a one-to-one mapping:
LQ virtual index *i* owns SB slot ``i % capacity``.  An entry stores the
data of one cache line plus an Address Mask marking which bytes the USL
actually read (those are the bytes a validation later compares).  The SB
stores no address and is invisible to coherence: incoming invalidations
never touch it.

Security invariants enforced here (Section VII):

* A squashed USL's entry is reset (Valid cleared) before the slot can be
  reused, so a later load can never consume data left by a squashed
  transmitter.
* Copying between entries (the Section V-E reuse path) is only permitted
  from an *older* LQ index to a *newer* one; the reverse direction — a
  receiver reusing a younger transmitter's data — raises.
"""

from __future__ import annotations

from ..errors import SimulationError


class SBEntry:
    """One speculative-buffer line slot."""

    __slots__ = (
        "lq_index",
        "valid",
        "line_addr",
        "data",
        "version",
        "address_mask",
        "from_store_mask",
    )

    def __init__(self):
        self.reset()

    def reset(self):
        self.lq_index = None
        self.valid = False
        self.line_addr = None
        self.data = None  # tuple of byte values actually read
        self.version = 0
        self.address_mask = 0
        self.from_store_mask = 0  # bytes forwarded from an older store

    def __repr__(self):
        return (
            f"SBEntry(lq={self.lq_index}, valid={self.valid}, "
            f"line=0x{self.line_addr:x})" if self.valid else "SBEntry(invalid)"
        )


class SpeculativeBuffer:
    """Per-core SB, slot-mapped onto the LQ.

    ``line_bytes`` is the machine's line size (the address space's); each
    slot holds one such line.
    """

    def __init__(self, capacity, line_bytes=64):
        self.capacity = capacity
        self.line_bytes = line_bytes
        self._slots = [SBEntry() for _ in range(capacity)]
        self.stat_fills = 0

    def entry(self, lq_index):
        return self._slots[lq_index % self.capacity]

    def allocate(self, lq_index):
        """Claim the slot for a newly dispatched load."""
        slot = self._slots[lq_index % self.capacity]
        slot.reset()
        slot.lq_index = lq_index
        return slot

    def fill(self, lq_index, line_addr, line_data, version, address_mask):
        """Deposit a full cache line returned by a Spec-GetS.

        ``line_data`` is the whole line (tuple of line-size byte values).
        Bytes covered by ``from_store_mask`` (already forwarded from an
        older store) are not overwritten (Section VI-A2).
        """
        slot = self._slots[lq_index % self.capacity]
        if slot.lq_index != lq_index:
            # The load was squashed and the slot reassigned: drop the fill.
            return None
        if slot.from_store_mask and slot.data is not None:
            merged = list(line_data)
            for i, byte in enumerate(slot.data):
                if slot.from_store_mask & (1 << i):
                    merged[i] = byte
            line_data = tuple(merged)
        slot.valid = True
        slot.line_addr = line_addr
        slot.data = tuple(line_data)
        slot.version = version
        slot.address_mask |= address_mask
        self.stat_fills += 1
        return slot

    def forward_from_store(self, lq_index, line_addr, offset, value_bytes):
        """Record store-forwarded bytes ahead of the Spec-GetS response."""
        slot = self._slots[lq_index % self.capacity]
        line = (
            list(slot.data) if slot.data is not None
            else [0] * self.line_bytes
        )
        mask = 0
        for i, byte in enumerate(value_bytes):
            if offset + i < len(line):
                line[offset + i] = byte & 0xFF
                mask |= 1 << (offset + i)
        slot.lq_index = lq_index
        slot.line_addr = line_addr
        slot.data = tuple(line)
        slot.address_mask |= mask
        slot.from_store_mask |= mask
        slot.valid = True
        return slot

    def copy(self, src_lq_index, dst_lq_index, address_mask):
        """Section V-E: a later USL reuses the line an earlier USL fetched."""
        if src_lq_index >= dst_lq_index:
            raise SimulationError(
                "SB copy from a younger entry is forbidden (Section VII): "
                f"{src_lq_index} -> {dst_lq_index}"
            )
        src = self._slots[src_lq_index % self.capacity]
        dst = self._slots[dst_lq_index % self.capacity]
        if not src.valid or src.lq_index != src_lq_index:
            raise SimulationError("SB copy from an invalid source entry")
        dst.lq_index = dst_lq_index
        dst.valid = True
        dst.line_addr = src.line_addr
        dst.data = src.data
        dst.version = src.version
        dst.address_mask = address_mask
        return dst

    def invalidate(self, lq_index):
        """Reset the slot when its load is squashed or retires."""
        slot = self._slots[lq_index % self.capacity]
        if slot.lq_index == lq_index:
            slot.reset()

    def read_bytes(self, lq_index, offset, size):
        """The bytes the USL consumed (for validation comparison)."""
        slot = self._slots[lq_index % self.capacity]
        if not slot.valid or slot.lq_index != lq_index or slot.data is None:
            raise SimulationError(f"reading invalid SB entry {lq_index}")
        return slot.data[offset:offset + size]

    def valid_entries(self):
        return [s for s in self._slots if s.valid]
