"""Golden memory model for differential consistency checking.

The simulator's architectural memory is :class:`~repro.mem.memimage.
MemoryImage`: stores update it at the instant they perform.  This module
wraps the image's write paths to keep a bounded per-line *value history*
(every state the line has been in), and replays each committed load
against it:

* **thin-air check** — the bytes a load commits must have existed at its
  location at some point (initial value or after some recorded write).
  InvisiSpec's value-based validation means a USL may legitimately commit
  a *stale* value (and an ABA sequence passes validation, Section VI-E4),
  so any historical value is legal — but a value that never existed is a
  simulator bug.
* **per-location coherence (CoRR)** — two program-order loads of the same
  line by one core may not read values in an order no write history
  explains.  Because values can repeat (ABA), the check is conservative:
  a violation is reported only when *every* occurrence of the younger
  load's value precedes *every* possible position of the elder's
  (``max(younger ranks) < lower_bound(elder rank)``), which is sound
  under value-based validation and never false-positives on ABA.

When a line's history ring overflows (``history_limit`` writes), the line
is marked truncated and checks that would need the dropped prefix are
skipped rather than guessed.
"""

from __future__ import annotations


class GoldenMemoryModel:
    """Bounded value-history oracle over the architectural memory image."""

    def __init__(self, image, space, history_limit=128):
        self.image = image
        self.space = space
        self.history_limit = max(2, history_limit)
        self._hist = {}  # line -> [(absolute rank, full-line byte tuple)]
        self._next_rank = {}  # line -> next rank to assign
        self._truncated = set()  # lines whose oldest history was dropped
        self._last_rank = {}  # (core_id, line) -> lower bound of last read's rank
        self.stat_writes_recorded = 0
        self.stat_loads_checked = 0
        self.stat_checks_skipped = 0
        self._attached = False

    # ------------------------------------------------------------- recording

    def attach(self):
        """Shadow the image's write paths with recording wrappers."""
        if self._attached:
            return
        self._attached = True
        image = self.image
        orig_write = image.write
        orig_write_bytes = image.write_bytes

        def write(addr, size, value):
            lines = list(self.space.lines_touched(addr, max(size, 1)))
            self._pre_write(lines)
            orig_write(addr, size, value)
            self._post_write(lines)

        def write_bytes(addr, data):
            data = list(data)
            lines = list(self.space.lines_touched(addr, max(len(data), 1)))
            self._pre_write(lines)
            orig_write_bytes(addr, data)
            self._post_write(lines)

        image.write = write
        image.write_bytes = write_bytes

    def detach(self):
        """Restore the image's own write paths (the wrappers close over
        the image, a cycle that would outlive the run)."""
        self._attached = False
        del self.image.write
        del self.image.write_bytes

    def _line_bytes(self, line):
        return self.image.read_bytes(line, self.space.line_bytes)

    def _pre_write(self, lines):
        for line in lines:
            if line not in self._hist:
                # Lazily capture the pre-write state as rank 0, so loads of
                # the initial value (including stale USL reads) still match.
                self._hist[line] = [(0, self._line_bytes(line))]
                self._next_rank[line] = 1

    def _post_write(self, lines):
        for line in lines:
            hist = self._hist[line]
            rank = self._next_rank[line]
            self._next_rank[line] = rank + 1
            hist.append((rank, self._line_bytes(line)))
            self.stat_writes_recorded += 1
            if len(hist) > self.history_limit:
                hist.pop(0)
                self._truncated.add(line)

    # -------------------------------------------------------------- checking

    def check_load(self, core_id, addr, size, value):
        """Validate one committed load; returns an error string or None.

        ``value`` is the committed integer value (little-endian over
        ``size`` bytes).  The caller must not pass store-forwarded loads
        (their value may legally predate the store's perform) or loads
        crossing a line boundary.
        """
        if size <= 0:
            return None
        line = self.space.line_of(addr)
        offset = addr - line
        if offset + size > self.space.line_bytes:
            self.stat_checks_skipped += 1
            return None
        value_bytes = tuple((value >> (8 * i)) & 0xFF for i in range(size))

        hist = self._hist.get(line)
        if hist is None:
            # Never written since install: the live image is the only state.
            self.stat_loads_checked += 1
            if self.image.read_bytes(addr, size) != value_bytes:
                return (
                    f"committed value 0x{value:x} does not match memory at "
                    f"0x{addr:x} (line never written)"
                )
            return None

        self.stat_loads_checked += 1
        matches = [
            rank for rank, line_bytes in hist
            if line_bytes[offset:offset + size] == value_bytes
        ]
        if not matches:
            if line in self._truncated:
                self.stat_checks_skipped += 1
                return None  # the matching state may be in the dropped prefix
            return (
                f"committed value 0x{value:x} never existed at 0x{addr:x} "
                f"(out-of-thin-air; {len(hist)} states recorded)"
            )

        key = (core_id, line)
        lower_bound = self._last_rank.get(key, 0)
        if max(matches) < lower_bound:
            return (
                f"per-location coherence violated at 0x{addr:x}: committed "
                f"value 0x{value:x} only existed before the value an older "
                f"load of this line already observed "
                f"(ranks {matches} < lower bound {lower_bound})"
            )
        self._last_rank[key] = max(lower_bound, min(matches))
        return None
