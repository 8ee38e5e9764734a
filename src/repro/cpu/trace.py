"""Instruction stream interfaces.

A :class:`TraceSource` produces the committed (correct-path) instruction
stream plus, for any branch, a *wrong-path* stream: the transient
instructions the core fetches while a mispredicted branch is unresolved.
Wrong-path instructions are first-class — InvisiSpec's entire subject is
their side effects.

:class:`ReplayStream` wraps a source with the squash/replay bookkeeping the
core needs: fetched-but-unretired ops are kept by stream position so a
squash can rewind and re-fetch the identical ops.
"""

from __future__ import annotations

from ..errors import WorkloadError


class TraceSource:
    """Abstract instruction source for one hardware thread."""

    def next_op(self):
        """Next correct-path MicroOp, or ``None`` when the program ends."""
        raise NotImplementedError

    def wrong_path_op(self, branch_op, index):
        """``index``-th transient op fetched past a mispredicted branch.

        Returns ``None`` to stop supplying wrong-path work (the frontend
        then idles until the branch resolves).
        """
        return None


class ProgramTrace(TraceSource):
    """Explicit program: a list of ops plus per-branch wrong-path arms.

    ``wrong_paths`` maps a branch op's ``uid`` to the list of ops fetched
    when that branch is mispredicted — i.e. the *other* arm of the branch.
    This is how attack programs express the transient sequences of Figure 1.
    """

    def __init__(self, ops, wrong_paths=None):
        self._ops = list(ops)
        self._pos = 0
        self._wrong_paths = dict(wrong_paths or {})

    def next_op(self):
        if self._pos >= len(self._ops):
            return None
        op = self._ops[self._pos]
        self._pos += 1
        return op

    def wrong_path_op(self, branch_op, index):
        arm = self._wrong_paths.get(branch_op.uid)
        if arm is None or index >= len(arm):
            return None
        return arm[index]


class InteractiveTrace(TraceSource):
    """A trace that can be fed incrementally between simulation phases.

    Attack experiments run in phases on persistent cores (train the
    predictor, flush, trigger the victim, scan): each phase feeds more ops,
    reopens the core, and runs the kernel until it idles again.
    """

    def __init__(self):
        self._ops = []
        self._pos = 0
        self._wrong_paths = {}

    def feed(self, ops, wrong_paths=None):
        """Append ops (and wrong-path arms keyed by op uid) to the stream."""
        self._ops.extend(ops)
        if wrong_paths:
            self._wrong_paths.update(wrong_paths)

    def next_op(self):
        if self._pos >= len(self._ops):
            return None
        op = self._ops[self._pos]
        self._pos += 1
        return op

    def wrong_path_op(self, branch_op, index):
        arm = self._wrong_paths.get(branch_op.uid)
        if arm is None or index >= len(arm):
            return None
        return arm[index]


class ReplayStream:
    """Squash-aware fetch stream over a :class:`TraceSource`.

    Correct-path ops get consecutive stream positions.  The stream keeps
    every op between the oldest unretired position and the fetch point so a
    squash can rewind to any unretired position and the core re-fetches
    byte-identical ops (same uids, same addresses).
    """

    def __init__(self, source, on_end=None):
        self.source = source
        #: Called when the source first runs dry and the end latches.
        self.on_end = on_end
        self._buffer = {}  # stream position -> MicroOp
        self._fetch_pos = 0
        self._retire_pos = 0  # positions < retire_pos are retired
        self._exhausted = False

    @property
    def retire_pos(self):
        """Oldest unretired stream position."""
        return self._retire_pos

    @property
    def exhausted(self):
        """True once the source ended and no buffered op remains unfetched."""
        return self._exhausted and self._fetch_pos not in self._buffer

    def fetch(self):
        """Return ``(stream_pos, op)`` for the next correct-path op."""
        pos = self._fetch_pos
        op = self._buffer.get(pos)
        if op is None:
            if self._exhausted:
                return None
            op = self.source.next_op()
            if op is None:
                self._exhausted = True
                if self.on_end is not None:
                    self.on_end()
                return None
            self._buffer[pos] = op
        self._fetch_pos = pos + 1
        return pos, op

    def rewind_to(self, pos):
        """Resume fetching at stream position ``pos`` (after a squash)."""
        if pos < self._retire_pos:
            raise WorkloadError(
                f"cannot rewind to retired position {pos} (< {self._retire_pos})"
            )
        self._fetch_pos = pos

    def retire(self, pos):
        """Mark position ``pos`` retired; frees replay storage."""
        if pos != self._retire_pos:
            raise WorkloadError(
                f"retiring position {pos}, expected {self._retire_pos}"
            )
        self._buffer.pop(pos, None)
        self._retire_pos = pos + 1

    def wrong_path_op(self, branch_op, index):
        return self.source.wrong_path_op(branch_op, index)

    def reopen(self):
        """Clear the end-of-source latch after the source grew."""
        self._exhausted = False
