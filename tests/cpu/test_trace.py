"""Trace source and replay stream tests."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu import isa
from repro.cpu.trace import InteractiveTrace, ProgramTrace, ReplayStream
from repro.errors import WorkloadError


def ops(n):
    return [isa.alu(pc=i) for i in range(n)]


class TestProgramTrace:
    def test_sequential_delivery(self):
        program = ops(3)
        trace = ProgramTrace(program)
        assert [trace.next_op() for _ in range(3)] == program
        assert trace.next_op() is None

    def test_wrong_path_arm(self):
        branch = isa.branch(pc=0x10, taken=False)
        arm = ops(2)
        trace = ProgramTrace([branch], wrong_paths={branch.uid: arm})
        assert trace.wrong_path_op(branch, 0) is arm[0]
        assert trace.wrong_path_op(branch, 1) is arm[1]
        assert trace.wrong_path_op(branch, 2) is None

    def test_no_wrong_path_returns_none(self):
        branch = isa.branch(pc=0x10)
        trace = ProgramTrace([branch])
        assert trace.wrong_path_op(branch, 0) is None


class TestReplayStream:
    def test_fetch_assigns_positions(self):
        stream = ReplayStream(ProgramTrace(ops(3)))
        assert stream.fetch()[0] == 0
        assert stream.fetch()[0] == 1

    def test_rewind_replays_identical_ops(self):
        stream = ReplayStream(ProgramTrace(ops(5)))
        first = [stream.fetch() for _ in range(4)]
        stream.rewind_to(1)
        replayed = [stream.fetch() for _ in range(3)]
        assert [op for _, op in replayed] == [op for _, op in first[1:]]

    def test_retire_frees_and_blocks_rewind(self):
        stream = ReplayStream(ProgramTrace(ops(4)))
        stream.fetch()
        stream.fetch()
        stream.retire(0)
        with pytest.raises(WorkloadError):
            stream.rewind_to(0)

    def test_retire_out_of_order_raises(self):
        stream = ReplayStream(ProgramTrace(ops(4)))
        stream.fetch()
        stream.fetch()
        with pytest.raises(WorkloadError):
            stream.retire(1)

    def test_exhausted_after_source_ends(self):
        stream = ReplayStream(ProgramTrace(ops(1)))
        stream.fetch()
        assert stream.fetch() is None
        assert stream.exhausted

    def test_on_end_runs_once_when_the_end_latches(self):
        ended = []
        stream = ReplayStream(ProgramTrace(ops(1)), on_end=lambda: ended.append(1))
        stream.fetch()
        assert ended == []
        assert stream.fetch() is None
        assert stream.fetch() is None
        assert ended == [1]

    def test_exhausted_false_when_replay_pending(self):
        stream = ReplayStream(ProgramTrace(ops(2)))
        stream.fetch()
        stream.fetch()
        assert stream.fetch() is None
        stream.rewind_to(1)
        assert not stream.exhausted
        assert stream.fetch()[0] == 1

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=20))
    def test_rewind_always_replays_same_uid(self, rewinds):
        stream = ReplayStream(ProgramTrace(ops(10)))
        seen = {}
        pos_limit = 0
        for target in rewinds:
            # fetch a few
            for _ in range(3):
                item = stream.fetch()
                if item is None:
                    break
                pos, op = item
                if pos in seen:
                    assert seen[pos] is op
                seen[pos] = op
                pos_limit = max(pos_limit, pos)
            stream.rewind_to(min(target, pos_limit))


class TestInteractiveTrace:
    def test_feed_extends(self):
        trace = InteractiveTrace()
        assert trace.next_op() is None
        trace.feed(ops(2))
        assert trace.next_op() is not None
        assert trace.next_op() is not None
        assert trace.next_op() is None
        trace.feed(ops(1))
        assert trace.next_op() is not None

    def test_reopen_via_replay(self):
        trace = InteractiveTrace()
        stream = ReplayStream(trace)
        assert stream.fetch() is None
        assert stream.exhausted
        trace.feed(ops(1))
        stream.reopen()
        assert not stream.exhausted
        assert stream.fetch() is not None
