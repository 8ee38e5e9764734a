"""ROB and LQ/SQ structure tests."""

import pytest

from repro.cpu import isa
from repro.cpu.lsq import (
    LoadQueue,
    STATE_EXPOSURE,
    STATE_VALIDATION,
    StoreQueue,
)
from repro.cpu.rob import ROBEntry, ReorderBuffer
from repro.errors import SimulationError


def entry(seq, kind=isa.OpKind.ALU, pos=None):
    return ROBEntry(isa.MicroOp(kind), seq, pos, False, 0)


class TestReorderBuffer:
    def test_fifo_order(self):
        rob = ReorderBuffer(8)
        entries = [entry(i) for i in range(3)]
        for e in entries:
            rob.push(e)
        assert rob.head() is entries[0]
        assert rob.tail() is entries[2]
        assert rob.pop_head() is entries[0]

    def test_full(self):
        rob = ReorderBuffer(2)
        rob.push(entry(0))
        rob.push(entry(1))
        assert rob.full
        with pytest.raises(SimulationError):
            rob.push(entry(2))

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            ReorderBuffer(2).pop_head()

    def test_squash_after_removes_younger(self):
        rob = ReorderBuffer(8)
        entries = [entry(i) for i in range(5)]
        for e in entries:
            rob.push(e)
        squashed = rob.squash_after(2)
        assert [e.seq for e in squashed] == [4, 3]
        assert all(e.squashed for e in squashed)
        assert rob.tail().seq == 2

    def test_squash_all(self):
        rob = ReorderBuffer(8)
        for i in range(3):
            rob.push(entry(i))
        squashed = rob.squash_after(-1)
        assert len(squashed) == 3
        assert rob.empty

    def test_find(self):
        rob = ReorderBuffer(8)
        target = entry(1)
        rob.push(entry(0))
        rob.push(target)
        assert rob.find(1) is target
        assert rob.find(99) is None


class TestLoadQueue:
    def test_virtual_indices_monotonic(self):
        lq = LoadQueue(4)
        a = lq.allocate(entry(0, isa.OpKind.LOAD), epoch=0)
        b = lq.allocate(entry(1, isa.OpKind.LOAD), epoch=0)
        assert (a.index, b.index) == (0, 1)
        lq.retire_head()
        c = lq.allocate(entry(2, isa.OpKind.LOAD), epoch=0)
        assert c.index == 2

    def test_slot_reuse_after_wrap(self):
        lq = LoadQueue(2)
        lq.allocate(entry(0, isa.OpKind.LOAD), epoch=0)
        lq.allocate(entry(1, isa.OpKind.LOAD), epoch=0)
        assert lq.full
        lq.retire_head()
        c = lq.allocate(entry(2, isa.OpKind.LOAD), epoch=0)
        assert c.index == 2
        assert lq.slot(2) is c

    def test_squash_to_drops_tail(self):
        lq = LoadQueue(4)
        entries = [lq.allocate(entry(i, isa.OpKind.LOAD), epoch=0) for i in range(4)]
        dropped = lq.squash_to(2)
        assert set(d.index for d in dropped) == {2, 3}
        assert len(lq) == 2
        assert lq.slot(2) is None

    def test_loads_to_line(self):
        lq = LoadQueue(4)
        a = lq.allocate(entry(0, isa.OpKind.LOAD), epoch=0)
        b = lq.allocate(entry(1, isa.OpKind.LOAD), epoch=0)
        lq.set_line(a, 0x1000)
        lq.set_line(b, 0x2000)
        assert lq.loads_to_line(0x1000) == [a]

    def test_older_pending_request_only_older_usls(self):
        lq = LoadQueue(8)
        older = lq.allocate(entry(0, isa.OpKind.LOAD), epoch=0)
        mid = lq.allocate(entry(1, isa.OpKind.LOAD), epoch=0)
        newer = lq.allocate(entry(2, isa.OpKind.LOAD), epoch=0)
        for e in (older, mid, newer):
            lq.set_line(e, 0x1000)
            e.issued = True
        older.vstate = STATE_VALIDATION
        mid.vstate = "N"  # normal load: does not fill the SB
        newer.vstate = STATE_EXPOSURE
        # mid ignores N loads and younger USLs; finds only `older`.
        assert lq.older_pending_request(mid, 0x1000) is older
        # the oldest has nothing older.
        assert lq.older_pending_request(older, 0x1000) is None

    def test_retire_empty_raises(self):
        with pytest.raises(SimulationError):
            LoadQueue(2).retire_head()


class TestStoreQueue:
    def test_forwarding_store_full_coverage_only(self):
        sq = StoreQueue(4)
        store = sq.allocate(entry(0, isa.OpKind.STORE))
        store.addr, store.size, store.value = 0x1000, 8, 0xAB
        store.addr_resolved = True
        assert sq.forwarding_store(load_seq=5, addr=0x1002, size=2) is store
        assert sq.forwarding_store(load_seq=5, addr=0x1006, size=4) is None

    def test_forwarding_requires_older_store(self):
        sq = StoreQueue(4)
        store = sq.allocate(entry(7, isa.OpKind.STORE))
        store.addr, store.size = 0x1000, 8
        store.addr_resolved = True
        assert sq.forwarding_store(load_seq=3, addr=0x1000, size=8) is None

    def test_forwarding_picks_youngest_older(self):
        sq = StoreQueue(4)
        old = sq.allocate(entry(1, isa.OpKind.STORE))
        young = sq.allocate(entry(2, isa.OpKind.STORE))
        for s, v in ((old, 1), (young, 2)):
            s.addr, s.size, s.value = 0x1000, 8, v
            s.addr_resolved = True
        assert sq.forwarding_store(load_seq=9, addr=0x1000, size=8) is young

    def test_unresolved_older_than(self):
        sq = StoreQueue(4)
        store = sq.allocate(entry(1, isa.OpKind.STORE))
        assert sq.unresolved_older_than(load_seq=5)
        store.addr_resolved = True
        assert not sq.unresolved_older_than(load_seq=5)
