"""Hierarchy corner paths: bounce, bank queueing, ports, merge classes."""

import itertools

from repro.coherence.checker import check_all
from repro.coherence.hierarchy import MemRequest, RequestKind
from repro.coherence.mesi import MESIState
from repro.invisispec.llc_sb import LLCSpeculativeBuffer
from repro.mem.address import AddressSpace
from repro.mem.memimage import MemoryImage
from repro.params import SystemParams
from repro.sim.kernel import SimKernel
from repro.stats.counters import Counters

_seq = itertools.count(1_000_000)

LINE_A = 0x0004_0000


class Rig:
    def __init__(self, num_cores=2):
        self.params = SystemParams(num_cores=num_cores)
        self.kernel = SimKernel()
        self.space = AddressSpace()
        self.image = MemoryImage(self.space)
        self.counters = Counters()
        from repro.coherence.hierarchy import CacheHierarchy

        self.hierarchy = CacheHierarchy(
            self.params, self.kernel, self.image, self.counters
        )
        for i in range(num_cores):
            self.hierarchy.attach_core(i, _StubCore())

    def submit(self, core, addr, kind, seq=None, value=0, lq_index=0, epoch=0):
        outcome = {}
        req = MemRequest(
            core_id=core,
            addr=addr,
            size=8,
            kind=kind,
            seq=seq if seq is not None else next(_seq),
            lq_index=lq_index,
            epoch=epoch,
            store_value=value,
            on_complete=lambda r: outcome.setdefault("result", r),
        )
        self.hierarchy.submit(req)
        return req, outcome

    def drain(self):
        self.kernel.run(max_cycles=self.kernel.cycle + 100_000)


class _StubCore:
    def on_invalidation(self, line, reason):
        pass

    def on_l1_eviction(self, line):
        pass


class TestSpecGetSBounce:
    def test_bounce_during_writeback_window(self):
        rig = Rig()
        # Core 1 owns the line dirty.
        rig.submit(1, LINE_A, RequestKind.STORE, value=1)
        rig.drain()
        # Open a write-back transient window on the directory entry.
        line = rig.space.line_of(LINE_A)
        bank = rig.hierarchy.bank_of(line)
        entry = rig.hierarchy.dirs[bank].entry(line)
        entry.wb_pending_until = rig.kernel.cycle + 50
        req, outcome = rig.submit(0, LINE_A, RequestKind.SPEC_LOAD)
        rig.drain()
        assert "result" in outcome
        assert outcome["result"].bounces >= 1
        assert rig.counters["invisispec.spec_gets_bounces"] >= 1

    def test_bounced_request_eventually_gets_data(self):
        rig = Rig()
        rig.submit(1, LINE_A, RequestKind.STORE, value=0xEE)
        rig.drain()
        line = rig.space.line_of(LINE_A)
        bank = rig.hierarchy.bank_of(line)
        rig.hierarchy.dirs[bank].entry(line).wb_pending_until = (
            rig.kernel.cycle + 30
        )
        _req, outcome = rig.submit(0, LINE_A, RequestKind.SPEC_LOAD)
        rig.drain()
        value = sum(
            b << (8 * i) for i, b in enumerate(outcome["result"].data)
        )
        assert value == 0xEE


class TestBankAndPortContention:
    def test_bank_queue_serializes_bursts(self):
        rig = Rig()
        outcomes = []
        # A burst of misses to distinct lines homed at the same bank.
        num_banks = rig.hierarchy.num_banks
        for i in range(8):
            addr = LINE_A + 64 * num_banks * i  # same bank every time
            outcomes.append(rig.submit(0, addr, RequestKind.LOAD)[1])
        rig.drain()
        assert rig.counters["l2.bank_queue_cycles"] > 0
        assert all("result" in o for o in outcomes)

    def test_l1_port_limit_spreads_accesses(self):
        rig = Rig()
        # Warm one line, then issue more same-cycle hits than ports.
        rig.submit(0, LINE_A, RequestKind.LOAD)
        rig.drain()
        ready = []
        for _ in range(9):  # 3 ports -> at least 3 cycles of slots
            _req, outcome = rig.submit(0, LINE_A, RequestKind.LOAD)
            ready.append(outcome)
        rig.drain()
        cycles = {o["result"].ready_cycle for o in ready}
        assert len(cycles) >= 3


class TestMergeClasses:
    def test_visible_loads_merge(self):
        rig = Rig()
        _r1, o1 = rig.submit(0, LINE_A, RequestKind.LOAD, seq=10)
        _r2, o2 = rig.submit(0, LINE_A + 8, RequestKind.LOAD, seq=11)
        rig.drain()
        assert rig.counters["hierarchy.mshr_merges"] == 1
        assert "result" in o1 and "result" in o2

    def test_older_request_does_not_merge_into_younger(self):
        """Section VII: never reuse state allocated by a younger access."""
        rig = Rig()
        rig.submit(0, LINE_A, RequestKind.SPEC_LOAD, seq=20)
        rig.submit(0, LINE_A + 8, RequestKind.SPEC_LOAD, seq=5)  # older!
        rig.drain()
        assert rig.counters["hierarchy.mshr_merges"] == 0
        assert rig.counters["hierarchy.mshr_bypass"] == 1

    def test_spec_and_visible_never_merge(self):
        rig = Rig()
        rig.submit(0, LINE_A, RequestKind.SPEC_LOAD, seq=30)
        rig.submit(0, LINE_A + 8, RequestKind.LOAD, seq=31)
        rig.drain()
        assert rig.counters["hierarchy.mshr_merges"] == 0

    def test_stores_never_merge(self):
        rig = Rig()
        rig.submit(0, LINE_A, RequestKind.LOAD, seq=40)
        rig.submit(0, LINE_A, RequestKind.STORE, seq=41, value=9)
        rig.drain()
        assert rig.counters["hierarchy.mshr_merges"] == 0
        assert rig.image.read(LINE_A, 8) == 9


class TestL2EvictionRecall:
    def test_l2_eviction_recalls_l1_copies(self):
        """Inclusive hierarchy: evicting an L2 line invalidates the L1s."""
        params = SystemParams(
            num_cores=1,
            l2_banks=1,
            l2_bank=SystemParams().l2_bank.__class__(
                size_bytes=64 * 16 * 4, line_bytes=64, ways=4,
                round_trip_latency=8, ports=1,
            ),
        )
        kernel = SimKernel()
        space = AddressSpace()
        image = MemoryImage(space)
        counters = Counters()
        from repro.coherence.hierarchy import CacheHierarchy

        hierarchy = CacheHierarchy(params, kernel, image, counters)
        hierarchy.attach_core(0, _StubCore())
        # Overflow one tiny-L2 set.
        first = 0x10_0000
        victims = []
        for i in range(8):
            addr = first + 64 * 16 * i  # same L2 set
            req = MemRequest(0, addr, 8, RequestKind.LOAD, seq=next(_seq))
            hierarchy.submit(req)
            kernel.run(max_cycles=kernel.cycle + 10_000)
        assert counters["coherence.l2_evictions"] > 0
        check_all(hierarchy)
