"""Cache hierarchy transaction tests, driven without cores.

Requests are submitted directly and the kernel drains the scheduled events;
a stub core records invalidation/eviction callbacks.
"""

import itertools

import pytest

from repro.coherence.checker import check_all
from repro.coherence.hierarchy import CacheHierarchy, MemRequest, RequestKind
from repro.coherence.mesi import MESIState
from repro.invisispec.llc_sb import LLCSpeculativeBuffer
from repro.mem.address import AddressSpace
from repro.mem.memimage import MemoryImage
from repro.params import SystemParams
from repro.sim.kernel import SimKernel
from repro.stats.counters import Counters

_seq = itertools.count(1)


class StubCore:
    def __init__(self):
        self.invalidations = []
        self.evictions = []

    def on_invalidation(self, line, reason):
        self.invalidations.append((line, reason))

    def on_l1_eviction(self, line):
        self.evictions.append(line)


class Rig:
    def __init__(self, num_cores=2, with_llc_sb=False):
        self.params = SystemParams(num_cores=num_cores)
        self.kernel = SimKernel()
        self.space = AddressSpace()
        self.image = MemoryImage(self.space)
        self.counters = Counters()
        self.hierarchy = CacheHierarchy(
            self.params, self.kernel, self.image, self.counters
        )
        self.cores = [StubCore() for _ in range(num_cores)]
        for i, core in enumerate(self.cores):
            self.hierarchy.attach_core(i, core)
        if with_llc_sb:
            self.llc_sbs = [
                LLCSpeculativeBuffer(32) for _ in range(num_cores)
            ]
            self.hierarchy.set_llc_sbs(self.llc_sbs)

    def request(self, core, addr, kind, size=8, value=0, lq_index=0, epoch=0):
        """Submit and run to completion; returns (result, latency)."""
        outcome = {}
        start = self.kernel.cycle
        req = MemRequest(
            core_id=core,
            addr=addr,
            size=size,
            kind=kind,
            seq=next(_seq),
            lq_index=lq_index,
            epoch=epoch,
            store_value=value,
            on_complete=lambda r: outcome.setdefault("result", r),
        )
        self.hierarchy.submit(req)
        self.kernel.run(max_cycles=start + 100_000)
        assert "result" in outcome, "request never completed"
        return outcome["result"], outcome["result"].ready_cycle - start


LINE_A = 0x0004_0000
LINE_B = 0x0008_0000


class TestLoadPaths:
    def test_cold_load_goes_to_dram(self):
        rig = Rig()
        result, latency = rig.request(0, LINE_A, RequestKind.LOAD)
        assert result.level == "dram"
        assert latency >= rig.params.dram_latency

    def test_second_load_hits_l1(self):
        rig = Rig()
        rig.request(0, LINE_A, RequestKind.LOAD)
        result, latency = rig.request(0, LINE_A, RequestKind.LOAD)
        assert result.level == "l1"
        assert latency <= 3

    def test_load_fills_l2_inclusively(self):
        rig = Rig()
        rig.request(0, LINE_A, RequestKind.LOAD)
        bank = rig.hierarchy.bank_of(rig.space.line_of(LINE_A))
        assert rig.hierarchy.l2[bank].contains(rig.space.line_of(LINE_A))
        check_all(rig.hierarchy)

    def test_other_core_load_stays_on_chip(self):
        # Core 0 holds the sole copy in E (it is the tracked owner), so
        # core 1's read is forwarded to it; either way, no DRAM access.
        rig = Rig()
        rig.request(0, LINE_A, RequestKind.LOAD)
        dram_before = rig.hierarchy.dram.stat_accesses
        result, latency = rig.request(1, LINE_A, RequestKind.LOAD)
        assert result.level in ("l2", "remote_l1")
        assert rig.hierarchy.dram.stat_accesses == dram_before
        assert latency < rig.params.dram_latency
        # Both copies end up Shared.
        assert rig.hierarchy.l1_state(0, LINE_A) is MESIState.SHARED

    def test_load_returns_memory_value(self):
        rig = Rig()
        rig.image.write(LINE_A, 8, 0xCAFEBABE)
        result, _ = rig.request(0, LINE_A, RequestKind.LOAD)
        value = sum(b << (8 * i) for i, b in enumerate(result.data))
        assert value == 0xCAFEBABE


class TestStorePaths:
    def test_store_acquires_modified(self):
        rig = Rig()
        rig.request(0, LINE_A, RequestKind.STORE, value=7)
        assert rig.hierarchy.l1_state(0, LINE_A) is MESIState.MODIFIED
        assert rig.image.read(LINE_A, 8) == 7

    def test_store_invalidates_remote_sharer(self):
        rig = Rig()
        rig.request(1, LINE_A, RequestKind.LOAD)
        rig.request(0, LINE_A, RequestKind.STORE, value=1)
        assert rig.hierarchy.l1_state(1, LINE_A) is MESIState.INVALID
        assert any(
            line == rig.space.line_of(LINE_A)
            for line, _ in rig.cores[1].invalidations
        )

    def test_store_hit_in_shared_upgrades(self):
        rig = Rig()
        rig.request(0, LINE_A, RequestKind.LOAD)
        rig.request(1, LINE_A, RequestKind.LOAD)  # both share now
        rig.request(0, LINE_A, RequestKind.STORE, value=2)
        assert rig.counters["hierarchy.upgrades"] >= 1
        assert rig.hierarchy.l1_state(1, LINE_A) is MESIState.INVALID

    def test_remote_modified_moves_ownership(self):
        rig = Rig()
        rig.request(0, LINE_A, RequestKind.STORE, value=3)
        rig.request(1, LINE_A, RequestKind.STORE, value=4)
        assert rig.hierarchy.l1_state(1, LINE_A) is MESIState.MODIFIED
        assert rig.hierarchy.l1_state(0, LINE_A) is MESIState.INVALID
        assert rig.image.read(LINE_A, 8) == 4


class TestRemoteOwnerReads:
    def test_read_from_remote_modified_demotes_owner(self):
        rig = Rig()
        rig.request(0, LINE_A, RequestKind.STORE, value=9)
        result, _ = rig.request(1, LINE_A, RequestKind.LOAD)
        assert result.level == "remote_l1"
        assert rig.hierarchy.l1_state(0, LINE_A) is MESIState.SHARED
        value = sum(b << (8 * i) for i, b in enumerate(result.data))
        assert value == 9


class TestSpecGetS:
    def test_spec_load_leaves_no_l1_or_l2_state(self):
        rig = Rig()
        result, _ = rig.request(0, LINE_A, RequestKind.SPEC_LOAD)
        assert result.level == "dram"
        line = rig.space.line_of(LINE_A)
        assert not rig.hierarchy.l1s[0].contains(line)
        bank = rig.hierarchy.bank_of(line)
        assert not rig.hierarchy.l2[bank].contains(line)
        assert rig.hierarchy.dirs[bank].entry(line) is None

    def test_spec_load_does_not_change_directory_for_cached_line(self):
        rig = Rig()
        rig.request(1, LINE_A, RequestKind.LOAD)
        line = rig.space.line_of(LINE_A)
        bank = rig.hierarchy.bank_of(line)
        before = set(rig.hierarchy.dirs[bank].entry(line).sharers)
        rig.request(0, LINE_A, RequestKind.SPEC_LOAD)
        assert set(rig.hierarchy.dirs[bank].entry(line).sharers) == before

    def test_spec_load_reads_remote_modified_without_demoting(self):
        rig = Rig()
        rig.request(1, LINE_A, RequestKind.STORE, value=5)
        result, _ = rig.request(0, LINE_A, RequestKind.SPEC_LOAD)
        assert result.level == "remote_l1"
        assert rig.hierarchy.l1_state(1, LINE_A) is MESIState.MODIFIED

    def test_spec_load_inserts_into_llc_sb_on_dram_miss(self):
        rig = Rig(with_llc_sb=True)
        rig.request(0, LINE_A, RequestKind.SPEC_LOAD, lq_index=3, epoch=1)
        line = rig.space.line_of(LINE_A)
        assert line in rig.llc_sbs[0].valid_lines()


class TestValidationExposure:
    def test_validation_hits_llc_sb_instead_of_dram(self):
        rig = Rig(with_llc_sb=True)
        rig.request(0, LINE_A, RequestKind.SPEC_LOAD, lq_index=3, epoch=1)
        dram_before = rig.hierarchy.dram.stat_accesses
        result, latency = rig.request(
            0, LINE_A, RequestKind.VALIDATE, lq_index=3, epoch=1
        )
        assert result.level == "llc_sb"
        assert rig.hierarchy.dram.stat_accesses == dram_before
        assert latency < rig.params.dram_latency

    def test_validation_fills_caches(self):
        rig = Rig(with_llc_sb=True)
        rig.request(0, LINE_A, RequestKind.SPEC_LOAD, lq_index=3, epoch=1)
        rig.request(0, LINE_A, RequestKind.VALIDATE, lq_index=3, epoch=1)
        line = rig.space.line_of(LINE_A)
        assert rig.hierarchy.l1s[0].contains(line)
        check_all(rig.hierarchy)

    def test_llc_sb_purged_after_use(self):
        rig = Rig(with_llc_sb=True)
        rig.request(0, LINE_A, RequestKind.SPEC_LOAD, lq_index=3, epoch=1)
        rig.request(0, LINE_A, RequestKind.VALIDATE, lq_index=3, epoch=1)
        assert rig.space.line_of(LINE_A) not in rig.llc_sbs[0].valid_lines()

    def test_epoch_mismatch_misses_llc_sb(self):
        rig = Rig(with_llc_sb=True)
        rig.request(0, LINE_A, RequestKind.SPEC_LOAD, lq_index=3, epoch=1)
        result, _ = rig.request(
            0, LINE_A, RequestKind.VALIDATE, lq_index=3, epoch=2
        )
        assert result.level == "dram"

    def test_safe_load_miss_purges_all_llc_sbs(self):
        rig = Rig(with_llc_sb=True)
        rig.request(0, LINE_A, RequestKind.SPEC_LOAD, lq_index=3, epoch=1)
        rig.request(1, LINE_A, RequestKind.LOAD)
        assert rig.space.line_of(LINE_A) not in rig.llc_sbs[0].valid_lines()

    def test_exposure_completes_and_fills(self):
        rig = Rig(with_llc_sb=True)
        rig.request(0, LINE_A, RequestKind.SPEC_LOAD, lq_index=4, epoch=0)
        result, _ = rig.request(
            0, LINE_A, RequestKind.EXPOSE, lq_index=4, epoch=0
        )
        assert result.level in ("llc_sb", "dram")
        assert rig.hierarchy.l1s[0].contains(rig.space.line_of(LINE_A))


class TestFlush:
    def test_clflush_removes_everywhere(self):
        rig = Rig()
        rig.request(0, LINE_A, RequestKind.LOAD)
        rig.request(1, LINE_A, RequestKind.LOAD)
        line = rig.space.line_of(LINE_A)
        rig.hierarchy.flush_line(line)
        assert not rig.hierarchy.l1s[0].contains(line)
        assert not rig.hierarchy.l1s[1].contains(line)
        bank = rig.hierarchy.bank_of(line)
        assert not rig.hierarchy.l2[bank].contains(line)

    def test_reload_after_flush_misses(self):
        rig = Rig()
        rig.request(0, LINE_A, RequestKind.LOAD)
        rig.hierarchy.flush_line(rig.space.line_of(LINE_A))
        result, latency = rig.request(0, LINE_A, RequestKind.LOAD)
        assert result.level == "dram"
        assert latency >= rig.params.dram_latency


class TestInclusion:
    def test_inclusion_after_mixed_traffic(self):
        rig = Rig()
        for i in range(40):
            core = i % 2
            addr = 0x10_0000 + 64 * (i * 7 % 23)
            kind = RequestKind.STORE if i % 3 == 0 else RequestKind.LOAD
            rig.request(core, addr, kind, value=i)
        check_all(rig.hierarchy)
