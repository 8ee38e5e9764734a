"""The Section VII security-analysis invariants, tested end to end.

A transient (squashed) USL — the transmitter — must not be able to speed up
or slow down a later, retiring load — the receiver — through any InvisiSpec
structure.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from conftest import run_ops

from repro import ProcessorConfig, Scheme
from repro.cpu import isa
from repro.security.channel import AttackContext


def _transient_setup(target_addr):
    """A mispredicted branch whose wrong path loads ``target_addr``."""
    train = [isa.branch(pc=0x500, taken=True) for _ in range(30)]
    slow = isa.load(pc=0x10, addr=0xF000, size=8, dst="d")
    branch = isa.branch(pc=0x500, taken=False, deps=(1,))
    wrong = [isa.load(pc=0x600, addr=target_addr, size=8)]
    return train + [slow, branch], {branch.uid: wrong}


class TestNoSpeedUp:
    @staticmethod
    def _probe_after_transient(scheme):
        target = 0xC8C0
        ops, wrong = _transient_setup(target)
        context = AttackContext(ProcessorConfig(scheme=scheme))
        context.run_ops(0, ops, wrong)
        return context.probe_latency(0, target)

    def test_transmitter_speeds_up_receiver_only_in_base(self):
        base_latency = self._probe_after_transient(Scheme.BASE)
        is_latency = self._probe_after_transient(Scheme.IS_SPECTRE)
        assert base_latency <= 40  # the classic leak
        assert is_latency >= 100  # InvisiSpec: full memory latency

    def test_is_future_also_blocks(self):
        assert self._probe_after_transient(Scheme.IS_FUTURE) >= 100


class TestSquashedStateUnusable:
    def test_sb_entry_of_squashed_usl_is_reset(self):
        target = 0xD9C0
        ops, wrong = _transient_setup(target)
        result, system = run_ops(ops, scheme=Scheme.IS_SPECTRE,
                                 wrong_paths=wrong)
        core = system.cores[0]
        line = system.space.line_of(target)
        assert all(
            entry.line_addr != line
            for entry in core.visibility.sb.valid_entries()
        )

    def test_llc_sb_entry_stale_after_epoch_bump(self):
        """After a squash the core's epoch advances, so leftovers in the
        LLC-SB can never match a later load's (index, epoch)."""
        target = 0xDAC0
        ops, wrong = _transient_setup(target)
        result, system = run_ops(ops, scheme=Scheme.IS_SPECTRE,
                                 wrong_paths=wrong)
        core = system.cores[0]
        line = system.space.line_of(target)
        for slot in system.hierarchy.llc_sbs[0]._slots:
            if slot.valid and slot.line_addr == line:
                assert slot.epoch < core.epoch

    def test_no_cache_or_directory_footprint(self):
        target = 0xDBC0
        ops, wrong = _transient_setup(target)
        result, system = run_ops(ops, scheme=Scheme.IS_FUTURE,
                                 wrong_paths=wrong)
        line = system.space.line_of(target)
        hierarchy = system.hierarchy
        assert not hierarchy.l1s[0].contains(line)
        bank = hierarchy.bank_of(line)
        assert not hierarchy.l2[bank].contains(line)
        assert hierarchy.dirs[bank].entry(line) is None

    def test_tlb_untouched_by_transient_load(self):
        target = 0x55_0000  # fresh page
        ops, wrong = _transient_setup(target)
        result, system = run_ops(ops, scheme=Scheme.IS_SPECTRE,
                                 wrong_paths=wrong)
        vpn = system.space.page_of(target)
        assert not system.cores[0].tlb.contains(vpn)
