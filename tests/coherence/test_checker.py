"""Coherence-invariant checker tests."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from conftest import run_ops

from repro import (
    ConsistencyModel,
    ProcessorConfig,
    ProtocolError,
    Scheme,
    SystemParams,
)
from repro.coherence.checker import check_all, line_coherence_problems
from repro.coherence.mesi import MESIState
from repro.cpu.isa import MicroOp, OpKind
from repro.cpu.trace import ProgramTrace
from repro.system import System


def racing_system(scheme=Scheme.BASE, rounds=25):
    shared = 0x7600_0000
    reader = []
    for i in range(rounds):
        reader.append(MicroOp(OpKind.LOAD, pc=0x100,
                              addr=0x1700_0000 + 64 * i, size=8,
                              deps=(2,) if i else ()))
        reader.append(MicroOp(OpKind.LOAD, pc=0x104, addr=shared, size=8))
    writer = []
    for i in range(rounds):
        writer.append(MicroOp(OpKind.ALU, pc=0x200, latency=90,
                              deps=(2,) if i else ()))
        writer.append(MicroOp(OpKind.STORE, pc=0x204, addr=shared, size=8,
                              store_value=i))
    system = System(
        params=SystemParams(num_cores=2),
        config=ProcessorConfig(scheme=scheme,
                               consistency=ConsistencyModel.TSO),
        traces=[ProgramTrace(reader), ProgramTrace(writer)],
    )
    system.run(max_cycles=2_000_000)
    return system


class TestInvariantsHold:
    @pytest.mark.parametrize("scheme", [Scheme.BASE, Scheme.IS_FUTURE])
    def test_after_contended_run(self, scheme):
        system = racing_system(scheme)
        assert check_all(system.hierarchy)

    def test_after_single_core_run(self):
        from conftest import simple_load_alu_ops

        _result, system = run_ops(simple_load_alu_ops(30))
        assert check_all(system.hierarchy)


class TestViolationsDetected:
    def test_swmr_detects_double_writer(self):
        system = racing_system()
        hierarchy = system.hierarchy
        # Corrupt: force the same line writable in both L1s.
        line = 0x7600_0000
        for l1 in hierarchy.l1s:
            if not l1.contains(line):
                l1.insert(line, MESIState.MODIFIED)
            else:
                l1.lookup(line, touch=False).state = MESIState.MODIFIED
        with pytest.raises(ProtocolError, match="swmr"):
            check_all(hierarchy)

    def test_directory_agreement_detects_untracked_line(self):
        system = racing_system()
        hierarchy = system.hierarchy
        rogue_line = 0x7777_0000
        hierarchy.l1s[0].insert(rogue_line, MESIState.SHARED)
        with pytest.raises(ProtocolError, match="directory"):
            check_all(hierarchy)

    def test_inclusion_detects_l1_line_missing_from_l2(self):
        system = racing_system()
        hierarchy = system.hierarchy
        line = 0x7600_0000
        holder = next(
            l1 for l1 in hierarchy.l1s if l1.contains(line)
        )
        bank = hierarchy.bank_of(line)
        hierarchy.l2[bank].invalidate(line)
        with pytest.raises(ProtocolError, match="inclusion"):
            check_all(hierarchy)
        assert holder.contains(line)  # the L1 copy is what makes it a bug

    def test_line_problems_reports_kind_and_core(self):
        system = racing_system()
        hierarchy = system.hierarchy
        rogue_line = 0x7777_0000
        hierarchy.l1s[0].insert(rogue_line, MESIState.SHARED)
        problems = line_coherence_problems(hierarchy, rogue_line)
        kinds = {kind for kind, _msg, _core in problems}
        assert "directory" in kinds or "inclusion" in kinds
        # A skip set silences cores with in-flight invalidations.
        assert line_coherence_problems(
            hierarchy, rogue_line, skip_cores=frozenset({0})
        ) == []
