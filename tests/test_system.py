"""System assembly, RunResult accounting, and warmup tests."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import run_ops, simple_load_alu_ops

from repro import ConfigError, ProcessorConfig, Scheme, SystemParams
from repro.cpu.trace import ProgramTrace
from repro.runner import run_spec
from repro.system import System
from repro.workloads import SPEC_PROFILES, SyntheticTrace


class TestSystemConstruction:
    def test_rejects_trace_count_mismatch(self):
        with pytest.raises(ConfigError):
            System(
                params=SystemParams(num_cores=2),
                config=ProcessorConfig(),
                traces=[ProgramTrace([])],
            )

    def test_rejects_wrong_types(self):
        with pytest.raises(ConfigError):
            System(params="nope", config=ProcessorConfig(), traces=[])

    def test_llc_sbs_wired_only_for_invisispec(self):
        base = System(
            params=SystemParams.for_spec(),
            config=ProcessorConfig(scheme=Scheme.BASE),
            traces=[ProgramTrace([])],
        )
        invisi = System(
            params=SystemParams.for_spec(),
            config=ProcessorConfig(scheme=Scheme.IS_FUTURE),
            traces=[ProgramTrace([])],
        )
        assert base.hierarchy.llc_sbs is None
        assert invisi.hierarchy.llc_sbs is not None

    def test_llc_sb_ablation_unwires(self):
        system = System(
            params=SystemParams.for_spec(),
            config=ProcessorConfig(scheme=Scheme.IS_FUTURE,
                                   llc_sb_enabled=False),
            traces=[ProgramTrace([])],
        )
        assert system.hierarchy.llc_sbs is None

    def test_memory_init(self):
        system = System(
            params=SystemParams.for_spec(),
            config=ProcessorConfig(),
            traces=[ProgramTrace([])],
            memory_init={0x100: [1, 2, 3], 0x200: 7},
        )
        assert system.image.read(0x100, 3) == 0x030201
        assert system.image.read(0x200, 1) == 7


class TestRunResult:
    def test_basic_accounting(self):
        result, _ = run_ops(simple_load_alu_ops(10))
        assert result.instructions == 20
        assert result.cycles > 0
        assert 0 < result.ipc < 8
        assert result.traffic_bytes > 0

    def test_traffic_breakdown_sums_to_total(self):
        result, _ = run_ops(simple_load_alu_ops(10), scheme=Scheme.IS_FUTURE)
        split = result.traffic_breakdown
        assert sum(split.values()) == result.traffic_bytes


class TestWarmup:
    def _run(self, warmup):
        profile = SPEC_PROFILES["hmmer"]
        system = System(
            params=SystemParams.for_spec(),
            config=ProcessorConfig(),
            traces=[SyntheticTrace(profile, seed=1)],
            max_instructions=2000,
            warmup_instructions=warmup,
        )
        return system.run()

    def test_warmup_excluded_from_measurement(self):
        cold = self._run(warmup=0)
        warm = self._run(warmup=2000)
        assert warm.instructions == cold.instructions == 2000
        # Warm measurement sees fewer misses per instruction.
        cold_mpki = cold.count("hierarchy.l1_misses.load") / 2.0
        warm_mpki = warm.count("hierarchy.l1_misses.load") / 2.0
        assert warm_mpki < cold_mpki

    def test_measured_cycles_smaller_than_total(self):
        warm = self._run(warmup=1000)
        assert warm.cycles < warm.total_cycles

    def test_count_is_delta(self):
        warm = self._run(warmup=1000)
        total = warm.counters.get("core.retired_instructions")
        assert warm.count("core.retired_instructions") == total - 1000

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known defect: System._harvest_stats writes dram.accesses, "
        "tlb.*, core.branch_predictor_*, core.total_retired, "
        "invisispec.sb_fills / llc_sb_inserts and noc.* only at the end of "
        "a run, so the warmup snapshot lacks them and count() returns "
        "whole-run totals",
    )
    def test_harvested_counters_exclude_warmup(self, monkeypatch):
        # Read the components' own tallies at the instant the warmup
        # snapshot is taken; count() must report only what came after.
        at_warmup = {}
        warmed_up = System._core_warmed_up

        def recording(system, core_id):
            warmed_up(system, core_id)
            if system._warmup_snapshot is not None:
                at_warmup["dram"] = system.hierarchy.dram.stat_accesses
                at_warmup["tlb"] = system.cores[0].tlb.stat_hits

        monkeypatch.setattr(System, "_core_warmed_up", recording)
        result = run_spec(
            "libquantum", ProcessorConfig(scheme=Scheme.IS_FUTURE),
            instructions=2000,
        )
        dram = result.hierarchy.dram.stat_accesses
        tlb_hits = result.cores[0].tlb.stat_hits
        assert 0 < at_warmup["dram"] < dram
        assert 0 < at_warmup["tlb"] < tlb_hits
        assert result.count("dram.accesses") == dram - at_warmup["dram"]
        assert result.count("tlb.hits") == tlb_hits - at_warmup["tlb"]
