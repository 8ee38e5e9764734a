"""Strict-mode sanitizer is silent on correct executions.

The sanitizer's value hinges on zero false positives: every check family
(visibility fingerprints, incremental coherence, structural sweeps, golden
differential loads) must run — and report nothing — across the paper's
whole behavior space: every scheme, both consistency models, single- and
multi-core, and the Spectre PoCs where InvisiSpec's invisibility claim is
the very thing under test.
"""

import pytest

from repro.configs import ConsistencyModel, ProcessorConfig, Scheme
from repro.cpu.isa import MicroOp, OpKind
from repro.cpu.trace import ProgramTrace
from repro.params import SystemParams
from repro.runner import run_parsec, run_spec
from repro.security import AttackContext, spectre_v1
from repro.security.cross_core import run_cross_core_attack
from repro.system import System

IS_SCHEMES = (Scheme.IS_SPECTRE, Scheme.IS_FUTURE)


def assert_clean(report):
    assert report["violations"] == []
    assert report["violation_count"] == 0


class TestSpecClean:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_all_schemes_tso(self, scheme):
        config = ProcessorConfig(scheme=scheme, consistency=ConsistencyModel.TSO)
        result = run_spec("mcf", config, instructions=2000, sanitize="strict")
        report = result.sanitizer_report
        assert_clean(report)
        # The monitor must actually have exercised its check families.
        assert report["checks"]["coherence_line"] > 0
        assert report["checks"]["consistency"] > 0
        assert report["golden"]["loads_checked"] > 0
        if scheme in IS_SCHEMES:
            assert report["checks"]["visibility"] > 0
            assert report["checks"]["usl_window"] > 0

    @pytest.mark.parametrize("scheme", IS_SCHEMES)
    def test_invisispec_rc(self, scheme):
        config = ProcessorConfig(scheme=scheme, consistency=ConsistencyModel.RC)
        result = run_spec("mcf", config, instructions=2000, sanitize="strict")
        assert_clean(result.sanitizer_report)
        assert result.sanitizer_report["checks"]["visibility"] > 0


class TestParsecClean:
    @pytest.mark.parametrize("scheme", (Scheme.BASE,) + IS_SCHEMES)
    def test_multicore_tso(self, scheme):
        config = ProcessorConfig(scheme=scheme, consistency=ConsistencyModel.TSO)
        result = run_parsec(
            "fluidanimate", config, instructions=600, sanitize="strict"
        )
        report = result.sanitizer_report
        assert_clean(report)
        assert report["checks"]["coherence_line"] > 0

    def test_multicore_rc(self):
        config = ProcessorConfig(
            scheme=Scheme.IS_FUTURE, consistency=ConsistencyModel.RC
        )
        result = run_parsec(
            "fluidanimate", config, instructions=600, sanitize="strict"
        )
        assert_clean(result.sanitizer_report)


class TestAttacksClean:
    """The Spectre PoCs stress exactly the paths the sanitizer watches:
    a clean strict run here *is* the visibility theorem, checked live."""

    @pytest.mark.parametrize("scheme", IS_SCHEMES)
    def test_spectre_v1_under_invisispec(self, scheme):
        with AttackContext(
            ProcessorConfig(scheme=scheme), sanitize="strict"
        ) as context:
            context.run_ops(0, *spectre_v1.prepare(context, 84))
            report = context.sanitizer.report()
        assert_clean(report)
        assert report["checks"]["visibility"] > 0

    def test_cross_core_under_invisispec(self):
        config = ProcessorConfig(scheme=Scheme.IS_FUTURE)
        _latencies, recovered = run_cross_core_attack(
            config, secret=7, sanitize="strict"
        )
        assert recovered is None  # defense holds; sanitizer silent


class TestLitmusClean:
    """A racing message-passing litmus under the sanitizer: the writer's
    invalidations land mid-speculation on the reader, exercising the
    in-flight-invalidation accounting."""

    DATA = 0x7200_0000
    FLAG = 0x7300_0000

    def _reader(self):
        return [
            MicroOp(OpKind.LOAD, pc=0x100, addr=self.FLAG, size=8, dst="r1"),
            MicroOp(OpKind.LOAD, pc=0x104, addr=self.DATA, size=8, dst="r2"),
        ]

    def _writer(self, delay):
        return [
            MicroOp(OpKind.ALU, pc=0x200, latency=max(delay, 1)),
            MicroOp(OpKind.STORE, pc=0x204, addr=self.DATA, size=8,
                    store_value=1, deps=(1,)),
            MicroOp(OpKind.STORE, pc=0x208, addr=self.FLAG, size=8,
                    store_value=1),
        ]

    @pytest.mark.parametrize("scheme", (Scheme.BASE,) + IS_SCHEMES)
    @pytest.mark.parametrize("delay", (1, 60, 200))
    def test_message_passing(self, scheme, delay):
        system = System(
            params=SystemParams(num_cores=2),
            config=ProcessorConfig(
                scheme=scheme, consistency=ConsistencyModel.TSO
            ),
            traces=[
                ProgramTrace(self._reader()),
                ProgramTrace(self._writer(delay)),
            ],
            sanitizer="strict",
        )
        result = system.run(max_cycles=2_000_000)
        assert_clean(result.sanitizer_report)
        assert result.sanitizer_report["checks"]["quiesce"] == 1
