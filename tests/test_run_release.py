"""A finished run frees itself by reference counting.

``System.run`` cuts every back-edge of the machine it simulated when it
returns or raises, so dropping the result frees the whole object graph at
once instead of leaving cyclic garbage for a later full collection.  Each
case below runs with the collector disabled, drops what the run returned
(or the exception it raised) and asserts that a collection then finds no
unreachable object.  A new component that adds a back-edge fails here
until :meth:`repro.system.System.release` cuts it.

The release must not change what a result answers: the second half reads
every :class:`~repro.system.RunResult` accessor of a released result and
compares it with the same cell run without the release.

The attack PoCs, the specflow evidence harness and the fuzz harness
drive the kernel themselves through an
:class:`~repro.security.channel.AttackContext`; leaving its ``with``
block releases the machine the same way, and the ``poc-*`` cases hold
them to the same zero.
"""

import gc

import pytest

from repro import ProcessorConfig, Scheme, System
from repro.configs import ConsistencyModel
from repro.cpu.isa import MicroOp, OpKind
from repro.cpu.trace import ProgramTrace
from repro.errors import DeadlockError, SimTimeoutError, SimulationError
from repro.fuzz.generator import build_program
from repro.fuzz.harness import differential_check
from repro.params import SystemParams
from repro.reliability.faults import FaultInjector, FaultSchedule
from repro.runner import run_parsec, run_spec
from repro.security.channel import AttackContext
from repro.security.cross_core import run_cross_core_attack
from repro.security.exception_attacks import run_exception_attack
from repro.security.meltdown_style import run_meltdown_style_attack
from repro.security.spectre_v1 import run_spectre_v1
from repro.security.ssb import run_ssb_attack
from repro.specflow.evidence import gather_evidence

from .golden.matrix import Cell, params_of

_TSO, _RC = ConsistencyModel.TSO, ConsistencyModel.RC
_SPEC_APP = "mcf"
_SPEC_INSTRUCTIONS = 400
_PARSEC_INSTRUCTIONS = 300


def _config(scheme, consistency=_TSO):
    return ProcessorConfig(scheme=scheme, consistency=consistency)


def _spec(scheme, consistency=_TSO, **options):
    return run_spec(
        _SPEC_APP, _config(scheme, consistency),
        instructions=_SPEC_INSTRUCTIONS, **options,
    )


def _faults(*specs):
    return FaultInjector(FaultSchedule.parse(list(specs)))


def _cyclic_garbage_after(run):
    """Objects a collection finds unreachable once ``run``'s outcome is
    dropped, with the collector kept off while the run builds them."""
    gc.collect()
    gc.disable()
    try:
        outcome = run()
        del outcome
        return gc.collect()
    finally:
        gc.enable()


def _expect(error, run):
    """Run ``run`` and drop the ``error`` it must raise."""
    def raising():
        try:
            run()
        except error:
            return None
        pytest.fail(f"expected {error.__name__}")
    return raising


CASES = {
    **{
        f"spec-{scheme.value}-{consistency.value}": (
            lambda scheme=scheme, consistency=consistency: _spec(
                scheme, consistency
            )
        )
        for scheme in Scheme
        for consistency in (_TSO, _RC)
    },
    "parsec-8core-IS-Fu": lambda: run_parsec(
        "fluidanimate", _config(Scheme.IS_FUTURE),
        instructions=_PARSEC_INSTRUCTIONS,
    ),
    # Timer interrupts squash the whole ROB, correct-path stores included.
    "spec-interrupts-IS-Fu": lambda: _spec(Scheme.IS_FUTURE, params=params_of(
        Cell("spec", _SPEC_APP, Scheme.IS_FUTURE, _TSO, 1,
             (("interrupt_interval", 150),))
    )),
    "sanitize-strict": lambda: _spec(Scheme.IS_FUTURE, sanitize="strict"),
    "sanitize-record": lambda: _spec(
        Scheme.IS_SPECTRE, _RC, sanitize="record"
    ),
    "faults-noc-delay": lambda: _spec(
        Scheme.IS_FUTURE, faults=_faults("noc.delay:prob=0.05,extra=50")
    ),
    "faults-mshr-stuck-deadlock": _expect(DeadlockError, lambda: _spec(
        Scheme.IS_FUTURE, faults=_faults("mshr.stuck:nth=3")
    )),
    "max-cycles-timeout": _expect(SimTimeoutError, lambda: _spec(
        Scheme.IS_FUTURE, max_cycles=2_000
    )),
    "poc-spectre-v1-IS-Fu": lambda: run_spectre_v1(
        _config(Scheme.IS_FUTURE)
    ),
    "poc-spectre-v1-Base-strict": lambda: run_spectre_v1(
        _config(Scheme.BASE), trials=1, sanitize="strict"
    ),
    "poc-meltdown-style-IS-Fu": lambda: run_meltdown_style_attack(
        _config(Scheme.IS_FUTURE)
    ),
    "poc-ssb-IS-Sp": lambda: run_ssb_attack(_config(Scheme.IS_SPECTRE)),
    "poc-cross-core-IS-Fu": lambda: run_cross_core_attack(
        _config(Scheme.IS_FUTURE)
    ),
    "poc-exception-l1tf-Base": lambda: run_exception_attack(
        _config(Scheme.BASE), variant="l1tf"
    ),
    "poc-specflow-evidence": lambda: gather_evidence(
        programs=["spectre_v1", "ssb"]
    ),
    "poc-fuzz-differential": lambda: differential_check(build_program(0, 0)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_dropped_run_leaves_no_cyclic_garbage(case):
    assert _cyclic_garbage_after(CASES[case]) == 0


def _cache_lines(cache):
    return sorted(
        (line, cache.lookup(line, touch=False).state.value)
        for line in cache.resident_lines()
    )


def _readings(result):
    """Everything a caller can read off a result after the run."""
    hierarchy = result.hierarchy
    return {
        "cycles": result.cycles,
        "total_cycles": result.total_cycles,
        "counts": {
            name: result.count(name) for name in result.counters.as_dict()
        },
        "instructions": result.instructions,
        "ipc": result.ipc,
        "traffic_bytes": result.traffic_bytes,
        "traffic_breakdown": result.traffic_breakdown,
        "repr": repr(result),
        "cores": [
            (
                core.retired_instructions, core.warmup_instructions,
                core.cycles, core.ipc, core.done, core.finish_cycle,
                dict(core.env), len(core.rob), len(core.lq), len(core.sq),
            )
            for core in result.cores
        ],
        "l1s": [_cache_lines(cache) for cache in hierarchy.l1s],
        "l2": [_cache_lines(cache) for cache in hierarchy.l2],
        "dram_accesses": hierarchy.dram.stat_accesses,
        "sanitizer_report": result.sanitizer_report,
    }


READ_CASES = {
    "spec-IS-Fu-TSO": lambda: _spec(Scheme.IS_FUTURE, sanitize="record"),
    "spec-IS-Sp-RC": lambda: _spec(Scheme.IS_SPECTRE, _RC, sanitize="record"),
    "parsec-4core-Base": lambda: run_parsec(
        "canneal", _config(Scheme.BASE), instructions=_PARSEC_INSTRUCTIONS,
        params=SystemParams(num_cores=4), sanitize="record",
    ),
}


@pytest.mark.parametrize("case", sorted(READ_CASES))
def test_released_result_reads_as_before(case, monkeypatch):
    released = READ_CASES[case]()
    assert released.hierarchy._cores == [None] * len(released.cores)
    with monkeypatch.context() as patch:
        patch.setattr(System, "release", lambda system: None)
        kept = READ_CASES[case]()
    assert kept.hierarchy._cores == list(kept.cores)
    assert _readings(released) == _readings(kept)


def test_second_run_of_a_released_system_raises():
    system = System(
        params=SystemParams.for_spec(),
        config=_config(Scheme.BASE),
        traces=[ProgramTrace([])],
    )
    system.run()
    with pytest.raises(SimulationError, match="twice"):
        system.run()


def test_released_attack_context_refuses_to_run():
    with AttackContext(_config(Scheme.BASE)) as context:
        context.run_ops(0, [MicroOp(OpKind.ALU, pc=0x100)])
    assert context.system.hierarchy._cores == [None]
    context.release()  # a second release is a no-op
    with pytest.raises(SimulationError, match="after release"):
        context.run_ops(0, [MicroOp(OpKind.ALU, pc=0x104)])
    with pytest.raises(SimulationError, match="after release"):
        context.probe_latency(0, 0x1000)


def test_system_releases_after_a_failed_run_too():
    slow_chain = [
        MicroOp(OpKind.ALU, pc=0x100, latency=1_000),
        MicroOp(OpKind.ALU, pc=0x104, latency=1_000, deps=(1,)),
    ]
    system = System(
        params=SystemParams.for_spec(),
        config=_config(Scheme.IS_FUTURE),
        traces=[ProgramTrace(slow_chain)],
        faults=_faults("noc.delay:nth=1000000"),
        sanitizer="record",
    )
    core = system.cores[0]
    with pytest.raises(SimTimeoutError):
        system.run(max_cycles=100)
    kernel = system.kernel
    assert kernel.events.next_cycle() is None  # the second op's completion
    assert kernel.faults is None and kernel.monitor is None
    assert system.hierarchy._cores == [None]
    assert core.visibility.core is None and core.replay.on_end is None
    assert core.monitor is None and system.sanitizer.system is None
    assert all(entry.lq_entry is None for entry in core.rob)
    with pytest.raises(SimulationError, match="twice"):
        system.run()
