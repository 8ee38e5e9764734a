"""Sleep/wake soundness: a core the kernel skips would really have idled.

After an idle tick the kernel stops ticking a core until a waking entry
point sets its ``wake_requested`` flag or its timer interrupt is due.
Here the kernel is patched to tick every core it would have skipped (a
*shadow tick*).  Each shadow tick must report ``"idle"`` again and bump
exactly what the idle tick bumped, which is what the kernel credits for a
skipped tick.  An entry point that changes the core without waking it
shows up as a shadow tick that does work, changes state or bumps
something else.  The shadowed run must also end bit-identical to the
normal one.
"""

import pytest

from repro.configs import ALL_SCHEMES, ConsistencyModel, ProcessorConfig, Scheme
from repro.cpu.isa import MicroOp, OpKind
from repro.params import SystemParams
from repro.security import (
    VARIANTS,
    channel,
    cross_core,
    exception_attacks,
    run_cross_core_attack,
    run_exception_attack,
    run_spectre_v1,
    run_ssb_attack,
    spectre_v1,
    ssb,
)
from repro.sim.kernel import SimKernel

from ..golden.matrix import Cell, cell_id, run_cell

_TSO, _RC = ConsistencyModel.TSO, ConsistencyModel.RC
_TIMER_AND_L1I = (("interrupt_interval", 300), ("model_l1i", True))

CELLS = tuple(
    Cell("parsec", "canneal", scheme, _TSO, 2, _TIMER_AND_L1I)
    for scheme in ALL_SCHEMES
) + (
    Cell("parsec", "fluidanimate", Scheme.IS_SPECTRE, _RC, 2,
         (("interrupt_interval", 200),)),
    Cell("parsec", "fluidanimate", Scheme.IS_FUTURE, _RC, 4,
         (("model_l1i", True),)),
)


def _idle_bumps(core):
    """What the core's last (idle) tick bumped: counter deltas, L1-I stall."""
    counters = {"core.cycles": 1}
    for name in (core._retire_stall, core._dispatch_stall):
        if name is not None:
            counters[name] = 1
    return counters, int(core._fetch_stalled)


def _shadow_tick(core, shadowed):
    """Tick a core the kernel is skipping; it must idle exactly as before."""
    expected = _idle_bumps(core)
    before = dict(core.counters.as_dict())
    fetch_before = core.ifetch.stat_stall_cycles if core.ifetch else 0
    state = core.tick()
    where = f"{core.name} at cycle {core.kernel.cycle}"
    assert state == "idle", f"{where}: skipped tick would be {state!r}"
    after = core.counters.as_dict()
    bumped = {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }
    fetch_after = core.ifetch.stat_stall_cycles if core.ifetch else 0
    assert (bumped, fetch_after - fetch_before) == expected, where
    shadowed.append(core.core_id)


class _ShadowSleeper(list):
    """A sleeper record ``[wake cycle, skipped ticks]`` whose skip count
    shadow-ticks instead: the kernel's ``sleeper[1] += 1`` runs the tick
    it stands for, so nothing is left to credit."""

    def __init__(self, record, core, shadowed):
        super().__init__(record)
        self.core = core
        self.shadowed = shadowed

    def __setitem__(self, index, value):
        if index == 1 and value == self[1] + 1:
            _shadow_tick(self.core, self.shadowed)
            return
        super().__setitem__(index, value)


class _ShadowSleeping(dict):
    """The kernel's sleeper table, holding :class:`_ShadowSleeper` records."""

    def __init__(self, kernel, shadowed):
        super().__init__()
        self.kernel = kernel
        self.shadowed = shadowed

    def __setitem__(self, index, record):
        core = self.kernel._components[index]
        super().__setitem__(index, _ShadowSleeper(record, core, self.shadowed))


def _shadow_kernel(monkeypatch, shadowed):
    """Make every run tick each core the kernel would have skipped."""
    run = SimKernel._run

    def shadow_run(kernel, max_cycles):
        kernel._sleeping = _ShadowSleeping(kernel, shadowed)
        return run(kernel, max_cycles)

    monkeypatch.setattr(SimKernel, "_run", shadow_run)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_every_skipped_tick_would_have_been_idle(cell, monkeypatch):
    normal = run_cell(cell)
    shadowed = []
    _shadow_kernel(monkeypatch, shadowed)
    assert run_cell(cell) == normal
    # The cell really exercises sleeping cores.
    assert len(set(shadowed)) == cell.cores


# Attack programs are finite, multi-phase program traces: their cores run
# dry, get reopened between phases and wait on single probe loads.
ATTACKS = {
    "spectre_v1": run_spectre_v1,
    "ssb": run_ssb_attack,
    "cross_core": run_cross_core_attack,
    **{
        f"exception_{variant}": (
            lambda config, variant=variant: run_exception_attack(config, variant)
        )
        for variant in VARIANTS
    },
}


_CORUNNER_BASE = 0x0900_0000


class _CoRunnerContext(channel.AttackContext):
    """An attack machine with one more core, which runs a short burst of
    ALU ops and cache-missing loads alongside every phase.

    Alone, an attack core that waits on a miss is never skipped: nothing
    else ticks, so the kernel jumps straight to the fill.  The co-runner
    keeps the kernel stepping while the attack's cores sleep, and sleeps
    on its own misses while they work.
    """

    ALU_OPS, LOADS = 32, 4

    def __init__(self, config, params=None, num_cores=1, seed=0,
                 sanitize=None):
        if params is None:
            params = (
                SystemParams.for_spec() if num_cores == 1
                else SystemParams(num_cores=num_cores)
            )
        self.corunner = params.num_cores
        self._pc = 0x4_0000
        super().__init__(
            config, params=params.replace(num_cores=params.num_cores + 1),
            seed=seed, sanitize=sanitize,
        )

    def _next_op(self, kind, **fields):
        self._pc += 4
        return MicroOp(kind, pc=self._pc, **fields)

    def run_ops(self, core_id, ops, wrong_paths=None, max_cycles=2_000_000):
        burst = [self._next_op(OpKind.ALU) for _ in range(self.ALU_OPS)]
        burst += [
            self._next_op(
                OpKind.LOAD, addr=_CORUNNER_BASE + 16 * self._pc, size=8
            )
            for _ in range(self.LOADS)
        ]
        self.traces[self.corunner].feed(burst)
        self.system.cores[self.corunner].reopen()
        super().run_ops(core_id, ops, wrong_paths, max_cycles)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_attack_programs_shadow_ticks_are_idle(attack, scheme, monkeypatch):
    for module in (spectre_v1, ssb, cross_core, exception_attacks):
        monkeypatch.setattr(module, "AttackContext", _CoRunnerContext)
    config = ProcessorConfig(scheme=scheme)
    normal = ATTACKS[attack](config)
    shadowed = []
    _shadow_kernel(monkeypatch, shadowed)
    assert ATTACKS[attack](config) == normal
    # The attack's own core (core 0 in every PoC) really sleeps.
    assert shadowed.count(0) > 0, shadowed
