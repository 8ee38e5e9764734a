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
from repro.cpu.core import Core
from repro.cpu.isa import MicroOp, OpKind
from repro.params import SystemParams
from repro.security import POCS, channel, cross_core, flush_reload, spectre_v1
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
@pytest.mark.parametrize("attack", POCS, ids=lambda poc: poc.name)
def test_attack_programs_shadow_ticks_are_idle(attack, scheme, monkeypatch):
    # The modules that build a PoC's machine.
    for module in (spectre_v1, cross_core, flush_reload):
        monkeypatch.setattr(module, "AttackContext", _CoRunnerContext)
    config = ProcessorConfig(scheme=scheme)
    normal = attack.run(config)
    shadowed = []
    _shadow_kernel(monkeypatch, shadowed)
    assert attack.run(config) == normal
    # The attack's own core (core 0 in every PoC) really sleeps.
    assert shadowed.count(0) > 0, shadowed


# Directed two-core cases for the external wake-ups: the hierarchy calls
# ``on_invalidation``/``on_l1_eviction`` on a core the kernel may be
# skipping, and those squash performed loads through ``squash_load``; a
# TLB walk's end issues its load through ``_issue_load_to_memory``.
# Core 0 parks a long-latency op at its ROB head, so the younger loads
# behind it perform but cannot retire, and core 0 sleeps.
_SHARED_BASE = 0x0200_0000
_COLD_PAGE = 0x0A00_0000  # no earlier op touches it: a TLB miss
_L1_SET_STRIDE = 128 * 64  # 64 KB, 8-way, 64 B lines: 128 sets


def _program():
    """An op builder that gives each op the next PC."""
    pcs = iter(range(0x1000, 0x10_0000, 4))
    return lambda kind, **fields: MicroOp(kind, pc=next(pcs), **fields)


def _remote_stores(context):
    """Core 1's stores invalidate the lines of core 0's performed loads
    while core 0 waits on a DRAM miss."""
    op = _program()
    shared = [_SHARED_BASE + 64 * i for i in range(4)]
    context.run_ops(0, [op(OpKind.LOAD, addr=addr) for addr in shared])
    context.traces[1].feed(
        [op(OpKind.ALU) for _ in range(16)]
        + [op(OpKind.STORE, addr=addr, store_value=1) for addr in shared]
    )
    context.system.cores[1].reopen()
    context.run_ops(
        0,
        [op(OpKind.LOAD, addr=0x0800_0000)]
        + [op(OpKind.LOAD, addr=addr) for addr in shared],
    )


def _own_fills(context):
    """Core 0's misses to one L1 set evict the lines of its performed loads
    while a 400-cycle op holds its ROB head.  Core 1 runs a dependent ALU
    chain meanwhile, so the kernel steps instead of jumping to events."""
    op = _program()
    lines = [_SHARED_BASE + _L1_SET_STRIDE * k for k in range(12)]
    context.run_ops(0, [op(OpKind.LOAD, addr=addr) for addr in lines[:4]])
    context.traces[1].feed([op(OpKind.ALU, deps=(1,)) for _ in range(500)])
    context.system.cores[1].reopen()
    context.run_ops(
        0,
        [op(OpKind.ALU, latency=400)]
        + [op(OpKind.LOAD, addr=addr) for addr in lines],
    )


def _safe_walk(context):
    """A safe load's TLB walk ends while core 0 sleeps.  Under IS-Spectre
    the load after the branch that follows it is a USL; by the walk's end
    it has performed and the branch has resolved, but the in-order
    visibility scan stops at the walking load until the walk's end
    issues it.  Core 1 runs a dependent ALU chain meanwhile, so the
    kernel steps."""
    op = _program()
    context.run_ops(0, [op(OpKind.LOAD, addr=_SHARED_BASE)])
    context.traces[1].feed([op(OpKind.ALU, deps=(1,)) for _ in range(300)])
    context.system.cores[1].reopen()
    context.run_ops(
        0,
        [
            op(OpKind.LOAD, addr=_COLD_PAGE),
            op(OpKind.BRANCH),
            op(OpKind.LOAD, addr=_SHARED_BASE + 8),
        ],
    )


_WALK, _INV, _EVICT, _SQUASH = (
    "_issue_load_to_memory", "on_invalidation", "on_l1_eviction",
    "squash_load",
)

# (case, scheme) -> the entry points each case must reach on core 0 while
# the kernel is skipping it.
_EXTERNAL_WAKES = {
    (_remote_stores, Scheme.BASE): {_WALK, _INV, _SQUASH},
    (_remote_stores, Scheme.IS_FUTURE): {_WALK, _INV, _SQUASH},
    (_own_fills, Scheme.BASE): {_WALK, _EVICT, _SQUASH},
    # InvisiSpec rides evictions out: no squash.
    (_own_fills, Scheme.IS_FUTURE): {_WALK, _EVICT},
    (_safe_walk, Scheme.IS_SPECTRE): {_WALK},
}


def _run_directed(case, scheme):
    config = ProcessorConfig(scheme=scheme, consistency=_TSO)
    with channel.AttackContext(config, num_cores=2) as context:
        case(context)
        return context.kernel.cycle, [
            core.counters.as_dict() for core in context.system.cores
        ]


def _record_sleeping_calls(monkeypatch, reached):
    """Note each external entry point that finds its core asleep."""
    for name in (_WALK, _INV, _EVICT, _SQUASH):
        method = getattr(Core, name)

        def recorded(core, *args, _method=method, _name=name, **kwargs):
            kernel = core.kernel
            if kernel._components.index(core) in kernel._sleeping:
                reached.add((core.core_id, _name))
            return _method(core, *args, **kwargs)

        monkeypatch.setattr(Core, name, recorded)


@pytest.mark.parametrize(
    "case, scheme", list(_EXTERNAL_WAKES),
    ids=lambda value: getattr(value, "__name__", None) or value.value,
)
def test_external_wakes_reach_a_sleeping_core(case, scheme, monkeypatch):
    normal = _run_directed(case, scheme)
    shadowed, reached = [], set()
    _shadow_kernel(monkeypatch, shadowed)
    _record_sleeping_calls(monkeypatch, reached)
    assert _run_directed(case, scheme) == normal
    assert shadowed.count(0) > 0
    asleep_at = {name for core_id, name in reached if core_id == 0}
    assert asleep_at == _EXTERNAL_WAKES[(case, scheme)]
