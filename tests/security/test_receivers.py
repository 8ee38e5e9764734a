"""Cache-timing receiver primitives."""

from repro import ProcessorConfig, Scheme
from repro.cpu.isa import MicroOp, OpKind
from repro.security.channel import AttackContext
from repro.security.flush_reload import FlushReloadReceiver
from repro.security.prime_probe import PrimeProbeReceiver


def make_context():
    return AttackContext(ProcessorConfig(scheme=Scheme.BASE))


class TestProbePrimitive:
    def test_cold_probe_is_slow(self):
        context = make_context()
        assert context.probe_latency(0, 0x8000) >= 100

    def test_warm_probe_is_fast(self):
        context = make_context()
        context.probe_latency(0, 0x8000)
        assert context.probe_latency(0, 0x8000) <= 4

    def test_flush_makes_probe_slow_again(self):
        context = make_context()
        context.probe_latency(0, 0x8000)
        context.flush(0x8000)
        assert context.probe_latency(0, 0x8000) >= 100


class TestRunOps:
    def test_cycle_budget_is_per_phase(self):
        # A phase's budget counts from its own start, so a context whose
        # clock has passed the default budget still runs a default phase.
        with make_context() as context:
            context.run_ops(
                0, [MicroOp(OpKind.ALU, pc=0x100, latency=2_000_500)],
                max_cycles=10_000_000,
            )
            assert context.kernel.cycle > 2_000_000
            context.run_ops(0, [MicroOp(OpKind.LOAD, pc=0x104, addr=0x8000)])


class TestFlushReload:
    def test_detects_victim_touch(self):
        context = make_context()
        monitored = [0x9000 + 64 * i for i in range(8)]
        receiver = FlushReloadReceiver(context, 0, monitored)
        receiver.flush()
        context.probe_latency(0, monitored[3])  # "victim" touches line 3
        assert receiver.hits() == [3]

    def test_no_touch_no_hits(self):
        context = make_context()
        monitored = [0xA000 + 64 * i for i in range(8)]
        receiver = FlushReloadReceiver(context, 0, monitored)
        receiver.flush()
        assert receiver.hits() == []


class TestPrimeProbe:
    def test_detects_conflict_in_monitored_set(self):
        context = make_context()
        receiver = PrimeProbeReceiver(context, 0, monitored_sets=[5])
        receiver.prime()
        # Victim touches a line mapping to set 5, evicting attacker state.
        l1 = context.hierarchy.l1s[0]
        victim_addr = 0x30_0000 + 5 * 64
        assert l1.set_index(context.space.line_of(victim_addr)) == 5
        context.probe_latency(0, victim_addr)
        evictions = receiver.probe()
        assert evictions[5] >= 1

    def test_quiet_set_shows_no_evictions(self):
        context = make_context()
        receiver = PrimeProbeReceiver(context, 0, monitored_sets=[7])
        receiver.prime()
        evictions = receiver.probe()
        assert evictions[7] == 0
