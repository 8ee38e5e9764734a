"""Meltdown-style exception attack (Section IV, "Futuristic" rows).

A faulting instruction (modelled as an ``EXCEPTION`` micro-op that traps at
the ROB head) shields a transient access/transmit pair: the transient arm
reads a privileged secret and encodes it in the cache before the squash.
A conventional machine leaks; IS-Future keeps the transient loads in the
speculative buffer.  (IS-Spectre does not consider exception shadows —
the paper's Table II scopes it to branch speculation — so the Futuristic
design is the one that must block this.)
"""

from __future__ import annotations

from ..cpu.isa import MicroOp, OpKind
from .channel import AttackContext
from .flush_reload import FlushReloadReceiver

ADDR_DELAY = 0x0004_0000  # flushed line gating the fault's retirement
ADDR_SECRET = 0x0004_2000  # "kernel" byte
ADDR_B = 0x0030_0000
NUM_VALUES = 256
LINE = 64


def _attack_ops():
    delay_load = MicroOp(
        OpKind.LOAD, pc=0x9000, addr=ADDR_DELAY, size=8, dst="d"
    )
    fault = MicroOp(
        OpKind.EXCEPTION, pc=0x9004, deps=(1,), label="faulting-access"
    )
    access = MicroOp(
        OpKind.LOAD, pc=0x9008, addr=ADDR_SECRET, size=1, dst="k",
        label="access",
    )
    transmit = MicroOp(
        OpKind.LOAD,
        pc=0x900C,
        addr_fn=lambda env: ADDR_B + LINE * (env.get("k", 0) & 0xFF),
        size=1,
        deps=(1,),
        label="transmit",
    )
    # The transient continuation is the exception's wrong-path arm: it is
    # fetched under the fault's shadow and squashed when the fault retires.
    return [delay_load, fault], {fault.uid: [access, transmit]}


def specflow_program():
    """The attack as a specflow program.  The transient pair lives in the
    faulting op's wrong-path arm, so the transmitter (pc 0x900C) is only
    reachable under an exception shadow — a Futuristic-model leak that
    the spectre model correctly ignores (Table II scoping)."""
    from ..specflow.programs import SpecProgram

    return SpecProgram(
        name="meltdown_style",
        builder=_attack_ops,
        secret_ranges=((ADDR_SECRET, ADDR_SECRET + 1),),
        description="exception-shielded kernel-byte read and transmit",
        expected_transmit={"spectre": (), "futuristic": (0x900C,)},
    )


def run_meltdown_style_attack(config, secret=199, seed=0, sanitize=None):
    """Run the attack; returns ``(latencies, recovered_value)``."""
    with AttackContext(
        config, num_cores=1, seed=seed, sanitize=sanitize
    ) as context:
        context.write_memory(ADDR_SECRET, secret & 0xFF)
        # The kernel recently used its data, so the privileged line is
        # warm — the standard Meltdown setting; the transient access then
        # completes well inside the fault's shadow.
        context.run_ops(
            0, [MicroOp(OpKind.LOAD, pc=0x9100, addr=ADDR_SECRET, size=1)]
        )
        receiver = FlushReloadReceiver(
            context, 0, [ADDR_B + LINE * v for v in range(NUM_VALUES)]
        )
        receiver.flush()
        # Widen the transient window past the fault.
        context.flush(ADDR_DELAY)
        ops, wrong = _attack_ops()
        context.run_ops(0, ops, wrong)
        latencies = receiver.reload()
    hits = receiver.hits(latencies)
    recovered = hits[0] if len(hits) == 1 else None
    return latencies, recovered
