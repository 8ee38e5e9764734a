"""Speculative Store Bypass (Section IV).

A store to address P has a slow-to-resolve address (it depends on a
flushed value); a younger load from P issues before the store resolves
(memory-dependence speculation), reads the *stale* secret, and a dependent
transmit load leaks it into the cache before the alias is detected and the
load squashed.

There is no branch involved, so IS-Spectre does **not** block this attack;
IS-Future does — exactly the paper's point about Futuristic attacks.
"""

from __future__ import annotations

from ..cpu.isa import MicroOp, OpKind
from .channel import PoC
from .flush_reload import run_flush_reload

ADDR_P = 0x0003_0000  # buffer slot holding the stale secret
ADDR_PTR = 0x0003_1000  # pointer the store's address depends on (flushed)
ADDR_B = 0x0020_0000  # transmission array
NUM_VALUES = 256
LINE = 64


def _attack_ops():
    """store *ptr = 0 (slow address); load P; transmit B[64 * value].
    All on the correct path: no wrong-path arms."""
    ptr_load = MicroOp(OpKind.LOAD, pc=0x8000, addr=ADDR_PTR, size=8, dst="p")
    overwrite = MicroOp(
        OpKind.STORE,
        pc=0x8004,
        addr_fn=lambda env: env.get("p", ADDR_P),
        size=1,
        store_value=0,
        deps=(1,),
        label="sanitize",
    )
    stale_read = MicroOp(
        OpKind.LOAD, pc=0x8008, addr=ADDR_P, size=1, dst="s", label="access"
    )
    transmit = MicroOp(
        OpKind.LOAD,
        pc=0x800C,
        addr_fn=lambda env: ADDR_B + LINE * (env.get("s", 0) & 0xFF),
        size=1,
        deps=(1,),
        label="transmit",
    )
    return [ptr_load, overwrite, stale_read, transmit], {}


def prepare(context, secret):
    """The pre-leak phase: leave the stale secret in the buffer, whose
    line is cached (the buffer was just in use, which is why it holds a
    stale secret), so the stale read performs immediately, well before
    the slow-to-resolve store detects the alias; then flush B and the
    pointer the store's address depends on.  Returns the attack ops."""
    context.write_memory(ADDR_P, secret & 0xFF)
    context.write_memory(ADDR_PTR, ADDR_P.to_bytes(8, "little"))
    context.run_ops(
        0, [MicroOp(OpKind.LOAD, pc=0x8100, addr=ADDR_P, size=1)]
    )
    context.flush(ADDR_B, NUM_VALUES * LINE)
    context.flush(ADDR_PTR)
    return _attack_ops()


def specflow_program():
    """The attack as a specflow program.  Entirely on the correct path —
    the transmitter (pc 0x800C) issues under the shadows of the
    unresolved store and the older loads, never a branch, so only the
    futuristic model flags it (IS-Spectre does not block SSB)."""
    from ..specflow.programs import SpecProgram

    return SpecProgram(
        name="ssb",
        builder=_attack_ops,
        secret_ranges=((ADDR_P, ADDR_P + 1),),
        description="speculative store bypass: stale-secret read and transmit",
        expected_transmit={"spectre": (), "futuristic": (0x800C,)},
        prepare=prepare,
    )


def run_ssb_attack(config, secret=113, sanitize=None):
    """Run the SSB attack; returns ``(latencies, recovered_value)``."""
    latencies, hits = run_flush_reload(
        prepare, secret, [ADDR_B + LINE * v for v in range(NUM_VALUES)],
        config, sanitize,
    )
    # Architecturally the load re-executes after the alias squash and reads
    # the sanitized value 0, so B[0] is legitimately cached; the *leak* is
    # any other hot line.
    leaked = [v for v in hits if v != 0]
    recovered = leaked[0] if len(leaked) == 1 else None
    return latencies, recovered


POC = PoC("ssb", 113, run_ssb_attack, specflow_program)
