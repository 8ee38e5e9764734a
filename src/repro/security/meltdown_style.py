"""Meltdown-style exception attack (Section IV, "Futuristic" rows).

A faulting instruction (modelled as an ``EXCEPTION`` micro-op that traps at
the ROB head) shields a transient access/transmit pair: the transient arm
reads a privileged secret and encodes it in the cache before the squash.
A conventional machine leaks; IS-Future keeps the transient loads in the
speculative buffer.  (IS-Spectre does not consider exception shadows —
the paper's Table II scopes it to branch speculation — so the Futuristic
design is the one that must block this.)  It is the Table I skeleton of
:mod:`.exception_attacks` at its own memory layout.
"""

from __future__ import annotations

from .channel import PoC
from .exception_attacks import ExceptionGadget

ADDR_DELAY = 0x0004_0000  # flushed line gating the fault's retirement
ADDR_SECRET = 0x0004_2000  # "kernel" byte
ADDR_B = 0x0030_0000

_GADGET = ExceptionGadget(ADDR_SECRET, ADDR_B, ADDR_DELAY)
#: The pre-leak phase: warm the kernel byte (the kernel recently used its
#: data, the standard Meltdown setting), flush B and the delay line.
prepare = _GADGET.prepare


def specflow_program():
    """The attack as a specflow program.  The transient pair lives in the
    faulting op's wrong-path arm, so the transmitter (pc 0x900C) is only
    reachable under an exception shadow — a Futuristic-model leak that
    the spectre model correctly ignores (Table II scoping)."""
    from ..specflow.programs import SpecProgram

    return SpecProgram(
        name="meltdown_style",
        builder=_GADGET.ops,
        secret_ranges=((ADDR_SECRET, ADDR_SECRET + 1),),
        description="exception-shielded kernel-byte read and transmit",
        expected_transmit={"spectre": (), "futuristic": (0x900C,)},
        prepare=prepare,
    )


def run_meltdown_style_attack(config, secret=199, seed=0, sanitize=None):
    """Run the attack; returns ``(latencies, recovered_value)``."""
    return _GADGET.run(config, secret, seed, sanitize)


POC = PoC("meltdown_style", 199, run_meltdown_style_attack, specflow_program)
