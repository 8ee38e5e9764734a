"""The exception-based transient attacks of Table I, as one family.

Meltdown, L1 Terminal Fault, Lazy-FP State Restore, and Rogue System
Register Read all share a skeleton: a faulting instruction shields a
transient access/transmit pair that exfiltrates privileged state through
the cache before the squash.  They differ in *what* the access reads:

* **meltdown** — a kernel byte via a page marked inaccessible;
* **l1tf** — a physical address behind a not-present PTE (classically only
  works when the line is in L1 — which the demo models by warming it);
* **lazy_fp** — another process's FP register, read after the OS disabled
  FP (modelled as a load from the saved FP-state area);
* **rogue_sysreg** — a privileged system register (modelled as a load from
  a system-register file mapping).

All are Futuristic-model attacks: only Fe-Fu and IS-Future block them
(Table II's scoping).  :class:`ExceptionGadget` is the skeleton at one
memory layout; :mod:`.meltdown_style` runs it at its own.
"""

from __future__ import annotations

from functools import partial

from ..cpu.isa import MicroOp, OpKind
from .channel import PoC
from .flush_reload import run_flush_reload

NUM_VALUES = 256
LINE = 64

#: variant -> (secret location, transmission array base, description)
VARIANTS = {
    "meltdown": (0x000A_0000, 0x0060_0000, "kernel memory byte"),
    "l1tf": (0x000A_4000, 0x0062_0000, "physical address behind a cleared PTE"),
    "lazy_fp": (0x000A_8000, 0x0064_0000, "another process's FP register"),
    "rogue_sysreg": (0x000A_C000, 0x0066_0000, "privileged system register"),
}

ADDR_DELAY = 0x000B_0000  # flushed line gating the fault's retirement


class ExceptionGadget:
    """The shared skeleton at one layout: a load of the flushed
    ``delay_addr`` gates a faulting op, whose wrong-path arm reads
    ``secret_addr`` and transmits it through ``array_base``."""

    def __init__(self, secret_addr, array_base, delay_addr=ADDR_DELAY):
        self.secret_addr = secret_addr
        self.array_base = array_base
        self.delay_addr = delay_addr

    def ops(self):
        """The leak phase.  The transient continuation is the exception's
        wrong-path arm: it is fetched under the fault's shadow and
        squashed when the fault retires."""
        delay_load = MicroOp(OpKind.LOAD, pc=0x9000, addr=self.delay_addr,
                             size=8, dst="gate")
        fault = MicroOp(OpKind.EXCEPTION, pc=0x9004, deps=(1,),
                        label="faulting-access")
        access = MicroOp(OpKind.LOAD, pc=0x9008, addr=self.secret_addr,
                         size=1, dst="priv", label="access")
        base = self.array_base
        transmit = MicroOp(
            OpKind.LOAD,
            pc=0x900C,
            addr_fn=lambda env: base + LINE * (env.get("priv", 0) & 0xFF),
            size=1,
            deps=(1,),
            label="transmit",
        )
        return [delay_load, fault], {fault.uid: [access, transmit]}

    def prepare(self, context, secret):
        """The pre-leak phase: plant the privileged byte and warm it (the
        victim context used it recently, so the transient access completes
        well inside the fault's shadow: the precondition every one of
        these attacks shares, and for L1TF the defining requirement), then
        flush the transmission array and the delay line (widening the
        transient window past the fault).  Returns :meth:`ops`."""
        context.write_memory(self.secret_addr, secret & 0xFF)
        context.run_ops(
            0, [MicroOp(OpKind.LOAD, pc=0x9100, addr=self.secret_addr, size=1)]
        )
        context.flush(self.array_base, NUM_VALUES * LINE)
        context.flush(self.delay_addr)
        return self.ops()

    def run(self, config, secret, seed=0, sanitize=None):
        """FLUSH+RELOAD over the array; returns ``(latencies,
        recovered)``, recovered being the unique fast line or None."""
        latencies, hits = run_flush_reload(
            self.prepare, secret,
            [self.array_base + LINE * v for v in range(NUM_VALUES)],
            config, seed, sanitize,
        )
        return latencies, hits[0] if len(hits) == 1 else None


_GADGETS = {
    variant: ExceptionGadget(secret_addr, array_base)
    for variant, (secret_addr, array_base, _desc) in VARIANTS.items()
}


def specflow_program(variant):
    """One Table I variant as a specflow program.  All share the skeleton,
    so all four transmit through pc 0x900C — and only under the
    futuristic model (the shadow is an exception, not a branch)."""
    from ..specflow.programs import SpecProgram

    secret_addr, _array_base, desc = VARIANTS[variant]
    gadget = _GADGETS[variant]
    return SpecProgram(
        name=f"exception_{variant}",
        builder=gadget.ops,
        secret_ranges=((secret_addr, secret_addr + 1),),
        description=f"exception-shielded read of {desc}",
        expected_transmit={"spectre": (), "futuristic": (0x900C,)},
        prepare=gadget.prepare,
    )


def run_exception_attack(config, variant="meltdown", secret=199, seed=0,
                         sanitize=None):
    """Run one Table I exception attack; returns (latencies, recovered)."""
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}"
        )
    return _GADGETS[variant].run(config, secret, seed, sanitize)


POCS = tuple(
    PoC(
        f"exception_{variant}", 199,
        partial(run_exception_attack, variant=variant),
        partial(specflow_program, variant),
    )
    for variant in sorted(VARIANTS)
)
