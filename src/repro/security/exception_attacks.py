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
(Table II's scoping).
"""

from __future__ import annotations

from ..cpu.isa import MicroOp, OpKind
from .channel import AttackContext
from .flush_reload import FlushReloadReceiver

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


def _attack_ops(secret_addr, array_base):
    delay_load = MicroOp(OpKind.LOAD, pc=0x9000, addr=ADDR_DELAY, size=8,
                         dst="gate")
    fault = MicroOp(OpKind.EXCEPTION, pc=0x9004, deps=(1,),
                    label="faulting-access")
    access = MicroOp(OpKind.LOAD, pc=0x9008, addr=secret_addr, size=1,
                     dst="priv", label="access")
    transmit = MicroOp(
        OpKind.LOAD,
        pc=0x900C,
        addr_fn=lambda env: array_base + LINE * (env.get("priv", 0) & 0xFF),
        size=1,
        deps=(1,),
        label="transmit",
    )
    return [delay_load, fault], {fault.uid: [access, transmit]}


def specflow_programs():
    """One specflow program per Table I variant.  All share the skeleton,
    so all four transmit through pc 0x900C — and only under the
    futuristic model (the shadow is an exception, not a branch)."""
    from ..specflow.programs import SpecProgram

    def make_builder(secret_addr, array_base):
        return lambda: _attack_ops(secret_addr, array_base)

    return [
        SpecProgram(
            name=f"exception_{variant}",
            builder=make_builder(secret_addr, array_base),
            secret_ranges=((secret_addr, secret_addr + 1),),
            description=f"exception-shielded read of {desc}",
            expected_transmit={"spectre": (), "futuristic": (0x900C,)},
        )
        for variant, (secret_addr, array_base, desc) in sorted(VARIANTS.items())
    ]


def run_exception_attack(config, variant="meltdown", secret=199, seed=0,
                         sanitize=None):
    """Run one Table I exception attack; returns (latencies, recovered)."""
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}"
        )
    secret_addr, array_base, _desc = VARIANTS[variant]
    with AttackContext(
        config, num_cores=1, seed=seed, sanitize=sanitize
    ) as context:
        context.write_memory(secret_addr, secret & 0xFF)
        # The privileged state is warm (the victim context used it
        # recently) — the precondition every one of these attacks shares;
        # for L1TF it is the defining requirement.
        context.run_ops(
            0, [MicroOp(OpKind.LOAD, pc=0x9100, addr=secret_addr, size=1)]
        )
        receiver = FlushReloadReceiver(
            context, 0, [array_base + LINE * v for v in range(NUM_VALUES)]
        )
        receiver.flush()
        context.flush(ADDR_DELAY)
        ops, wrong = _attack_ops(secret_addr, array_base)
        context.run_ops(0, ops, wrong)
        latencies = receiver.reload()
    hits = receiver.hits(latencies)
    recovered = hits[0] if len(hits) == 1 else None
    return latencies, recovered


def attack_matrix(schemes, variants=None, secret=177, seed=0):
    """{variant: {scheme: leaked?}} across configurations."""
    from ..configs import ProcessorConfig

    variants = variants or sorted(VARIANTS)
    matrix = {}
    for variant in variants:
        row = {}
        for scheme in schemes:
            _lat, recovered = run_exception_attack(
                ProcessorConfig(scheme=scheme), variant=variant,
                secret=secret, seed=seed,
            )
            row[scheme] = recovered == secret
        matrix[variant] = row
    return matrix
