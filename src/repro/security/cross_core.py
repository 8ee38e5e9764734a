"""CrossCore attack setting (Section III-C).

The receiver runs on a *different physical core* and monitors the shared
L2/LLC — the multi-tenant cloud scenario.  The victim's transient load
fills the LLC on an insecure machine, so the attacker's later probe from
its own core comes back at on-chip latency instead of memory latency.
InvisiSpec's Spec-GetS fills neither the L1 nor the LLC, so the probe sees
memory latency for every line.
"""

from __future__ import annotations

from ..cpu.isa import MicroOp, OpKind
from .channel import AttackContext, PoC

ADDR_LIMIT = 0x0005_0000
ADDR_SECRET = 0x0005_4000
ADDR_B = 0x0040_0000  # shared transmission array
BRANCH_PC = 0x7500
NUM_VALUES = 64  # reduced alphabet keeps the 2-core run fast
LINE = 64
#: the victim and the receiver each own a core
CORES = 2

#: Below this an LLC/remote-L1 hit; above it, memory.
ON_CHIP_THRESHOLD = 60


def _victim_ops(index, in_bounds):
    bound_load = MicroOp(OpKind.LOAD, pc=0x6000, addr=ADDR_LIMIT, size=1,
                         dst="limit")
    branch = MicroOp(OpKind.BRANCH, pc=BRANCH_PC, taken=in_bounds,
                     deps=(1,), latency=2)
    access = MicroOp(OpKind.LOAD, pc=0x7510, addr=ADDR_SECRET if not in_bounds
                     else ADDR_LIMIT + index, size=1, dst="v")
    transmit = MicroOp(
        OpKind.LOAD,
        pc=0x7520,
        addr_fn=lambda env: ADDR_B + LINE * (env.get("v", 0) % NUM_VALUES),
        size=1,
        deps=(1,),
    )
    if in_bounds:
        return [bound_load, branch, access, transmit], {}
    return [bound_load, branch], {branch.uid: [access, transmit]}


def prepare(context, secret):
    """The pre-leak phase, on core 0: plant, train the victim's bounds
    check (in-bounds calls), let the victim use its secret
    architecturally, then flush the transmission array (it is shared
    memory) and the bound.  Returns the out-of-bounds call."""
    context.write_memory(ADDR_SECRET, secret % NUM_VALUES)
    context.write_memory(ADDR_LIMIT, 10)
    for i in range(24):
        context.run_ops(0, *_victim_ops(i % 10, in_bounds=True))
    context.run_ops(
        0, [MicroOp(OpKind.LOAD, pc=0x6100, addr=ADDR_SECRET, size=1)]
    )
    context.flush(ADDR_B, NUM_VALUES * LINE)
    context.flush(ADDR_LIMIT)
    return _victim_ops(0, in_bounds=False)


def specflow_program():
    """The victim side as a specflow program (the receiver runs no
    transient code).  Same shape as spectre_v1: the dependent load
    (pc 0x7520) transmits on the branch's wrong path."""
    from ..specflow.programs import SpecProgram

    def build():
        in_ops, in_wrong = _victim_ops(3, in_bounds=True)
        oob_ops, oob_wrong = _victim_ops(0, in_bounds=False)
        return in_ops + oob_ops, {**in_wrong, **oob_wrong}

    return SpecProgram(
        name="cross_core",
        builder=build,
        secret_ranges=((ADDR_SECRET, ADDR_SECRET + 1),),
        description="spectre v1 victim monitored from another core's LLC view",
        expected_transmit={"spectre": (0x7520,), "futuristic": (0x7520,)},
        prepare=prepare,
        cores=CORES,
    )


def run_cross_core_attack(config, secret=37, sanitize=None):
    """Victim on core 0, receiver probing from core 1.

    Returns ``(latencies, recovered_value)``; latencies are the receiver's
    per-line probe times through its own (cold) core.
    """
    with AttackContext(config, num_cores=CORES, sanitize=sanitize) as context:
        # The transient pair of the out-of-bounds call runs on core 0.
        context.run_ops(0, *prepare(context, secret))
        # The receiver probes from CORE 1: anything on chip answers fast.
        latencies = [
            context.probe_latency(1, ADDR_B + LINE * value)
            for value in range(NUM_VALUES)
        ]
    hits = [v for v in range(NUM_VALUES) if latencies[v] <= ON_CHIP_THRESHOLD]
    recovered = hits[0] if len(hits) == 1 else None
    return latencies, recovered


POC = PoC("cross_core", 37, run_cross_core_attack, specflow_program)
