"""Spectre variant 1 proof of concept — Figures 1 and 5 of the paper.

The victim::

    uint8 A[10];
    uint8 B[256 * 64];
    void victim(size_t a) {
        if (a < 10)             // attacker-trained branch
            junk = B[64 * A[a]];
    }

The attacker trains the bounds-check branch with in-bounds calls, flushes
B (and the bounds variable, so the branch resolves slowly), then calls the
victim with an out-of-bounds ``a`` chosen so that ``A[a]`` reads the secret
byte V.  On the transient (wrong) path the victim loads ``B[64 * V]``;
scanning B with FLUSH+RELOAD recovers V on an insecure machine.  Under
InvisiSpec the transient loads live only in the speculative buffer and the
scan shows a flat, all-miss profile (Figure 5).
"""

from __future__ import annotations

from ..cpu.isa import MicroOp, OpKind
from .channel import AttackContext, PoC
from .flush_reload import FlushReloadReceiver

#: Victim memory layout.
ADDR_LIMIT = 0x0001_0000  # the "10" bound, flushed to widen the window
ADDR_A = 0x0002_0000  # uint8 A[10]
ADDR_SECRET = 0x0002_4000  # secret byte V, at A + OOB_INDEX
ADDR_B = 0x0010_0000  # uint8 B[256 * 64]
OOB_INDEX = ADDR_SECRET - ADDR_A
BRANCH_PC = 0x7000
NUM_VALUES = 256
LINE = 64


def victim_ops(index):
    """One victim(a) call: load the bound, branch, then the guarded
    double load.  The guarded arm runs architecturally when in bounds
    and as the branch's wrong path when out of bounds."""
    in_bounds = index < 10
    bound_load = MicroOp(
        OpKind.LOAD, pc=0x6000, addr=ADDR_LIMIT, size=1, dst="limit"
    )
    branch = MicroOp(
        OpKind.BRANCH, pc=BRANCH_PC, taken=in_bounds, deps=(1,), latency=2
    )
    access = MicroOp(
        OpKind.LOAD,
        pc=0x7010,
        addr=ADDR_A + index,
        size=1,
        dst="v",
        label="access",
    )
    transmit = MicroOp(
        OpKind.LOAD,
        pc=0x7020,
        addr_fn=lambda env: ADDR_B + LINE * (env.get("v", 0) & 0xFF),
        size=1,
        deps=(1,),
        label="transmit",
    )
    if in_bounds:
        return [bound_load, branch, access, transmit], {}
    return [bound_load, branch], {branch.uid: [access, transmit]}


def _train(context, rounds):
    """Mistrain the bounds check with in-bounds calls."""
    for i in range(rounds):
        context.run_ops(0, *victim_ops(i % 10))


def _arm(context):
    """The victim touches its secret architecturally (it is live data),
    so the transient access hits the L1 and the access/transmit pair fits
    comfortably inside the branch-resolution window; the attacker then
    flushes B and the bound.  Returns the out-of-bounds call."""
    context.run_ops(
        0, [MicroOp(OpKind.LOAD, pc=0x6100, addr=ADDR_SECRET, size=1)]
    )
    context.flush(ADDR_B, NUM_VALUES * LINE)
    context.flush(ADDR_LIMIT)
    return victim_ops(OOB_INDEX)


def prepare(context, secret):
    """The pre-leak phase: plant the secret, mistrain, warm the secret and
    flush.  Returns the leak phase, the out-of-bounds victim call."""
    context.write_memory(ADDR_SECRET, secret & 0xFF)
    context.write_memory(ADDR_LIMIT, 10)
    for i in range(10):
        context.write_memory(ADDR_A + i, i)
    _train(context, 24)
    return _arm(context)


def specflow_program():
    """The victim as a specflow program: one trained in-bounds call
    followed by the out-of-bounds call that leaks.  Only the dependent
    load (pc 0x7020) transmits; the in-bounds call keeps the analyzer
    honest about not over-flagging the architectural path."""
    from ..specflow.programs import SpecProgram

    def build():
        in_ops, in_wrong = victim_ops(3)
        oob_ops, oob_wrong = victim_ops(OOB_INDEX)
        return in_ops + oob_ops, {**in_wrong, **oob_wrong}

    return SpecProgram(
        name="spectre_v1",
        builder=build,
        secret_ranges=((ADDR_SECRET, ADDR_SECRET + 1),),
        description="bounds-check bypass: B[64 * A[a]] on the wrong path",
        expected_transmit={"spectre": (0x7020,), "futuristic": (0x7020,)},
        prepare=prepare,
    )


def run_spectre_v1(config, secret=84, trials=3, seed=0, sanitize=None):
    """Run the full PoC; returns ``(median_latencies, recovered_secret)``.

    ``median_latencies[v]`` is the median reload latency of B's line *v*
    across trials — the y-values of Figure 5.  The attacker's guess is
    the uniquely-fast line, else the fastest hit, else None.
    """
    all_latencies = []
    with AttackContext(config, seed=seed, sanitize=sanitize) as context:
        receiver = FlushReloadReceiver(
            context, 0, [ADDR_B + LINE * v for v in range(NUM_VALUES)]
        )
        leak = prepare(context, secret)
        for trial in range(trials):
            if trial:
                # The out-of-bounds call taught the predictor not-taken;
                # re-poison it before the next trial, like a real
                # attacker.  It takes > global-history-bits all-taken
                # executions for the attack-time history pattern to be a
                # trained index again.
                _train(context, 20)
                leak = _arm(context)
            context.run_ops(0, *leak)
            all_latencies.append(receiver.reload())
    medians = [
        sorted(lat[v] for lat in all_latencies)[len(all_latencies) // 2]
        for v in range(NUM_VALUES)
    ]
    hits = receiver.hits(medians)
    if len(hits) == 1:
        return medians, hits[0]
    if hits:
        return medians, min(hits, key=lambda i: medians[i])
    return medians, None


POC = PoC("spectre_v1", 84, run_spectre_v1, specflow_program)
