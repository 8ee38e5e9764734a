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
from .channel import AttackContext
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
    )


class SpectreV1Attack:
    """The end-to-end attack on one simulated core."""

    def __init__(self, config, seed=0, sanitize=None):
        self.context = AttackContext(
            config, num_cores=1, seed=seed, sanitize=sanitize
        )
        self.core_id = 0
        self.receiver = FlushReloadReceiver(
            self.context,
            self.core_id,
            [ADDR_B + LINE * v for v in range(NUM_VALUES)],
        )

    def plant_secret(self, secret):
        self.context.write_memory(ADDR_SECRET, secret & 0xFF)
        self.context.write_memory(ADDR_LIMIT, 10)
        for i in range(10):
            self.context.write_memory(ADDR_A + i, i)

    def victim_uses_secret(self):
        """The victim touches its secret architecturally (it is live data),
        so the transient access hits the L1 and the access/transmit pair
        fits comfortably inside the branch-resolution window."""
        self.context.run_ops(
            self.core_id,
            [MicroOp(OpKind.LOAD, pc=0x6100, addr=ADDR_SECRET, size=1)],
        )

    # ----------------------------------------------------------- victim code

    def _victim_ops(self, index):
        return victim_ops(index)

    # ----------------------------------------------------------- attack phases

    def train(self, rounds=24):
        """Mistrain the bounds check with in-bounds calls."""
        for i in range(rounds):
            ops, wrong = self._victim_ops(i % 10)
            self.context.run_ops(self.core_id, ops, wrong)

    def attack_once(self):
        """flush(B); flush(limit); call victim(OOB); scan(B).

        Returns the per-index reload latencies (one Figure 5 trial).
        """
        self.receiver.flush()
        self.context.flush(ADDR_LIMIT)
        ops, wrong = self._victim_ops(OOB_INDEX)
        self.context.run_ops(self.core_id, ops, wrong)
        return self.receiver.reload()

    def recover_secret(self, latencies):
        """The attacker's guess: the uniquely-fast line, or None."""
        hits = self.receiver.hits(latencies)
        if len(hits) == 1:
            return hits[0]
        if hits:
            return min(hits, key=lambda i: latencies[i])
        return None


def run_spectre_v1(config, secret=84, trials=3, seed=0, sanitize=None):
    """Run the full PoC; returns ``(median_latencies, recovered_secret)``.

    ``median_latencies[v]`` is the median reload latency of B's line *v*
    across trials — the y-values of Figure 5.
    """
    attack = SpectreV1Attack(config, seed=seed, sanitize=sanitize)
    all_latencies = []
    with attack.context:
        attack.plant_secret(secret)
        attack.train()
        for trial in range(trials):
            if trial:
                # The out-of-bounds call taught the predictor not-taken;
                # re-poison it before the next trial, like a real
                # attacker.  It takes > global-history-bits all-taken
                # executions for the attack-time history pattern to be a
                # trained index again.
                attack.train(rounds=20)
            attack.victim_uses_secret()
            all_latencies.append(attack.attack_once())
    medians = [
        sorted(lat[v] for lat in all_latencies)[len(all_latencies) // 2]
        for v in range(NUM_VALUES)
    ]
    return medians, attack.recover_secret(medians)
