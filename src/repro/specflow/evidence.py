"""Dynamic cross-validation: specflow verdicts vs. the real pipeline.

The static claim behind a SAFE verdict is observational: across any two
executions that differ only in the secret, the set of cache lines that
load touches *while unsafe-speculative* is identical — there is nothing
for a cache-timing receiver to read off it.  This harness checks exactly
that, per attack PoC:

1. run the PoC twice on the insecure BASE machine, with two different
   planted secrets;
2. a load-issue probe (:meth:`~repro.cpu.core.Core.attach_load_issue_probe`)
   records, for every load issue during the leak phase, the touched
   line — but only when the issue is *hypothetically unsafe*: on the
   wrong path, or judged squashable by an
   :class:`~repro.invisispec.policy.ISFuturePolicy` consulted over the
   core's live trackers, which the probe's attach builds (BASE itself
   protects nothing and reads none, which is the point: we observe what
   an attacker could);
3. every load PC the analyzer called SAFE must have identical
   per-secret fingerprints; every TRANSMIT PC must differ across the
   secrets (the positive control — if the transmitter's fingerprint did
   not move with the secret, the harness would be measuring nothing).
"""

from __future__ import annotations

from ..configs import ProcessorConfig, Scheme
from ..cpu import isa
from ..cpu.isa import MicroOp, OpKind
from ..invisispec.policy import ISFuturePolicy
from ..security.channel import AttackContext
from .analyzer import SAFE, TRANSMIT, analyze_program
from .programs import attack_programs, hardened_programs

__all__ = ["EvidenceOutcome", "gather_evidence"]

#: two secrets that land on different transmission-array lines for every
#: PoC alphabet in the corpus (they differ mod 256 and mod 64).
_SECRETS = (41, 174)


def _install_probe(context, fingerprints):
    """Attach the hypothetically-unsafe load recorder to every core."""
    judge = ISFuturePolicy()

    def probe(core, entry, unsafe_speculative):
        if entry.is_wrong_path or not judge.load_is_safe(core, entry):
            fingerprints.setdefault(entry.op.pc, set()).add(
                entry.lq_entry.line_addr
            )

    for core in context.system.cores:
        core.attach_load_issue_probe(probe, judge.reads)


# --------------------------------------------------------- per-PoC runners
#
# Each runner replays one PoC's leak phase under ``config`` with the
# probe armed, returning {pc: frozenset(line_addr)}.  Setup (planting,
# warming, training, flushing) happens before the probe is installed so
# the fingerprint covers exactly the phase the static program describes.


def _run_spectre_v1(config, secret):
    from ..security.spectre_v1 import SpectreV1Attack

    isa.reset_uids()
    attack = SpectreV1Attack(config)
    with attack.context:
        attack.plant_secret(secret)
        attack.train()
        attack.victim_uses_secret()
        fingerprints = {}
        _install_probe(attack.context, fingerprints)
        attack.attack_once()
    return fingerprints


def _run_meltdown_style(config, secret):
    from ..security import meltdown_style as m

    isa.reset_uids()
    with AttackContext(config, num_cores=1) as context:
        context.write_memory(m.ADDR_SECRET, secret & 0xFF)
        context.run_ops(
            0, [MicroOp(OpKind.LOAD, pc=0x9100, addr=m.ADDR_SECRET, size=1)]
        )
        context.flush(m.ADDR_DELAY)
        fingerprints = {}
        _install_probe(context, fingerprints)
        ops, wrong = m._attack_ops()
        context.run_ops(0, ops, wrong)
    return fingerprints


def _run_ssb(config, secret):
    from ..security import ssb as m

    isa.reset_uids()
    with AttackContext(config, num_cores=1) as context:
        context.write_memory(m.ADDR_P, secret & 0xFF)
        context.write_memory(m.ADDR_PTR, m.ADDR_P.to_bytes(8, "little"))
        context.run_ops(
            0, [MicroOp(OpKind.LOAD, pc=0x8100, addr=m.ADDR_P, size=1)]
        )
        context.flush(m.ADDR_PTR)
        fingerprints = {}
        _install_probe(context, fingerprints)
        context.run_ops(0, m._attack_ops())
    return fingerprints


def _run_cross_core(config, secret):
    from ..params import SystemParams
    from ..security import cross_core as m

    isa.reset_uids()
    with AttackContext(config, params=SystemParams(num_cores=2)) as context:
        context.write_memory(m.ADDR_SECRET, secret % m.NUM_VALUES)
        context.write_memory(m.ADDR_LIMIT, 10)
        for i in range(24):
            ops, wrong = m._victim_ops(i % 10, in_bounds=True)
            context.run_ops(0, ops, wrong)
        context.run_ops(
            0, [MicroOp(OpKind.LOAD, pc=0x6100, addr=m.ADDR_SECRET, size=1)]
        )
        for value in range(m.NUM_VALUES):
            context.flush(m.ADDR_B + m.LINE * value)
        context.flush(m.ADDR_LIMIT)
        fingerprints = {}
        _install_probe(context, fingerprints)
        ops, wrong = m._victim_ops(0, in_bounds=False)
        context.run_ops(0, ops, wrong)
    return fingerprints


def _make_exception_runner(variant):
    def run(config, secret):
        from ..security import exception_attacks as m

        isa.reset_uids()
        secret_addr, array_base, _desc = m.VARIANTS[variant]
        with AttackContext(config, num_cores=1) as context:
            context.write_memory(secret_addr, secret & 0xFF)
            context.run_ops(
                0, [MicroOp(OpKind.LOAD, pc=0x9100, addr=secret_addr, size=1)]
            )
            context.flush(m.ADDR_DELAY)
            fingerprints = {}
            _install_probe(context, fingerprints)
            ops, wrong = m._attack_ops(secret_addr, array_base)
            context.run_ops(0, ops, wrong)
        return fingerprints

    return run


#: PC for the generic runner's warm-up loads (never analyzed)
_PC_SETUP = 0x5800


def _run_setup_program(prog):
    """Generic runner for any :class:`~.programs.SpecProgram` carrying a
    ``setup`` recipe (the hardened corpus; same dict shape as the fuzz
    harness): plant, write, warm, flush, then replay the program's own
    ops with the probe armed."""

    def run(config, secret):
        setup = prog.setup
        ops, wrong_paths = prog.build()
        with AttackContext(config, num_cores=1) as context:
            base = setup["secret_addr"]
            for off in range(setup["secret_size"]):
                context.write_memory(base + off, secret & 0xFF)
            for addr, data in setup["writes"]:
                context.write_memory(addr, bytes(data))
            warm_ops = [
                MicroOp(
                    OpKind.LOAD, pc=_PC_SETUP + 0x10 * i, addr=addr, size=1
                )
                for i, addr in enumerate(setup["warm"])
            ]
            if warm_ops:
                context.run_ops(0, warm_ops)
            for addr in setup["flush"]:
                context.flush(addr)
            fingerprints = {}
            _install_probe(context, fingerprints)
            context.run_ops(0, ops, wrong_paths)
        return fingerprints

    return run


_RUNNERS = {
    "spectre_v1": _run_spectre_v1,
    "meltdown_style": _run_meltdown_style,
    "ssb": _run_ssb,
    "cross_core": _run_cross_core,
    "exception_meltdown": _make_exception_runner("meltdown"),
    "exception_l1tf": _make_exception_runner("l1tf"),
    "exception_lazy_fp": _make_exception_runner("lazy_fp"),
    "exception_rogue_sysreg": _make_exception_runner("rogue_sysreg"),
}


class EvidenceOutcome:
    """Verdict-vs-pipeline comparison for one attack program."""

    __slots__ = ("program", "ok", "violations", "safe_pcs_checked",
                 "transmit_pcs_checked")

    def __init__(self, program, ok, violations, safe_pcs_checked,
                 transmit_pcs_checked):
        self.program = program
        self.ok = ok
        #: human-readable failure strings (empty when ok)
        self.violations = violations
        self.safe_pcs_checked = safe_pcs_checked
        self.transmit_pcs_checked = transmit_pcs_checked

    def to_dict(self):
        return {
            "program": self.program,
            "ok": self.ok,
            "violations": list(self.violations),
            "safe_pcs_checked": [f"0x{pc:x}" for pc in self.safe_pcs_checked],
            "transmit_pcs_checked": [
                f"0x{pc:x}" for pc in self.transmit_pcs_checked
            ],
        }


def gather_evidence(secrets=_SECRETS, programs=None):
    """Run the harness for every attack PoC and every hardened victim
    (or the named subset); returns a list of :class:`EvidenceOutcome`
    in program order."""
    outcomes = []
    for prog in attack_programs() + hardened_programs():
        if programs is not None and prog.name not in programs:
            continue
        report = analyze_program(prog, model="futuristic")
        runner = _RUNNERS.get(prog.name)
        if runner is None:
            runner = _run_setup_program(prog)
        config = ProcessorConfig(scheme=Scheme.BASE)
        fp_a = runner(config, secrets[0])
        fp_b = runner(config, secrets[1])
        violations = []
        safe_pcs = sorted(report.pcs(SAFE))
        transmit_pcs = sorted(report.pcs(TRANSMIT))
        for pc in safe_pcs:
            lines_a = frozenset(fp_a.get(pc, ()))
            lines_b = frozenset(fp_b.get(pc, ()))
            if lines_a != lines_b:
                violations.append(
                    f"SAFE load 0x{pc:x} left secret-dependent unsafe-"
                    f"speculative fingerprints: {sorted(lines_a ^ lines_b)}"
                )
        for pc in transmit_pcs:
            lines_a = frozenset(fp_a.get(pc, ()))
            lines_b = frozenset(fp_b.get(pc, ()))
            if lines_a == lines_b:
                violations.append(
                    f"TRANSMIT load 0x{pc:x} fingerprint did not vary with "
                    f"the secret (positive control failed)"
                )
        outcomes.append(
            EvidenceOutcome(
                prog.name, not violations, violations, safe_pcs, transmit_pcs
            )
        )
    return outcomes
