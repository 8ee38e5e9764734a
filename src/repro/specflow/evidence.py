"""Dynamic cross-validation: specflow verdicts vs. the real pipeline.

The static claim behind a SAFE verdict is observational: across any two
executions that differ only in the secret, the set of cache lines that
load touches *while unsafe-speculative* is identical — there is nothing
for a cache-timing receiver to read off it.  This harness checks exactly
that, for every attack PoC and every hardened victim:

1. :func:`~repro.specflow.programs.fingerprint_runs` runs the program
   twice on the insecure BASE machine, with two different planted
   secrets: a PoC through its own pre-leak phase, a hardened victim
   through the replay of its ``setup`` recipe;
2. a load-issue probe records, for every load issue during the leak
   phase, the touched line — but only when the issue is *hypothetically
   unsafe*: on the wrong path, or judged squashable by an
   :class:`~repro.invisispec.policy.ISFuturePolicy` consulted over the
   core's live trackers (the futuristic fingerprint);
3. every load PC the analyzer called SAFE must have identical
   per-secret fingerprints; every TRANSMIT PC must differ across the
   secrets (the positive control — if the transmitter's fingerprint did
   not move with the secret, the harness would be measuring nothing).

So an ``ok`` outcome means: no secret-dependent cache-line footprint was
observed from unsafe-speculative load issues.  Contention for MSHRs,
ports or other shared resources (speculative interference) leaves no
such footprint and is outside this oracle.
"""

from __future__ import annotations

from .analyzer import SAFE, TRANSMIT, analyze_program
from .programs import (
    SECRETS,
    attack_programs,
    fingerprint_runs,
    hardened_programs,
)

__all__ = ["EvidenceOutcome", "gather_evidence"]


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


def gather_evidence(secrets=SECRETS, programs=None):
    """Run the harness for every attack PoC and every hardened victim
    (or the named subset); returns a list of :class:`EvidenceOutcome`
    in program order."""
    outcomes = []
    for prog in attack_programs() + hardened_programs():
        if programs is not None and prog.name not in programs:
            continue
        report = analyze_program(prog, model="futuristic")
        runs, _cycles = fingerprint_runs(prog, secrets)
        fp_a, fp_b = (run["futuristic"] for run in runs)
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
