"""Per-program differential check: static verdicts vs. live evidence.

Applies the oracle of the curated harness in :mod:`repro.specflow.evidence`
to arbitrary generated programs, and to *both* shadow models, through the
same runner: :func:`~repro.specflow.programs.fingerprint_runs` replays a
program's ``setup`` recipe once per secret, under the campaign's
watchdog, heartbeat and per-phase cycle budget, and returns per-model
fingerprints.  The spectre fingerprint has no wrong-path disjunct: a
transient load under a pure exception shadow is invisible to a
branch-only attacker model, and counting it would mislabel every
exception gadget as a spectre-model soundness bug.

Classification per static load PC and model:

* ``SAFE`` + differing fingerprints → **soundness** disagreement
  (SAFE-but-leaks; campaign-fatal);
* ``TRANSMIT`` + identical fingerprints → **precision** disagreement
  (TRANSMIT-but-clean; tracked);
* ``UNKNOWN`` → tracked per reason kind;
* anything else agrees.
"""

from __future__ import annotations

from ..specflow.analyzer import SAFE, TRANSMIT, UNKNOWN, SpecFlowAnalyzer
from ..specflow.mutations import make_weakened_analyzer
from ..specflow.programs import PHASE_CYCLES, SECRETS, fingerprint_runs

__all__ = [
    "AGREE",
    "MODELS",
    "PRECISION",
    "SECRETS",
    "SOUNDNESS",
    "DifferentialResult",
    "differential_check",
]

MODELS = ("spectre", "futuristic")

#: program classifications, worst first
SOUNDNESS = "soundness"
PRECISION = "precision"
UNKNOWN_GAP = "unknown"
AGREE = "agree"
_SEVERITY = (SOUNDNESS, PRECISION, UNKNOWN_GAP, AGREE)


def _make_analyzer(model, window, weaken):
    if weaken is None:
        return SpecFlowAnalyzer(model=model, window=window)
    return make_weakened_analyzer(weaken, model=model, window=window)


class DifferentialResult:
    """Everything the differential checker decided about one program."""

    __slots__ = ("name", "template", "mutations", "classification",
                 "per_model", "cycles")

    def __init__(self, name, template, mutations, classification, per_model,
                 cycles):
        self.name = name
        self.template = template
        self.mutations = mutations
        #: worst of the per-model verdicts: soundness > precision >
        #: unknown > agree
        self.classification = classification
        #: model -> dict of pc lists (hex strings, sorted)
        self.per_model = per_model
        self.cycles = cycles

    def targets(self, kind):
        """(model, pc) pairs carrying a ``kind`` disagreement."""
        key = "safe_but_leaks" if kind == SOUNDNESS else "transmit_but_clean"
        return [
            (model, int(pc, 16))
            for model in MODELS
            for pc in self.per_model[model][key]
        ]

    def to_dict(self):
        return {
            "name": self.name,
            "template": self.template,
            "mutations": list(self.mutations),
            "classification": self.classification,
            "models": {model: dict(self.per_model[model])
                       for model in MODELS},
        }


def differential_check(prog, window=64, weaken=None, secrets=SECRETS,
                       watchdog=None, heartbeat=None,
                       phase_cycles=PHASE_CYCLES):
    """Statically analyze and dynamically fingerprint one
    :class:`~repro.fuzz.generator.FuzzProgram`; returns a
    :class:`DifferentialResult`.

    ``weaken`` names a registered analyzer weakening to apply to the
    *static* side only — the dynamic evidence is always gathered by the
    unmodified machine, which is what makes the comparison a soundness
    test of the analyzer rather than of itself.
    """
    spec_prog = prog.spec_program()
    reports = {
        model: _make_analyzer(model, window, weaken).analyze(spec_prog)
        for model in MODELS
    }
    (fp_a, fp_b), cycles = fingerprint_runs(
        spec_prog, secrets, watchdog=watchdog, heartbeat=heartbeat,
        phase_cycles=phase_cycles,
    )
    per_model = {}
    worst = AGREE
    for model in MODELS:
        report = reports[model]
        detail = {
            "safe_but_leaks": [],
            "transmit_but_clean": [],
            "transmit_confirmed": [],
            "safe_confirmed": [],
            "unknown": {},
        }
        for rep in report.loads:
            lines_a = frozenset(fp_a[model].get(rep.pc, ()))
            lines_b = frozenset(fp_b[model].get(rep.pc, ()))
            leaky = lines_a != lines_b
            pc = f"0x{rep.pc:x}"
            if rep.classification == SAFE:
                if leaky:
                    detail["safe_but_leaks"].append(pc)
                else:
                    detail["safe_confirmed"].append(pc)
            elif rep.classification == TRANSMIT:
                if leaky:
                    detail["transmit_confirmed"].append(pc)
                else:
                    detail["transmit_but_clean"].append(pc)
            elif rep.classification == UNKNOWN:
                detail["unknown"][pc] = rep.reason_kind
        for key in ("safe_but_leaks", "transmit_but_clean",
                    "transmit_confirmed", "safe_confirmed"):
            detail[key].sort()
        per_model[model] = detail
        if detail["safe_but_leaks"]:
            verdict = SOUNDNESS
        elif detail["transmit_but_clean"]:
            verdict = PRECISION
        elif detail["unknown"]:
            verdict = UNKNOWN_GAP
        else:
            verdict = AGREE
        if _SEVERITY.index(verdict) < _SEVERITY.index(worst):
            worst = verdict
    return DifferentialResult(
        name=prog.name,
        template=prog.template,
        mutations=prog.mutations,
        classification=worst,
        per_model=per_model,
        cycles=cycles,
    )
