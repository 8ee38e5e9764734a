"""Per-program differential check: static verdicts vs. live evidence.

Extends the curated harness in :mod:`repro.specflow.evidence` to
arbitrary generated programs, and to *both* shadow models in one pair of
simulations: the load-issue probe consults an
:class:`~repro.invisispec.policy.ISFuturePolicy` and an
:class:`~repro.invisispec.policy.ISSpectrePolicy` judge per issue, so a
single two-secret run yields per-model fingerprints.  The spectre judge
deliberately omits the wrong-path disjunct: a transient load under a
pure exception shadow is invisible to a branch-only attacker model, and
counting it would mislabel every exception gadget as a spectre-model
soundness bug.

Classification per static load PC and model:

* ``SAFE`` + differing fingerprints → **soundness** disagreement
  (SAFE-but-leaks; campaign-fatal);
* ``TRANSMIT`` + identical fingerprints → **precision** disagreement
  (TRANSMIT-but-clean; tracked);
* ``UNKNOWN`` → tracked per reason kind;
* anything else agrees.
"""

from __future__ import annotations

from ..configs import ProcessorConfig, Scheme
from ..cpu.isa import MicroOp, OpKind
from ..invisispec.policy import ISFuturePolicy, ISSpectrePolicy
from ..security.channel import AttackContext
from ..specflow.analyzer import SAFE, TRANSMIT, UNKNOWN, SpecFlowAnalyzer
from ..specflow.mutations import make_weakened_analyzer

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

#: the evidence harness's two secrets: they land on distinct
#: transmission-array lines under every mask the generator emits.
SECRETS = (41, 174)

#: program classifications, worst first
SOUNDNESS = "soundness"
PRECISION = "precision"
UNKNOWN_GAP = "unknown"
AGREE = "agree"
_SEVERITY = (SOUNDNESS, PRECISION, UNKNOWN_GAP, AGREE)

_PC_WARM = 0x5000
_DEFAULT_PHASE_CYCLES = 2_000_000


def _make_analyzer(model, window, weaken):
    if weaken is None:
        return SpecFlowAnalyzer(model=model, window=window)
    return make_weakened_analyzer(weaken, model=model, window=window)


def _run_once(prog, secret, watchdog=None, heartbeat=None,
              phase_cycles=_DEFAULT_PHASE_CYCLES):
    """One dynamic execution; returns per-model fingerprints plus the
    simulated cycles consumed.

    The program ops are rebuilt *first* (stored uids 0..n-1, counter
    advanced past them), so the setup ops drawn afterwards can never
    collide with a wrong-path arm key.
    """
    ops, wrong_paths = prog.build()
    config = ProcessorConfig(scheme=Scheme.BASE)
    with AttackContext(config, num_cores=1) as context:
        if watchdog is not None:
            context.kernel.watchdog = watchdog
        if heartbeat is not None:
            context.kernel.heartbeat = heartbeat
        setup = prog.setup
        context.write_memory(
            setup["secret_addr"], [secret & 0xFF] * setup["secret_size"]
        )
        for addr, data in setup["writes"]:
            context.write_memory(addr, list(data))
        warm_ops = [
            MicroOp(OpKind.LOAD, pc=_PC_WARM + 0x10 * i, addr=addr, size=1)
            for i, addr in enumerate(setup["warm"])
        ]
        if warm_ops:
            context.run_ops(
                0, warm_ops, max_cycles=context.kernel.cycle + phase_cycles
            )
        for addr in setup["flush"]:
            context.flush(addr)

        fingerprints = {model: {} for model in MODELS}
        future_judge = ISFuturePolicy()
        spectre_judge = ISSpectrePolicy()

        def probe(core, entry, unsafe_speculative):
            line = entry.lq_entry.line_addr
            pc = entry.op.pc
            if (
                entry.is_wrong_path
                or not future_judge.load_is_safe(core, entry)
            ):
                fingerprints["futuristic"].setdefault(pc, set()).add(line)
            if not spectre_judge.load_is_safe(core, entry):
                fingerprints["spectre"].setdefault(pc, set()).add(line)

        for core in context.system.cores:
            core.attach_load_issue_probe(
                probe, future_judge.reads | spectre_judge.reads
            )
        start = context.kernel.cycle
        context.run_ops(
            0, ops, wrong_paths, max_cycles=start + phase_cycles
        )
    # The kernel's clock stays readable after the release.
    return fingerprints, context.kernel.cycle


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
                       phase_cycles=_DEFAULT_PHASE_CYCLES):
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
    fp_a, cycles_a = _run_once(
        prog, secrets[0], watchdog=watchdog, heartbeat=heartbeat,
        phase_cycles=phase_cycles,
    )
    fp_b, cycles_b = _run_once(
        prog, secrets[1], watchdog=watchdog, heartbeat=heartbeat,
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
        cycles=cycles_a + cycles_b,
    )
