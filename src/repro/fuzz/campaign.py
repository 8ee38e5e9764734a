"""The fuzz campaign driver: generate, dispatch, compare, minimize.

One campaign is a deterministic function of ``(programs, seed, window,
weaken)``:

1. **generate** — the parent builds every program up front
   (:func:`~repro.fuzz.generator.generate_programs`) and ships them to
   workers as canonical JSON, so job count and hash seed cannot touch
   program identity;
2. **dispatch** — programs are batched into
   :class:`~repro.fuzz.cells.FuzzCellSpec` cells and executed by the
   reliability engine: the supervisor's crash isolation, RSS limits,
   quarantine and resumable journal all apply unchanged.  Retries are
   disabled (``max_attempts=1``) because a fuzz cell is deterministic —
   a bumped seed would re-measure the identical batch;
3. **compare** — per-program verdicts are aggregated in generation
   order, whether they arrived fresh or cached from the journal on
   ``--resume``;
4. **minimize** — every disagreement target (soundness first) is delta-
   minimized in the parent against a live differential re-check and
   journaled into the content-addressed triage corpus.

``summary.json`` holds no timestamps, wall-clock figures, or job counts:
byte-identical across ``PYTHONHASHSEED`` values and serial vs. parallel
execution, by construction.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ReproError
from ..reliability.atomic_io import atomic_write_json
from ..reliability.engine import RetryPolicy, RunEngine
from ..reliability.journal import RunJournal
from ..reliability.supervisor import Supervisor
from .cells import FuzzCellSpec
from .corpus import TriageCorpus
from .generator import generate_programs
from .harness import (
    MODELS,
    PRECISION,
    SOUNDNESS,
    differential_check,
)
from .minimize import minimize_program

__all__ = ["CampaignResult", "run_campaign"]

_KIND_KEY = {
    SOUNDNESS: "safe_but_leaks",
    PRECISION: "transmit_but_clean",
}


def _campaign_id(programs, seed, window, weaken):
    base = f"s{seed}-n{programs}-w{window}"
    return f"{base}-{weaken}" if weaken else base


def _batches(items, size):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _collect_targets(progs, verdicts):
    """All (kind, program, model, pc) disagreement targets, soundness
    first, then deterministic (name, model, pc) order within a kind."""
    targets = []
    for prog, verdict in zip(progs, verdicts):
        if verdict is None or "models" not in verdict:
            continue
        kind = verdict["classification"]
        if kind not in _KIND_KEY:
            continue
        key = _KIND_KEY[kind]
        for model in MODELS:
            for pc_hex in verdict["models"][model][key]:
                targets.append((kind, prog, model, int(pc_hex, 16)))
    targets.sort(
        key=lambda t: (0 if t[0] == SOUNDNESS else 1, t[1].name, t[2], t[3])
    )
    return targets


class CampaignResult:
    """Everything one campaign run produced, plus its exit semantics."""

    __slots__ = ("campaign_id", "out_dir", "verdicts", "summary",
                 "corpus_index", "failed_cells")

    def __init__(self, campaign_id, out_dir, verdicts, summary,
                 corpus_index, failed_cells):
        self.campaign_id = campaign_id
        self.out_dir = Path(out_dir)
        #: per-program verdict dicts in generation order (None where the
        #: owning cell failed outright)
        self.verdicts = verdicts
        self.summary = summary
        self.corpus_index = corpus_index
        self.failed_cells = failed_cells

    @property
    def soundness_count(self):
        return self.summary["evidence"]["safe_but_leaks"]

    @property
    def exit_code(self):
        """Non-zero iff the campaign found a soundness disagreement or
        lost cells to engine failures — precision gaps are tracked, not
        fatal."""
        if self.soundness_count or self.failed_cells:
            return 1
        return 0


def run_campaign(
    programs=256,
    seed=0,
    jobs=1,
    out_dir="results/fuzz",
    window=64,
    weaken=None,
    batch=16,
    max_minimize=25,
    minimize_checks=200,
    resume=False,
    max_rss=None,
    heartbeat_timeout=60.0,
    wall_clock_s=None,
    phase_cycles=2_000_000,
    echo=None,
):
    """Run one differential fuzzing campaign; returns a
    :class:`CampaignResult`.

    ``weaken`` names an entry of
    :data:`~repro.specflow.mutations.ANALYZER_WEAKENINGS` applied to the
    static side only (the seeded-bug harness).  ``echo`` is an optional
    progress callable (the CLI passes ``print``); the library default is
    silent.
    """
    say = echo if echo is not None else (lambda *_args: None)
    campaign_id = _campaign_id(programs, seed, window, weaken)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    say(f"[fuzz] campaign {campaign_id}: generating {programs} programs")
    progs = generate_programs(programs, seed=seed)
    texts = [prog.canonical_json() for prog in progs]
    specs = [
        FuzzCellSpec(
            cell_id=f"fuzz:{campaign_id}:b{i:04d}",
            programs=tuple(chunk),
            window=window,
            weaken=weaken,
            seed=seed,
        )
        for i, chunk in enumerate(_batches(texts, max(1, batch)))
    ]

    journal = RunJournal(out / "journal.json", experiment=f"fuzz-{campaign_id}")
    supervisor = (
        Supervisor(
            jobs=jobs, max_rss=max_rss, heartbeat_timeout=heartbeat_timeout
        )
        if jobs > 1
        else None
    )
    engine = RunEngine(
        journal=journal,
        policy=RetryPolicy(max_attempts=1),
        max_cycles=phase_cycles,
        wall_clock_s=wall_clock_s,
        resume=resume,
        supervisor=supervisor,
    )
    say(
        f"[fuzz] dispatching {len(specs)} cells "
        f"({'serial' if jobs <= 1 else f'{jobs} workers'})"
    )
    outcomes = engine.run_specs(specs)

    verdicts = []
    failed_cells = []
    for spec, outcome in zip(specs, outcomes):
        if outcome.ok:
            verdicts.extend(outcome.result.metrics["programs"])
        else:
            failed_cells.append({
                "cell": spec.cell_id,
                "error_class": outcome.error_class,
                "error_message": outcome.error_message,
            })
            verdicts.extend([None] * len(spec.programs))
    if failed_cells:
        say(f"[fuzz] {len(failed_cells)} cell(s) failed outright")

    targets = _collect_targets(progs, verdicts)
    soundness_targets = sum(1 for t in targets if t[0] == SOUNDNESS)
    say(
        f"[fuzz] {len(targets)} disagreement target(s), "
        f"{soundness_targets} soundness"
    )

    corpus = TriageCorpus(out / "corpus")
    minimized_count = 0
    minimize_skipped = 0
    total_checks = 0
    for kind, prog, model, pc in targets:
        if minimized_count >= max_minimize:
            minimize_skipped += 1
            continue
        key = _KIND_KEY[kind]

        def check(candidate, _model=model, _pc=pc, _key=key):
            try:
                res = differential_check(
                    candidate, window=window, weaken=weaken,
                    phase_cycles=phase_cycles,
                )
            except ReproError:
                return False
            return f"0x{_pc:x}" in res.per_model[_model][_key]

        minimized, mlog, checks = minimize_program(
            prog, check, max_checks=minimize_checks
        )
        total_checks += checks
        disagreement = {
            "kind": kind,
            "model": model,
            "pc": f"0x{pc:x}",
            "weaken": weaken,
        }
        digest = corpus.add(minimized, prog, disagreement, mlog, checks)
        minimized_count += 1
        say(
            f"[fuzz] minimized {prog.name} [{kind}/{model}@0x{pc:x}] "
            f"{prog.op_count} -> {minimized.op_count} ops "
            f"({checks} checks) -> corpus/{digest}.json"
        )
    if minimize_skipped:
        say(
            f"[fuzz] minimization cap reached: {minimize_skipped} "
            f"target(s) left unminimized (raise --max-minimize)"
        )
    corpus_index = corpus.write_index()

    summary = _summarize(
        campaign_id, programs, seed, window, weaken, verdicts,
        soundness_targets, len(targets), corpus_index, minimized_count,
        minimize_skipped, total_checks, failed_cells,
    )
    atomic_write_json(out / "summary.json", summary)
    say(
        f"[fuzz] done: {summary['by_classification']} "
        f"-> {out / 'summary.json'}"
    )
    return CampaignResult(
        campaign_id, out, verdicts, summary, corpus_index, failed_cells
    )


def _summarize(campaign_id, programs, seed, window, weaken, verdicts,
               soundness_targets, total_targets, corpus_index,
               minimized_count, minimize_skipped, total_checks,
               failed_cells):
    by_classification = {}
    by_template = {}
    unknown_reasons = {}
    template_evidence = {}
    confirmed = clean = leaks = 0
    for verdict in verdicts:
        if verdict is None:
            continue
        cls = verdict["classification"]
        by_classification[cls] = by_classification.get(cls, 0) + 1
        per_template = by_template.setdefault(verdict["template"], {})
        per_template[cls] = per_template.get(cls, 0) + 1
        tstats = template_evidence.setdefault(
            verdict["template"],
            {"transmit_confirmed": 0, "transmit_but_clean": 0,
             "safe_but_leaks": 0},
        )
        for model in MODELS:
            detail = verdict.get("models", {}).get(model)
            if detail is None:
                continue
            confirmed += len(detail["transmit_confirmed"])
            clean += len(detail["transmit_but_clean"])
            leaks += len(detail["safe_but_leaks"])
            tstats["transmit_confirmed"] += len(detail["transmit_confirmed"])
            tstats["transmit_but_clean"] += len(detail["transmit_but_clean"])
            tstats["safe_but_leaks"] += len(detail["safe_but_leaks"])
            for reason in detail["unknown"].values():
                unknown_reasons[reason] = unknown_reasons.get(reason, 0) + 1
    precision = (
        round(confirmed / (confirmed + clean), 6)
        if confirmed + clean
        else None
    )
    recall = (
        round(confirmed / (confirmed + leaks), 6)
        if confirmed + leaks
        else None
    )
    # Which templates own the residual imprecision, template-name order
    # (deterministic regardless of generation interleaving).
    precision_by_template = {
        name: {
            **stats,
            "precision": (
                round(
                    stats["transmit_confirmed"]
                    / (stats["transmit_confirmed"]
                       + stats["transmit_but_clean"]),
                    6,
                )
                if stats["transmit_confirmed"] + stats["transmit_but_clean"]
                else None
            ),
        }
        for name, stats in sorted(template_evidence.items())
    }
    return {
        "campaign": campaign_id,
        "programs": programs,
        "seed": seed,
        "window": window,
        "weaken": weaken,
        "by_classification": dict(sorted(by_classification.items())),
        "by_template": {
            name: dict(sorted(counts.items()))
            for name, counts in sorted(by_template.items())
        },
        "precision_by_template": precision_by_template,
        "unknown_reasons": dict(sorted(unknown_reasons.items())),
        "evidence": {
            "transmit_confirmed": confirmed,
            "transmit_but_clean": clean,
            "safe_but_leaks": leaks,
            "precision": precision,
            "recall": recall,
        },
        "disagreement_targets": total_targets,
        "soundness_targets": soundness_targets,
        "minimized": minimized_count,
        "minimize_skipped": minimize_skipped,
        "minimize_checks": total_checks,
        "corpus_entries": len(corpus_index),
        "failed_cells": failed_cells,
        "missing_verdicts": sum(1 for v in verdicts if v is None),
    }
