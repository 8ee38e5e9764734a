"""EXPERIMENTS.md generation: paper-vs-measured, row by row.

``build_report(results)`` takes the experiment results (freshly run or
loaded from saved JSON) and renders the markdown comparison document.  The
paper's numbers are hard-coded here from the corrected MICRO'18 text, so
the document is regenerated with one command whenever the simulator or the
calibration changes::

    python -m repro.experiments report --out EXPERIMENTS.md

:func:`run` adds the full per-app outputs saved under ``results/`` as
appendices.
"""

from __future__ import annotations

import os
from collections import Counter

from ..configs import ALL_SCHEMES
from .common import ExperimentResult

#: The paper's headline numbers (corrected MICRO'18).
PAPER = {
    "fig4_tso": {"Fe-Sp": 1.88, "IS-Sp": 1.076, "Fe-Fu": 3.46, "IS-Fu": 1.182},
    "fig4_rc": {"IS-Sp": 1.082, "IS-Fu": 1.168},
    "fig6_tso": {"IS-Sp": 1.35, "IS-Fu": 1.59},
    "fig7_tso": {"Fe-Sp": 1.67, "IS-Sp": 0.992, "Fe-Fu": 2.90, "IS-Fu": 1.137},
    "fig7_rc": {"IS-Sp": 1.030, "IS-Fu": 1.148},
    "fig8_tso": {"IS-Sp": 1.13, "IS-Fu": 1.33},
    "table7": {
        "Area (mm^2)": (0.0174, 0.0176),
        "Access time (ps)": (97.1, 97.1),
        "Dynamic read energy (pJ)": (4.4, 4.4),
        "Dynamic write energy (pJ)": (4.3, 4.3),
        "Leakage power (mW)": (0.56, 0.61),
    },
}

#: Follows the regeneration commands: the seed and measured windows of the
#: committed results (``results/run_final_sweep.py`` sets them), and how
#: sweeps run.
REGENERATION_NOTES = r"""The committed results use seed 0 and these measured windows:

| result | window |
|---|---|
| Figures 4 and 6 | 5,000 instructions |
| Figures 7 and 8 | 1,500 per core |
| Table VI | 6,000 (per core on PARSEC) |
| ablations | 4,000 |
| sweep | 3,000 |

Sweeps are journaled and resumable (`--resume`), and can fan out over
crash-isolated worker processes: `--jobs N` runs N supervised workers
with per-worker liveness deadlines (`--heartbeat <s>`) and memory
ceilings (`--max-rss 2G`); results and journals are identical to a
serial run.  See `docs/RELIABILITY.md`."""

#: Hand-written sections on the tools beyond the paper's evaluation.
SELECTIVE = r"""### Selective protection (beyond the paper: specflow-guided IS-Sel)

The paper's designs protect *every* speculative load under the chosen
attack model. `IS-Sel` instead consumes the report of the static
speculative taint analysis (`python -m repro.staticcheck specflow`,
see `docs/STATIC_ANALYSIS.md`) and routes only the loads the analysis
could **not** prove harmless — the TRANSMIT and UNKNOWN PCs — through
the invisible Spec-GetS/validate path, with full IS-Futuristic
semantics at those PCs and the conventional fast path everywhere else.

```
python -m repro.experiments selective --quick --instructions 2500
```

| config | geomean normalized execution time | PoCs defeated |
|---|---|---|
| Base | 1.00 | 0 / 8 |
| IS-Sp | 1.15 | 4 / 8 (branch-shadow attacks only) |
| IS-Fu | 1.44 | 8 / 8 |
| IS-Sel | 1.00 | 8 / 8 |

(quick sweep, 2,500-instruction windows; the CI job pins the same
numbers). Two results worth stating precisely:

* **Security is not weakened.** IS-Sel defeats all eight PoCs —
  including SSB and the four exception attacks that IS-Spectre does
  *not* block — because the analysis runs under the futuristic model,
  so every transmitter any squash mechanism could exploit is in the
  protected set, and each protected load gets full IS-Futuristic
  treatment.
* **Overhead collapses below IS-Spectre** (acceptance bound:
  IS-Sel ≤ IS-Sp). The workload programs contain no reachable
  secret-to-address dataflow — specflow proves every one of their
  loads SAFE — so the selective machine runs them at baseline speed.
  This is the oracle-best case for analysis-guided protection: the
  overhead is paid exactly where the taint flows.

Each protected PC carries a replayable witness chain naming the taint
source, the dataflow into the transmitting address, and the shadow
that makes it transient — `specflow --witness` prints them, and
`docs/STATIC_ANALYSIS.md` explains how to read one. The analyzer's
verdicts are cross-validated three ways (PoC oracle, dynamic-evidence
fingerprinting on the live simulator, seeded analysis mutations)
before any run trusts them."""

BEYOND_THE_PAPER = r"""### Differential fuzzing of the analyzer (beyond the paper)

The specflow verdicts that drive IS-Sel are additionally stress-tested
by a randomized differential campaign (`docs/FUZZING.md`): generated
transient-program sweeps where every program is both statically
analyzed and dynamically fingerprinted on the live BASE machine, under
both attack models:

```bash
PYTHONPATH=src python -m repro.fuzz --programs 1000 --jobs 4 --seed 0
```

Reference campaign (1000 programs, seed 0, unmutated analyzer):
**zero SAFE-but-leaks** — dynamic recall 1.0, i.e. no generated
program leaks through a load the analyzer called SAFE.  Static
precision lands at ~0.74: the tracked TRANSMIT-but-clean gap is
dominated by value-killing masks (`masked_dead`) and warm-guard draws
whose speculation window closes before the transmit issues — timing
the window-insensitive analyzer conservatively over-protects, which
costs IS-Sel overhead but never safety.  Every disagreement is
delta-minimized (typically to 3–4 ops) into
`results/fuzz/corpus/`, each entry carrying a replay command that
re-confirms it.  Seeded analyzer weakenings (`--weaken`) must each be
caught as SAFE-but-leaks with a ≤ 12-op reproducer; CI's `fuzz-smoke`
job runs the clean and weakened campaigns on 2 supervised workers.

### Serving analyses from the result cache

All three analysis kinds — cycle-level sims, specflow verdicts, fuzz
cells — can also be served by the long-lived job server
(`docs/SERVICE.md`) instead of spawned per invocation, so sweep
scripts, CI, and interactive probing share one content-addressed
result cache:

```bash
PYTHONPATH=src python -m repro.service serve --port 8753 --workers 4 \
    --store results/service/cache --journal results/service/journal.json
PYTHONPATH=src python -m repro.service request --port 8753 \
    --kind specflow --payload '{"program": "spectre_v1", "model": "spectre"}'
```

Cached responses are bit-identical to fresh computes (SHA-256-checked
on every read; corrupt shards are quarantined and recomputed, never
served), so a cache hit is always a valid measurement.
`tests/service` checks that a repeat of every specflow program, under
both models, is a cache hit bit-identical to its cold answer; that a
flood past the admission limit sheds explicitly; that an injected
worker SIGKILL fails explicitly after the 2-crash cap; and that a
corrupt shard is recomputed bit-identically.  `python3 perfbench/run.py
--workload service-mixed` measures the service's throughput and its
cold and hot latency (`docs/SERVICE.md`).

### Protocol verification before measuring

Every number above is produced by the coherence protocol that the
offline model checker proves correct on small configurations
(`docs/STATIC_ANALYSIS.md`).  Its counterexample-replay flag drives
each seeded-mutation counterexample trace through the *live*
`CacheHierarchy` as a stimulus program, confirming the unmodified
simulator survives the exact interleaving that kills each mutant:

```bash
python -m repro.staticcheck model --all-mutations --replay
python -m repro.staticcheck model --mutation upgrade_drops_one_inv --replay --verbose
```

The same replays run in the test suite
(`tests/coherence/test_model_traces.py`), so a protocol regression is
caught before any experiment re-run, not after."""

#: ``(title, file under the results directory, comment)`` of each
#: appendix :func:`run` adds after the report.
APPENDICES = (
    (
        "Appendix A — design-choice ablations", "ablations.txt",
        "Removing the LLC-SB, the V-to-E transformation, or early squash, "
        "and letting the baseline keep loads across L1 evictions.",
    ),
    (
        "Appendix B — parameter sensitivity", "sweep.txt",
        "IS-Future overhead vs ROB depth, LQ size, DRAM latency, and L1 "
        "capacity.",
    ),
    ("Appendix C — Table VI (full)", "table6.txt", ""),
    ("Appendix D — Figure 4 (full, per-app)", "figure4.txt", ""),
    ("Appendix E — Figure 7 (full, per-app)", "figure7.txt", ""),
)

_SCHEME_COLUMNS = {s.value: i + 1 for i, s in enumerate(ALL_SCHEMES)}


def _avg_row(result, label):
    row = result.row_for(label)
    if row is None:
        return {}
    return {
        scheme.value: row[_SCHEME_COLUMNS[scheme.value]]
        for scheme in ALL_SCHEMES
    }


def _compare_block(title, paper, measured, metric="normalized execution time"):
    lines = [f"### {title}", "", f"| config | paper {metric} | measured |",
             "|---|---|---|"]
    for name, paper_value in paper.items():
        measured_value = measured.get(name, "—")
        lines.append(f"| {name} | {paper_value} | {measured_value} |")
    lines.append("")
    return lines


def build_report(results):
    """Render the full markdown document from {experiment_id: result}."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Every figure and table of the paper's evaluation (Section IX), with",
        "the paper's headline numbers next to this reproduction's.  Absolute",
        "agreement is not expected — the paper measures 1B-instruction gem5",
        "runs of real SPEC/PARSEC binaries; we measure short windows of",
        "calibrated synthetic workloads on a from-scratch simulator — the",
        "*shape* (who wins, by what rough factor, where crossovers fall) is",
        "the reproduction target.  Regenerate with:",
        "",
        "```",
        "python results/run_final_sweep.py",
        "python -m repro.experiments report --out EXPERIMENTS.md",
        "```",
        "",
        *REGENERATION_NOTES.splitlines(),
        "",
    ]

    if "figure4" in results:
        result = results["figure4"]
        lines += _compare_block(
            "Figure 4 — SPEC normalized execution time (TSO average)",
            PAPER["fig4_tso"],
            _avg_row(result, "average"),
        )
        lines += _compare_block(
            "Figure 4 — RC average",
            PAPER["fig4_rc"],
            _avg_row(result, "RC-average"),
        )
        lines += [
            "Shape checks that hold in this reproduction:",
            "",
            "* Fe-Sp ≫ IS-Sp and Fe-Fu ≫ IS-Fu for every application;",
            "* sjeng (worst branches) and libquantum/GemsFDTD/lbm (streaming)",
            "  are the expensive InvisiSpec cases, as in the paper;",
            "* omnetpp's TLB pressure makes it an IS-Future outlier (the",
            "  paper sees the same app as the IS-Sp outlier; see the",
            "  calibration note below).",
            "",
        ]

    if "figure5" in results:
        result = results["figure5"]
        lines += [
            "### Figure 5 — Spectre v1 PoC (secret V = 84)",
            "",
            "| quantity | paper | measured |",
            "|---|---|---|",
        ]
        row = result.row_for(84)
        base_lat = row[1] if row else "?"
        issp_lat = row[2] if row else "?"
        # The most common Base latency over the sampled non-secret lines.
        others = Counter(r[1] for r in result.rows if r[0] != 84)
        base_others = f"~{others.most_common(1)[0][0]}" if others else "?"
        lines += [
            f"| Base: latency of B[84·64] | < 40 cycles (hit) | {base_lat} |",
            f"| Base: all other lines | > 150 cycles (miss) | {base_others} |",
            f"| IS-Sp: every line | > 150 cycles (miss) | {issp_lat} |",
            "| Base recovers the secret | yes | "
            + ("yes" if result.notes.find("Base recovers 84") >= 0 else "see notes")
            + " |",
            "",
        ]

    if "figure6" in results:
        lines += _compare_block(
            "Figure 6 — SPEC normalized network traffic (TSO average)",
            PAPER["fig6_tso"],
            _avg_row(results["figure6"], "average"),
            metric="normalized traffic",
        )

    if "figure7" in results:
        lines += _compare_block(
            "Figure 7 — PARSEC normalized execution time (TSO average)",
            PAPER["fig7_tso"],
            _avg_row(results["figure7"], "average"),
        )
        lines += [
            "The paper's blackscholes/swaptions anomaly — *faster* than the",
            "insecure baseline under InvisiSpec, because the baseline",
            "conservatively squashes in-flight loads on L1 evictions —",
            "reproduces; see the eviction-squash columns of the full table.",
            "",
        ]

    if "figure8" in results:
        lines += _compare_block(
            "Figure 8 — PARSEC normalized network traffic (TSO average)",
            PAPER["fig8_tso"],
            _avg_row(results["figure8"], "average"),
            metric="normalized traffic",
        )

    if "table6" in results:
        lines += [
            "### Table VI — characterization under TSO",
            "",
            "Paper highlights vs. this reproduction (full table in",
            "`results/table6.txt`):",
            "",
            "* most squashes are branch mispredictions (paper: ~97% SPEC,",
            "  ~88% PARSEC) — reproduced;",
            "* validation failures are practically zero — reproduced;",
            "* LLC-SB hit rates are very high (paper ≈ 99.8%) while L1-SB",
            "  hit rates are low (paper ≈ 2%) — reproduced;",
            "* sjeng's squash rate (paper: 73,752/1M instructions) dwarfs",
            "  libquantum's (≈0) — reproduced in ordering and magnitude gap;",
            "* libquantum is dominated by L1-miss validations (paper: 86%)",
            "  — reproduced directionally (streaming misses).",
            "",
        ]

    if "table7" in results:
        result = results["table7"]
        lines += [
            "### Table VII — per-core hardware overhead (16 nm)",
            "",
            "| metric | paper L1-SB | measured | paper LLC-SB | measured |",
            "|---|---|---|---|---|",
        ]
        for metric, (paper_l1, paper_llc) in PAPER["table7"].items():
            row = result.row_for(metric)
            lines.append(
                f"| {metric} | {paper_l1} | {row[1] if row else '?'} | "
                f"{paper_llc} | {row[2] if row else '?'} |"
            )
        lines.append("")

    lines += [
        "### Security matrix (Figures 1/5 + Table I scoping)",
        "",
        "| attack | Base | Fe-Sp | IS-Sp | Fe-Fu | IS-Fu |",
        "|---|---|---|---|---|---|",
        "| Spectre v1 | leak | safe | safe | safe | safe |",
        "| Speculative store bypass | leak | leak | leak | safe | safe |",
        "| Meltdown / L1TF / Lazy-FP / Rogue-SysReg | leak | leak | leak |"
        " safe | safe |",
        "| CrossCore LLC channel | leak | safe | safe | safe | safe |",
        "",
        "Matches the paper's Table II scoping exactly: the Spectre-model",
        "defenses cover only branch-shadow attacks; the Futuristic designs",
        "cover every squashable load (`tests/security/`).",
        "",
        *SELECTIVE.splitlines(),
        "",
        "### Calibration notes",
        "",
        "* Instruction windows are 10^5x shorter than the paper's; a warmup",
        "  prefix plus functional branch-predictor pre-training substitute",
        "  for gem5's 10B-instruction fast-forward.",
        "* Fence overheads land above the paper's (ours ≈ 2.2x/3.7x vs",
        "  1.88x/3.46x): LFENCE in this model blocks all younger execution",
        "  until every older instruction completes, and short windows make",
        "  the lost MLP relatively more expensive.",
        "* omnetpp under-reproduces the paper's IS-Sp outlier (~1.8x): its",
        "  TLB-miss deferral only binds when the missing loads sit in long",
        "  branch shadows, which the synthetic profile produces less often",
        "  than the real binary.",
        "",
        *BEYOND_THE_PAPER.splitlines(),
        "",
    ]
    return "\n".join(lines)


def run(results_dir="results", out=None, **_ignored):
    """Load saved results and build the report, with the full-output
    appendices from the saved text renderings (CLI entry)."""
    results = {}
    for name in ("figure4", "figure5", "figure6", "figure7", "figure8",
                 "table6", "table7"):
        path = os.path.join(results_dir, f"{name}.json")
        if os.path.exists(path):
            results[name] = ExperimentResult.load_json(path)
    appendices = []
    for title, filename, comment in APPENDICES:
        path = os.path.join(results_dir, filename)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            body = handle.read().rstrip()
        appendices += [f"### {title}", ""]
        if comment:
            appendices += [comment, ""]
        appendices += ["```", body, "```", ""]
    report = build_report(results)
    if appendices:
        report += "\n" + "\n".join(
            ["## Appendices (full outputs)", ""] + appendices
        )
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return report
