"""Table VI: characterization of InvisiSpec's operation under TSO.

Per application (and suite average), for IS-Spectre and IS-Future:

* the split of visibility transactions into exposures, L1-hit validations
  and L1-miss validations;
* squashes per million instructions and the squash-reason breakdown
  (branch misprediction / consistency violation / validation failure);
* the L1-SB hit rate (Section V-E reuse) and the LLC-SB hit rate.
"""

from __future__ import annotations

from ..configs import ProcessorConfig, Scheme
from ..reliability import CellSpec, is_ok
from .common import (
    GAP,
    ExperimentResult,
    arithmetic_mean,
    default_apps,
    run_cells,
)

_SCHEMES = (Scheme.IS_SPECTRE, Scheme.IS_FUTURE)

_SQUASH_REASONS = {
    "branch": ("core.squashes.branch",),
    "consistency": (
        "core.squashes.consistency",
        "core.squashes.store_alias",
        "core.squashes.interrupt",
        "core.squashes.exception",
    ),
    "validation": ("core.squashes.validation_fail",),
}


def characterize(result):
    """Extract one scheme's Table VI column set from a cell's result."""
    exposures = result.count("invisispec.exposures")
    val_hit = result.count("invisispec.validations_l1_hit")
    val_miss = result.count("invisispec.validations_l1_miss")
    total_visibility = max(exposures + val_hit + val_miss, 1)

    squashes = {
        name: sum(result.count(counter) for counter in counters)
        for name, counters in _SQUASH_REASONS.items()
    }
    total_squashes = sum(squashes.values())
    instructions = max(result.instructions, 1)

    sb_hits = result.count("invisispec.sb_hits")
    sb_misses = result.count("invisispec.sb_misses")
    llc_hits = result.count("invisispec.llc_sb_hits")
    llc_misses = result.count("invisispec.llc_sb_misses")

    return {
        "exposures_pct": 100.0 * exposures / total_visibility,
        "val_l1_hit_pct": 100.0 * val_hit / total_visibility,
        "val_l1_miss_pct": 100.0 * val_miss / total_visibility,
        "squashes_per_m": 1e6 * total_squashes / instructions,
        "squash_branch_pct": 100.0 * squashes["branch"] / max(total_squashes, 1),
        "squash_consistency_pct": 100.0
        * squashes["consistency"]
        / max(total_squashes, 1),
        "squash_validation_pct": 100.0
        * squashes["validation"]
        / max(total_squashes, 1),
        "l1_sb_hit_rate_pct": 100.0 * sb_hits / max(sb_hits + sb_misses, 1),
        "llc_sb_hit_rate_pct": 100.0 * llc_hits / max(llc_hits + llc_misses, 1),
    }


_COLUMNS = [
    ("exposures_pct", "%Exp"),
    ("val_l1_hit_pct", "%L1hitVal"),
    ("val_l1_miss_pct", "%L1missVal"),
    ("squashes_per_m", "Squash/1M"),
    ("squash_branch_pct", "%Branch"),
    ("squash_consistency_pct", "%Consist"),
    ("squash_validation_pct", "%ValFail"),
    ("l1_sb_hit_rate_pct", "L1SB-hit%"),
    ("llc_sb_hit_rate_pct", "LLCSB-hit%"),
]


def run(
    spec_apps=("sjeng", "libquantum", "omnetpp"),
    parsec_apps=("bodytrack", "fluidanimate", "swaptions"),
    instructions=None,
    seed=0,
    quick=False,
    engine=None,
    **_ignored,
):
    """Regenerate Table VI (IS-Sp and IS-Fu under TSO).

    The two average rows of each suite average over its listed apps.  A
    failed cell renders as a row of gaps and is dropped from the
    averages.
    """
    rows = []
    per_app = {}
    spec_list = default_apps("spec", spec_apps, quick)
    parsec_list = default_apps("parsec", parsec_apps, quick)

    # All cells of the table, batched through the engine in one call so
    # ``--jobs N`` can fan them out over the supervisor's worker pool.
    cells = [
        CellSpec(
            suite, app, ProcessorConfig(scheme=scheme),
            seed=seed, instructions=instructions,
        )
        for suite, apps in (("spec", spec_list), ("parsec", parsec_list))
        for app in apps
        for scheme in _SCHEMES
    ]
    results = {
        (spec.suite, spec.app, spec.config.scheme): result
        for spec, result in zip(cells, run_cells(cells, engine))
    }

    def add_rows(suite, apps):
        stats = {}
        for app in apps:
            app_stats = {}
            for scheme in _SCHEMES:
                result = results[(suite.lower(), app, scheme)]
                app_stats[scheme] = (
                    characterize(result) if is_ok(result) else None
                )
            stats[app] = app_stats
            for scheme in _SCHEMES:
                cell_stats = app_stats[scheme]
                rows.append(
                    [f"{app} ({scheme.value})"]
                    + [
                        round(cell_stats[key], 1) if cell_stats else GAP
                        for key, _ in _COLUMNS
                    ]
                )
        for scheme in _SCHEMES:
            rows.append(
                [f"{suite}-average ({scheme.value})"]
                + [
                    round(
                        arithmetic_mean(
                            [
                                stats[a][scheme][key]
                                for a in apps
                                if stats[a][scheme] is not None
                            ]
                        ),
                        1,
                    )
                    for key, _ in _COLUMNS
                ]
            )
        per_app.update(stats)

    add_rows("SPEC", spec_list)
    add_rows("PARSEC", parsec_list)

    headers = ["app (scheme)"] + [label for _, label in _COLUMNS]
    notes = (
        "Paper highlights: most squashes are branch mispredictions; "
        "validation failures are practically zero; L1-SB hit rates are low "
        "(~2%) while LLC-SB hit rates are ~99%+; libquantum has ~86% "
        "L1-miss validations (streaming)."
    )
    return ExperimentResult(
        "table6",
        "Table VI: InvisiSpec characterization under TSO",
        headers,
        rows,
        notes=notes,
        extras={"per_app": per_app},
    )
