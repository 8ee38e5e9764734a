"""Seed-variance study.

The paper's runs are long enough that workload variance is negligible; our
windows are short, so the synthetic-workload seed matters.  This experiment
quantifies it: the IS overheads across seeds, as mean +/- sample standard
deviation, for a representative app set.  It is the error bar to keep in
mind when reading the reproduced figures.
"""

from __future__ import annotations

from ..configs import ProcessorConfig, Scheme
from ..reliability import CellSpec
from .common import ExperimentResult, mean_std, normalized, run_cells

_SCHEMES = (Scheme.BASE, Scheme.IS_SPECTRE, Scheme.IS_FUTURE)


def run(apps=("mcf", "sjeng", "libquantum", "hmmer"), instructions=2500,
        seeds=(0, 1, 2), quick=False, engine=None, **_ignored):
    """Overhead mean +/- std across seeds for IS-Sp and IS-Fu.

    Base runs once per (app, seed) and anchors both overheads; a failed
    cell drops that seed from the app's statistics.
    """
    if quick:
        apps = apps[:2]
        seeds = seeds[:2]
    specs = [
        CellSpec(
            "spec", app, ProcessorConfig(scheme=scheme),
            seed=seed, instructions=instructions,
        )
        for app in apps
        for seed in seeds
        for scheme in _SCHEMES
    ]
    results = dict(zip(
        ((spec.app, spec.seed, spec.config.scheme) for spec in specs),
        run_cells(specs, engine),
    ))
    headers = ["app", "IS-Sp mean", "IS-Sp std", "IS-Fu mean", "IS-Fu std"]
    rows = []
    for app in apps:
        norms = [
            normalized(
                {scheme: results[(app, seed, scheme)] for scheme in _SCHEMES},
                lambda r: r.cycles,
            )
            for seed in seeds
        ]
        row = [app]
        for scheme in _SCHEMES[1:]:
            present = [n[scheme] for n in norms if n[scheme] is not None]
            row += [round(value, 3) for value in mean_std(present)]
        rows.append(row)
    notes = (
        f"{len(seeds)} seeds x {instructions} measured instructions.  "
        "Standard deviations of a few percent are expected at this scale; "
        "the scheme orderings in Figures 4/7 are stable across seeds."
    )
    return ExperimentResult(
        "variance", "Seed variance of the InvisiSpec overheads",
        headers, rows, notes=notes,
    )
