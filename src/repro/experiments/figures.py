"""Figures 4, 6, 7 and 8: normalized execution time and network traffic.

Figures 4 and 6 are the execution time and the network traffic of the
same SPEC runs, and Figures 7 and 8 the same two measures of the PARSEC
runs (8 cores on the 4x2 mesh).  So each suite's cell matrix — apps x the
five Table V configurations under TSO, plus RC for the RC-average row —
runs once (:func:`run_matrix`), and each figure is a :class:`View` of it
(:func:`render`): the metric normalized to the insecure baseline, two
extra columns per app, and the TSO and RC averages.

* Figure 4 adds the fraction of time lost to validation stalls for the
  InvisiSpec configurations (the "ValidationStall" overlay in the
  paper's bars).
* Figures 6 and 8 break the InvisiSpec traffic into the share of
  speculative loads (SpecLoad) and of exposures/validations.
* Figure 7 adds the consistency squashes per 1k instructions.  The
  paper's highlighted result — blackscholes and swaptions running
  *faster* under InvisiSpec than under the baseline, because the
  baseline conservatively squashes in-flight loads on L1 evictions —
  reproduces here.

A failed cell renders as the :data:`~repro.experiments.common.GAP`
marker and is left out of the averages.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..configs import ALL_SCHEMES, ConsistencyModel, ProcessorConfig, Scheme
from ..reliability import CellSpec, is_ok
from .common import (
    GAP,
    ExperimentResult,
    default_apps,
    gap_round,
    mean_available,
    normalized,
    run_cells,
)

_TSO, _RC = ConsistencyModel.TSO, ConsistencyModel.RC


def run_matrix(suite, apps=None, instructions=None, seed=0, quick=False,
               include_rc=True, engine=None, sanitize=None):
    """Run a suite's cell matrix in one batch.

    Returns ``{consistency: {app: {scheme: result}}}``, TSO first, with a
    :class:`~repro.reliability.CellFailure` for each failed cell.  The
    cells run in the order TSO then RC, app by app, scheme by scheme.
    ``sanitize`` (``"strict"`` or ``"record"``) runs every cell under the
    runtime invariant sanitizer; a cell with a violation fails, unretried.
    """
    apps = default_apps(suite, apps, quick)
    models = (_TSO, _RC) if include_rc else (_TSO,)
    specs = [
        CellSpec(
            suite, app, ProcessorConfig(scheme=scheme, consistency=model),
            seed=seed, instructions=instructions, sanitize=sanitize,
        )
        for model in models
        for app in apps
        for scheme in ALL_SCHEMES
    ]
    matrix = {model: {app: {} for app in apps} for model in models}
    for spec, result in zip(specs, run_cells(specs, engine)):
        config = spec.config
        matrix[config.consistency][spec.app][config.scheme] = result
    return matrix


@dataclass(frozen=True)
class View:
    """One figure: which metric of the matrix, and its two extra columns."""

    experiment_id: str
    suite: str
    title: str
    metric: str  # a result attribute: "cycles" or "traffic_bytes"
    extra_headers: tuple
    extras: object  # {scheme: result} of one app -> its two extra cells
    notes: str


def render(view, matrix):
    """The :class:`ExperimentResult` of ``view`` over ``matrix``.

    Rows are ``[app, Base, Fe-Sp, IS-Sp, Fe-Fu, IS-Fu, extra, extra]``
    for each app under TSO, then the ``average`` row, then the
    ``RC-average`` row when the matrix holds RC.
    """
    rows = []
    for model, label in ((_TSO, "average"), (_RC, "RC-average")):
        if model not in matrix:
            continue
        norms = {scheme: [] for scheme in ALL_SCHEMES}
        for app, cells in matrix[model].items():
            norm = normalized(cells, lambda r: getattr(r, view.metric))
            for scheme in ALL_SCHEMES:
                norms[scheme].append(norm[scheme])
            if model is _TSO:
                rows.append(
                    [app]
                    + [gap_round(norm[s]) for s in ALL_SCHEMES]
                    + view.extras(cells)
                )
        rows.append(
            [label]
            + [round(mean_available(norms[s]), 3) for s in ALL_SCHEMES]
            + ["", ""]
        )
    headers = ["app"] + [s.value for s in ALL_SCHEMES]
    return ExperimentResult(
        view.experiment_id, view.title, headers + list(view.extra_headers),
        rows, notes=view.notes,
    )


def _stall_fractions(cells):
    def fraction(result):
        if not is_ok(result):
            return None
        return result.count("invisispec.validation_stall_cycles") / max(
            result.cycles, 1
        )

    return [
        gap_round(fraction(cells[Scheme.IS_SPECTRE]), 4),
        gap_round(fraction(cells[Scheme.IS_FUTURE]), 4),
    ]


def _traffic_breakdowns(cells):
    def breakdown(result):
        if not is_ok(result):
            return GAP
        split = result.traffic_breakdown
        total = max(sum(split.values()), 1)
        spec = split["specload"] / total
        val = split["expose_validate"] / total
        return f"{spec:.0%}/{val:.0%}"

    return [
        breakdown(cells[Scheme.IS_SPECTRE]),
        breakdown(cells[Scheme.IS_FUTURE]),
    ]


def _consistency_squashes(cells):
    def per_k(result, include_evictions):
        if not is_ok(result):
            return None
        events = result.count("core.squashes.consistency")
        if include_evictions:
            events += result.count("core.eviction_squashes")
        return 1000.0 * events / max(result.instructions, 1)

    return [
        gap_round(per_k(cells[Scheme.BASE], include_evictions=True), 2),
        gap_round(per_k(cells[Scheme.IS_FUTURE], include_evictions=False), 2),
    ]


_TRAFFIC_HEADERS = ("IS-Sp spec/val%", "IS-Fu spec/val%")

FIGURE4 = View(
    "figure4", "spec", "Figure 4: normalized execution time (SPEC)",
    "cycles", ("IS-Sp valstall", "IS-Fu valstall"), _stall_fractions,
    "Paper (TSO averages): Base=1.00, Fe-Sp=1.88, IS-Sp=1.076, "
    "Fe-Fu=3.46, IS-Fu=1.182; RC averages: IS-Sp=1.082, IS-Fu=1.168.\n"
    "Expected shape: Fe >> IS >= Base for both attack models.",
)
FIGURE6 = View(
    "figure6", "spec", "Figure 6: normalized network traffic (SPEC)",
    "traffic_bytes", _TRAFFIC_HEADERS, _traffic_breakdowns,
    "Paper (TSO averages): IS-Sp=1.35, IS-Fu=1.59; fence traffic is "
    "about Base's (less data traffic, more wrong-path instruction "
    "fetch).  High-misprediction apps (sjeng) show a large SpecLoad "
    "share from re-issued squashed USLs.",
)
FIGURE7 = View(
    "figure7", "parsec",
    "Figure 7: normalized execution time (PARSEC, 8 cores)",
    "cycles", ("Base consist-squash/1k", "IS-Fu consist-squash/1k"),
    _consistency_squashes,
    "Paper (TSO averages): Fe-Sp=1.67, IS-Sp=0.992, Fe-Fu=2.90, "
    "IS-Fu=1.137; several PARSEC apps beat Base under InvisiSpec "
    "because the baseline conservatively squashes performed loads on "
    "invalidations/evictions while InvisiSpec rides them out with "
    "exposures and validations (compare the consistency-squash "
    "columns).",
)
FIGURE8 = View(
    "figure8", "parsec", "Figure 8: normalized network traffic (PARSEC)",
    "traffic_bytes", _TRAFFIC_HEADERS, _traffic_breakdowns,
    "Paper (TSO averages): IS-Sp=1.13, IS-Fu=1.33; fence configurations "
    "move *less* data than Base (no speculative data accesses), "
    "blackscholes/swaptions drop below 1.0 even for InvisiSpec.",
)


def _experiment(view):
    def run(apps=None, instructions=None, seed=0, quick=False,
            include_rc=True, engine=None, sanitize=None, **_ignored):
        return render(view, run_matrix(
            view.suite, apps, instructions, seed, quick, include_rc,
            engine, sanitize,
        ))

    run.__name__ = run.__qualname__ = view.experiment_id
    run.__doc__ = f"Simulate the {view.suite} matrix and render {view.title}."
    return run


#: The figures by experiment name; views of one suite share its matrix.
VIEWS = {
    view.experiment_id: view for view in (FIGURE4, FIGURE6, FIGURE7, FIGURE8)
}

figure4 = _experiment(FIGURE4)
figure6 = _experiment(FIGURE6)
figure7 = _experiment(FIGURE7)
figure8 = _experiment(FIGURE8)
