"""Analysis-guided selective protection: the specflow loop closed.

``Scheme.SELECTIVE`` (IS-Sel) routes only the loads the speculative
taint analysis could not prove harmless — the TRANSMIT and UNKNOWN PCs
of :mod:`repro.specflow` — through the InvisiSpec USL path, with full
IS-Future semantics on every protected PC.  Everything the analysis
proved SAFE issues down the conventional fast path.

The experiment regenerates the Figure 4 comparison with IS-Sel as a
sixth bar, and re-runs every attack PoC under IS-Sel.  Acceptance:

* every PoC stays defeated (the protected set contains each PoC's
  transmitter, so its line never leaves the speculative buffer);
* the SPEC overhead of IS-Sel is at most IS-Spectre's (the workload
  programs analyze all-SAFE, so selective protection leaves the hot
  path untouched while IS-Spectre still pays USL costs on every
  branch-shadowed load).
"""

from __future__ import annotations

from ..configs import ProcessorConfig, Scheme
from ..reliability import CellSpec
from ..security import POCS
from ..specflow import analyze_program, all_programs, protected_pcs
from .common import (
    ExperimentResult,
    default_apps,
    gap_round,
    geometric_mean,
    normalized,
    run_cells,
)

#: the schemes compared in the IS-Sel bar chart
_SCHEMES = (Scheme.BASE, Scheme.IS_SPECTRE, Scheme.IS_FUTURE,
            Scheme.SELECTIVE)


def compute_protected_pcs(seed=0, window=64, precision="full"):
    """The union of every program's non-SAFE PCs under the futuristic
    model — the PC set an IS-Sel deployment would ship.  ``precision``
    selects the specflow domain: ``"full"`` (v2) or ``"taint"`` (the v1
    pure-taint baseline the precision comparison is made against)."""
    pcs = set()
    for prog in all_programs(seed=seed):
        report = analyze_program(
            prog, model="futuristic", window=window, precision=precision
        )
        pcs |= protected_pcs(report)
    return frozenset(pcs)


def run(apps=None, instructions=None, seed=0, quick=False, engine=None,
        **_ignored):
    """Returns an :class:`ExperimentResult` whose rows are
    ``[app, Base, IS-Sp, IS-Fu, IS-Sel]`` (cycles normalized to Base),
    with the geometric-mean row and the PoC-defeat matrix in the notes.
    A failed cell renders as a gap and is left out of the geomeans.

    The shipped protected set comes from specflow v2 (full precision);
    the v1 pure-taint set is recomputed alongside it so the precision
    win lands in the output: v2 must protect a strict subset of v1's
    PCs while the PoC matrix stays all-defeated.
    """
    protected = compute_protected_pcs(seed=seed)
    protected_v1 = compute_protected_pcs(seed=seed, precision="taint")
    apps = default_apps("spec", apps, quick)
    specs = [
        CellSpec(
            "spec", app,
            ProcessorConfig(
                scheme=scheme,
                protected_pcs=protected if scheme is Scheme.SELECTIVE
                else frozenset(),
            ),
            seed=seed, instructions=instructions,
        )
        for app in apps
        for scheme in _SCHEMES
    ]
    results = {app: {} for app in apps}
    for spec, result in zip(specs, run_cells(specs, engine)):
        results[spec.app][spec.config.scheme] = result

    headers = ["app"] + [s.value for s in _SCHEMES]
    rows = []
    norms = {scheme: [] for scheme in _SCHEMES}
    for app in apps:
        norm = normalized(results[app], lambda r: r.cycles)
        for scheme in _SCHEMES:
            norms[scheme].append(norm[scheme])
        rows.append([app] + [gap_round(norm[s]) for s in _SCHEMES])
    means = {
        s: geometric_mean([n for n in norms[s] if n is not None])
        for s in _SCHEMES
    }
    rows.append(["geomean"] + [round(means[s], 3) for s in _SCHEMES])

    sel_config = ProcessorConfig(
        scheme=Scheme.SELECTIVE, protected_pcs=protected
    )
    defeated = {
        poc.name: poc.run(sel_config, secret=poc.secret)[1] != poc.secret
        for poc in POCS
    }

    poc_lines = "\n".join(
        f"  {name}: {'defeated' if ok else 'LEAKED'}"
        for name, ok in sorted(defeated.items())
    )
    sel_ok = means[Scheme.SELECTIVE] <= means[Scheme.IS_SPECTRE] + 1e-9
    subset_ok = protected < protected_v1
    saved = sorted(f"0x{pc:x}" for pc in protected_v1 - protected)
    subset_verdict = (
        "strict subset" if subset_ok else "NOT a strict subset (FAIL)"
    )
    notes = (
        f"Protected PCs (specflow v2, futuristic model): "
        f"{sorted(f'0x{pc:x}' for pc in protected)}\n"
        f"Precision vs v1 (pure taint): v2 protects {len(protected)} "
        f"PCs, v1 protects {len(protected_v1)} ({subset_verdict}); "
        f"v2 discharges {saved}\n"
        f"Acceptance: IS-Sel geomean {means[Scheme.SELECTIVE]:.3f} "
        f"{'<=' if sel_ok else '> (FAIL)'} IS-Sp geomean "
        f"{means[Scheme.IS_SPECTRE]:.3f}\n"
        f"Attack PoCs under IS-Sel:\n{poc_lines}"
    )
    return ExperimentResult(
        "selective",
        "Selective protection: specflow-guided IS-Sel vs. full schemes",
        headers,
        rows,
        notes=notes,
        extras={
            "results": results,
            "protected_pcs": protected,
            "protected_pcs_v1": protected_v1,
            "defeated": defeated,
            "geomeans": means,
        },
    )
