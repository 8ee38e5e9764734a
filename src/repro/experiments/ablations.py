"""Design-choice ablations (DESIGN.md section 4).

Each ablation disables one of InvisiSpec's mechanisms in the setting where
that mechanism actually binds:

1. ``no-llc-sb`` (libquantum, streaming) — every memory-sourced
   validation/exposure pays a second DRAM access.
2. ``no-val-to-exp`` (gamess, cache-friendly) — the Section V-C1
   transformation is what turns some TSO validations into exposures.
3. ``no-early-squash`` (two racing cores) — without Section V-C2, stale
   USLs survive to their validations and fail there instead.
4. ``base-squash-policy`` (canneal, high sharing) — the baseline's
   conservative consistency squashes vs InvisiSpec riding invalidations
   out with validations (the Section IX-C PARSEC discussion).
"""

from __future__ import annotations

from ..configs import ConsistencyModel, ProcessorConfig, Scheme
from ..cpu.isa import MicroOp, OpKind
from ..cpu.trace import ProgramTrace
from ..params import SystemParams
from ..reliability import CellSpec, is_ok
from ..system import System
from .common import GAP, ExperimentResult, gap_round, run_cells


def _row(label, result, baseline):
    """One table row; a failed cell is a row of gaps, and a failed
    baseline leaves its rows' ``norm`` a gap."""
    if not is_ok(result):
        return [label] + [GAP] * 9
    norm = result.cycles / baseline.cycles if is_ok(baseline) else None
    return [
        label,
        result.cycles,
        gap_round(norm),
        result.traffic_bytes,
        result.count("dram.accesses"),
        result.count("invisispec.validations"),
        result.count("invisispec.exposures"),
        result.count("invisispec.early_squash_invalidation"),
        result.count("core.squashes.validation_fail"),
        result.count("core.squashes.consistency"),
    ]


def _racing_run(early_squash, rounds=40):
    """Core 1 stores into the line core 0 keeps reading speculatively."""
    shared = 0x7800_0000
    reader = []
    for i in range(rounds):
        reader.append(MicroOp(OpKind.LOAD, pc=0x100,
                              addr=0x1900_0000 + 64 * i, size=8,
                              deps=(3,) if i else ()))
        reader.append(MicroOp(OpKind.LOAD, pc=0x104, addr=shared, size=8))
        reader.append(MicroOp(OpKind.ALU, pc=0x108, deps=(1,), latency=4))
    writer = []
    for i in range(rounds):
        writer.append(MicroOp(OpKind.ALU, pc=0x200, latency=130,
                              deps=(2,) if i else ()))
        writer.append(MicroOp(OpKind.STORE, pc=0x204, addr=shared, size=8,
                              store_value=i))
    system = System(
        params=SystemParams(num_cores=2),
        config=ProcessorConfig(
            scheme=Scheme.IS_FUTURE,
            consistency=ConsistencyModel.TSO,
            early_squash=early_squash,
        ),
        traces=[ProgramTrace(reader), ProgramTrace(writer)],
    )
    return system.run(max_cycles=2_000_000)


def run(app="libquantum", v2e_app="gamess", parsec_app="canneal",
        instructions=None, seed=0, engine=None, **_ignored):
    """Run the four ablations; returns an :class:`ExperimentResult`.

    The suite cells run in one batch through ``engine``; a failed cell
    renders as gaps.
    """

    def cell(suite, name, scheme=Scheme.IS_FUTURE, **toggles):
        return CellSpec(
            suite, name, ProcessorConfig(scheme=scheme, **toggles),
            seed=seed, instructions=instructions,
        )

    reference, no_llc, v2e_ref, no_v2e, base, invisi = run_cells([
        # 1. LLC-SB: a streaming workload whose USLs come from memory.
        cell("spec", app),
        cell("spec", app, llc_sb_enabled=False),
        # 2. V->E transformation: a cache-friendly workload where older
        # loads complete quickly (the transformation's precondition).
        cell("spec", v2e_app),
        cell("spec", v2e_app, val_to_exp_optimization=False),
        # 4. The baseline's conservative squashes vs InvisiSpec riding
        # them out.
        cell("parsec", parsec_app, scheme=Scheme.BASE),
        cell("parsec", parsec_app),
    ], engine)
    headers = [
        "configuration", "cycles", "norm", "traffic B", "DRAM",
        "vals", "exps", "early-squash", "val fails", "consist squashes",
    ]
    # 3. Early squash: a two-core race on one line (hand-built traces,
    # not a suite app, so it runs here rather than as an engine cell).
    racing_on = _racing_run(early_squash=True)
    racing_off = _racing_run(early_squash=False)
    rows = [
        _row(f"{app} IS-Fu (full design)", reference, reference),
        _row(f"{app} IS-Fu no-llc-sb", no_llc, reference),
        _row(f"{v2e_app} IS-Fu (full design)", v2e_ref, v2e_ref),
        _row(f"{v2e_app} IS-Fu no-val-to-exp", no_v2e, v2e_ref),
        _row("2-core race IS-Fu (early squash)", racing_on, racing_on),
        _row("2-core race IS-Fu no-early-squash", racing_off, racing_on),
        _row(f"{parsec_app} Base (conservative squashes)", base, base),
        _row(f"{parsec_app} IS-Fu (validations instead)", invisi, base),
    ]

    notes = (
        "Expected: (1) no-llc-sb multiplies DRAM accesses and cycles for "
        "streaming USLs; (2) no-val-to-exp moves exposures back into "
        "validations; (3) no-early-squash converts early squashes into "
        "late validation failures; (4) the baseline pays conservative "
        "consistency squashes that InvisiSpec's validations avoid."
    )
    return ExperimentResult(
        "ablations", "Design-choice ablations", headers, rows, notes=notes
    )
