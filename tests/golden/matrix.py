"""The equivalence-gate matrix: small runs whose every counter is pinned.

Each cell is one ``run_spec``/``run_parsec`` call.  Its snapshot holds the
final counters, the warmup snapshot the measured region is taken against
(cycle, counters, NoC traffic) and, per core, the cycle count and retired
instructions.  A hot-path rewrite or refactor
must leave every snapshot bit-identical; ``tests/test_golden_counters.py``
checks that against ``sim_counters.json``, which ``regen.py`` rewrites.

The matrix spans the schemes and consistency models on one core, PARSEC
contention on two and four cores, and the time-driven path no benchmark
exercises: timer interrupts (``interrupt_interval``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections import namedtuple

from repro.configs import ConsistencyModel, ProcessorConfig, Scheme
from repro.params import SystemParams
from repro.runner import run_parsec, run_spec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "sim_counters.json")

SPEC_INSTRUCTIONS = 600
PARSEC_INSTRUCTIONS = 200  # per core
PRETRAIN_OPS = 2_000
SEED = 3

Cell = namedtuple("Cell", "suite app scheme consistency cores params")

_TSO, _RC = ConsistencyModel.TSO, ConsistencyModel.RC
_SCHEMES = (Scheme.BASE, Scheme.IS_SPECTRE, Scheme.IS_FUTURE)

CELLS = tuple(
    Cell("spec", app, scheme, model, 1, ())
    for app in ("mcf", "hmmer")
    for scheme in _SCHEMES
    for model in (_TSO, _RC)
) + tuple(
    Cell("parsec", app, scheme, _TSO, cores, ())
    for app, cores in (("fluidanimate", 2), ("canneal", 4))
    for scheme in (Scheme.BASE, Scheme.IS_FUTURE)
) + (
    Cell("parsec", "canneal", Scheme.IS_FUTURE, _TSO, 4,
         (("interrupt_interval", 300),)),
)


def cell_id(cell):
    extra = "".join(f",{name}={value}" for name, value in cell.params)
    return (
        f"{cell.suite}/{cell.app}/{cell.scheme.value}/"
        f"{cell.consistency.value}/{cell.cores}c{extra}"
    )


def params_of(cell):
    if cell.suite == "spec":
        params = SystemParams.for_spec()
    else:
        params = SystemParams.for_parsec(num_cores=cell.cores)
    options = dict(cell.params)
    if "interrupt_interval" in options:
        params = params.replace(core=dataclasses.replace(
            params.core, interrupt_interval=options.pop("interrupt_interval")
        ))
    return params.replace(**options)


def run_cell(cell):
    """Run ``cell`` and return its snapshot (a JSON-able dict)."""
    config = ProcessorConfig(scheme=cell.scheme, consistency=cell.consistency)
    run = run_spec if cell.suite == "spec" else run_parsec
    result = run(
        cell.app, config,
        instructions=(
            SPEC_INSTRUCTIONS if cell.suite == "spec" else PARSEC_INSTRUCTIONS
        ),
        seed=SEED, params=params_of(cell), pretrain_ops=PRETRAIN_OPS,
    )
    warmup = result._snapshot
    return {
        "total_cycles": result.total_cycles,
        "counters": dict(sorted(result.counters.as_dict().items())),
        "warmup": {
            "cycle": warmup["cycle"],
            "counters": dict(sorted(warmup["counters"].items())),
            "traffic": dict(sorted(warmup["traffic"].items())),
        },
        "cores": [
            {"cycles": core.cycles, "retired": core.retired_instructions}
            for core in result.cores
        ],
    }


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def write_golden(snapshots):
    """One line per cell, so a change shows up as a reviewable diff."""
    lines = ",\n".join(
        f"{json.dumps(name)}: "
        f"{json.dumps(snapshots[name], sort_keys=True, separators=(',', ':'))}"
        for name in sorted(snapshots)
    )
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n" + lines + "\n}\n")
