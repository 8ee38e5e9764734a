"""Simulator workloads: cells, timed passes, golden snapshots, traced layers.

A *cell* is one ``run_spec``/``run_parsec`` call: one application under
one scheme and consistency model.  A *pass* runs every cell of a workload
once.  Each cell's simulated cycles and every counter form its snapshot,
which must match the committed golden file for the seed
(``perfbench/golden/seed-<n>.json``) bit for bit; any difference fails the
cell.

Timing wraps ``System.run`` from here (no edit under ``src/``): a cell's
set-up is everything before ``System.run`` starts (system build plus
predictor pre-training) and its run time is ``System.run`` itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import namedtuple

from repro.configs import ConsistencyModel, ProcessorConfig, Scheme
from repro.runner import (
    DEFAULT_PARSEC_INSTRUCTIONS,
    DEFAULT_SPEC_INSTRUCTIONS,
    run_parsec,
    run_spec,
)
from repro.system import System

from .common import ROOT
from .tracer import component_sum

SPEC_APPS = ("hmmer", "mcf", "libquantum", "sjeng")
PARSEC_APPS = ("fluidanimate", "canneal")

#: Measured instructions per cell (per core for PARSEC).  ``System`` runs
#: a warmup prefix of half as many on top of them (the core's budget is
#: measured + warmup), and statistics exclude it: a SPEC cell retires 3000
#: instructions and an 8-core PARSEC cell 8 x 750, as the golden files'
#: ``instructions`` field shows.  These are a tenth (SPEC) and an eighth
#: (PARSEC) of the runner's defaults, so that a 30 s run holds several
#: passes of every workload: at the defaults one ``spec-invisispec`` pass
#: alone takes longer than a run.  README.md compares the layer shares at
#: both lengths (``--runner-windows``).
SPEC_INSTRUCTIONS = 2_000
PARSEC_INSTRUCTIONS = 500
WINDOWS = (SPEC_INSTRUCTIONS, PARSEC_INSTRUCTIONS)
RUNNER_WINDOWS = (DEFAULT_SPEC_INSTRUCTIONS, DEFAULT_PARSEC_INSTRUCTIONS)

TSO, RC = ConsistencyModel.TSO, ConsistencyModel.RC

Cell = namedtuple("Cell", "workload suite app scheme consistency")


def _cells(workload, suite, apps, configs):
    return tuple(
        Cell(workload, suite, app, scheme, consistency)
        for scheme, consistency in configs
        for app in apps
    )


WORKLOADS = {
    "spec-base": _cells("spec-base", "spec", SPEC_APPS, [(Scheme.BASE, TSO)]),
    "spec-invisispec": _cells(
        "spec-invisispec", "spec", SPEC_APPS,
        [(Scheme.IS_SPECTRE, TSO), (Scheme.IS_FUTURE, TSO),
         (Scheme.IS_FUTURE, RC)],
    ),
    "parsec-8core": _cells(
        "parsec-8core", "parsec", PARSEC_APPS, [(Scheme.IS_FUTURE, TSO)]
    ),
}

GOLDEN_DIR = os.path.join(ROOT, "perfbench", "golden")

#: The paper's average TSO normalized execution times (EXPERIMENTS.md).
PAPER_TSO_AVERAGE = {"IS-Sp": 1.076, "IS-Fu": 1.182}


def cell_id(cell):
    return (
        f"{cell.workload}/{cell.app}/{cell.scheme.value}/"
        f"{cell.consistency.value}"
    )


CellSample = namedtuple(
    "CellSample",
    "cell_id call_s setup_s run_s instructions total_cycles snapshot",
)


class RunClock:
    """Times ``System.run`` while installed (a context manager)."""

    def __init__(self):
        self.started = self.ended = 0.0
        self._original = None

    def __enter__(self):
        original = self._original = System.__dict__["run"]
        clock = self

        def run(system, *args, **kwargs):
            clock.started = time.perf_counter()
            try:
                return original(system, *args, **kwargs)
            finally:
                clock.ended = time.perf_counter()

        System.run = run
        return self

    def __exit__(self, *exc_info):
        System.run = self._original


def run_cell(cell, seed, clock, windows=WINDOWS, pretrain_ops=None):
    """Run one cell through the public runner; returns a CellSample.

    ``windows`` is ``(SPEC instructions, PARSEC instructions per core)``.
    """
    config = ProcessorConfig(scheme=cell.scheme, consistency=cell.consistency)
    spec = cell.suite == "spec"
    options = {"seed": seed, "instructions": windows[0 if spec else 1]}
    if pretrain_ops is not None:
        options["pretrain_ops"] = pretrain_ops
    started = time.perf_counter()
    result = (run_spec if spec else run_parsec)(cell.app, config, **options)
    ended = time.perf_counter()
    instructions = sum(core.retired_instructions for core in result.cores)
    return CellSample(
        cell_id=cell_id(cell),
        call_s=ended - started,
        setup_s=clock.started - started,
        run_s=clock.ended - clock.started,
        instructions=instructions,
        total_cycles=result.total_cycles,
        snapshot={
            "cycles": result.cycles,
            "total_cycles": result.total_cycles,
            "instructions": instructions,
            "counters": dict(sorted(result.counters.as_dict().items())),
        },
    )


def warm_up(workload, clock):
    """One short untimed cell so lazy set-up happens before timing."""
    cell = WORKLOADS[workload][0]
    run_cell(cell, 0, clock, windows=(200, 200), pretrain_ops=500)


def run_pass(workload, seed, clock, windows=WINDOWS):
    """Every cell of ``workload`` once; returns ``(wall_s, [CellSample])``."""
    started = time.perf_counter()
    samples = [
        run_cell(cell, seed, clock, windows) for cell in WORKLOADS[workload]
    ]
    return time.perf_counter() - started, samples


# ------------------------------------------------------------------ golden


def digest(snapshot):
    body = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def golden_path(seed):
    return os.path.join(GOLDEN_DIR, f"seed-{seed}.json")


def load_golden(seed):
    """``{cell_id: snapshot}`` for ``seed``, or None without a golden."""
    path = golden_path(seed)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)["cells"]


def write_golden(seed, samples):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    lines = ",\n".join(
        f"{json.dumps(s.cell_id)}: "
        f"{json.dumps(s.snapshot, sort_keys=True, separators=(',', ':'))}"
        for s in sorted(samples, key=lambda sample: sample.cell_id)
    )
    with open(golden_path(seed), "w") as handle:
        handle.write(
            f'{{"seed": {seed}, "spec_instructions": {SPEC_INSTRUCTIONS}, '
            f'"parsec_instructions": {PARSEC_INSTRUCTIONS}, "cells": {{\n'
            f"{lines}\n}}}}\n"
        )


def snapshot_diff(expected, actual):
    """Names of the fields and counters that differ (empty if identical)."""
    diff = [
        key for key in ("cycles", "total_cycles", "instructions")
        if expected.get(key) != actual.get(key)
    ]
    want, got = expected["counters"], actual["counters"]
    diff += sorted(
        f"counters.{name}" for name in set(want) | set(got)
        if want.get(name) != got.get(name)
    )
    return diff


def paper_reference(golden):
    """Lines comparing golden TSO normalized execution time with the paper."""
    lines = [
        f"paper reference (4-app subset, {SPEC_INSTRUCTIONS} measured "
        f"instructions after {SPEC_INSTRUCTIONS // 2} warmup; "
        "not an accuracy claim):"
    ]
    ratios = {scheme: [] for scheme in PAPER_TSO_AVERAGE}
    for app in SPEC_APPS:
        base = golden.get(f"spec-base/{app}/Base/TSO")
        if base is None:
            return []
        parts = []
        for scheme in PAPER_TSO_AVERAGE:
            cell = golden.get(f"spec-invisispec/{app}/{scheme}/TSO")
            if cell is None:
                return []
            ratio = cell["cycles"] / max(base["cycles"], 1)
            ratios[scheme].append(ratio)
            parts.append(f"{scheme}/TSO {ratio:.3f}")
        lines.append(f"  {app:<11} " + "  ".join(parts))
    for scheme, paper in PAPER_TSO_AVERAGE.items():
        mean = sum(ratios[scheme]) / len(ratios[scheme])
        lines.append(
            f"  mean {scheme}/TSO normalized time {mean:.3f} "
            f"(paper SPEC average {paper:.3f})"
        )
    return lines


# ------------------------------------------------------------------ traced

#: Public methods wrapped as spans in the traced run: (module, qualname,
#: component).  A span is named ``<component>:<method>``; its layer is the
#: component's first dotted part.  Code that is not wrapped (for example
#: ``SimKernel.schedule`` or the scheme policy predicates) counts toward
#: the nearest wrapped caller.
SIM_SPANS = (
    ("repro.sim.kernel", "SimKernel.run", "sim.kernel"),
    ("repro.sim.events", "EventQueue.run_at", "sim.events"),
    ("repro.sim.events", "EventQueue.next_cycle", "sim.events"),
    ("repro.cpu.core", "Core.tick", "cpu.core"),
    ("repro.cpu.core", "Core.on_invalidation", "cpu.core"),
    ("repro.cpu.core", "Core.on_l1_eviction", "cpu.core"),
    ("repro.cpu.core", "Core.squash_load", "cpu.core"),
    ("repro.cpu.branch.tournament", "TournamentPredictor.predict", "cpu.branch"),
    ("repro.cpu.branch.tournament", "TournamentPredictor.update", "cpu.branch"),
    ("repro.cpu.branch.tournament", "TournamentPredictor.squash_restore",
     "cpu.branch"),
    ("repro.cpu.branch.btb", "BTB.lookup", "cpu.branch"),
    ("repro.cpu.branch.btb", "BTB.update", "cpu.branch"),
    ("repro.cpu.branch.ras", "ReturnAddressStack.push", "cpu.branch"),
    ("repro.cpu.branch.ras", "ReturnAddressStack.pop", "cpu.branch"),
    ("repro.mem.cache", "CacheArray.lookup", "mem.cache"),
    ("repro.mem.cache", "CacheArray.contains", "mem.cache"),
    ("repro.mem.cache", "CacheArray.insert", "mem.cache"),
    ("repro.mem.cache", "CacheArray.invalidate", "mem.cache"),
    ("repro.mem.memimage", "MemoryImage.read_byte", "mem.memimage"),
    ("repro.mem.memimage", "MemoryImage.read", "mem.memimage"),
    ("repro.mem.memimage", "MemoryImage.read_bytes", "mem.memimage"),
    ("repro.mem.memimage", "MemoryImage.write", "mem.memimage"),
    ("repro.mem.memimage", "MemoryImage.write_bytes", "mem.memimage"),
    ("repro.mem.memimage", "MemoryImage.snapshot", "mem.memimage"),
    ("repro.mem.memimage", "MemoryImage.matches", "mem.memimage"),
    ("repro.mem.tlb", "DataTLB.lookup", "mem.tlb"),
    ("repro.mem.tlb", "DataTLB.fill", "mem.tlb"),
    ("repro.mem.tlb", "DataTLB.touch", "mem.tlb"),
    ("repro.mem.dram", "DRAMModel.access", "mem.dram"),
    ("repro.mem.mshr", "MSHRFile.lookup", "mem.mshr"),
    ("repro.mem.mshr", "MSHRFile.allocate", "mem.mshr"),
    ("repro.mem.mshr", "MSHRFile.merge", "mem.mshr"),
    ("repro.mem.mshr", "MSHRFile.complete", "mem.mshr"),
    ("repro.mem.prefetcher", "StridePrefetcher.train", "mem.prefetcher"),
    ("repro.mem.writebuffer", "WriteBuffer.push", "mem.writebuffer"),
    ("repro.mem.writebuffer", "WriteBuffer.drain_candidates",
     "mem.writebuffer"),
    ("repro.mem.writebuffer", "WriteBuffer.pending_store_to",
     "mem.writebuffer"),
    ("repro.coherence.hierarchy", "CacheHierarchy.submit", "coherence.submit"),
    ("repro.network.noc", "NoC.send", "network.noc"),
    ("repro.network.noc", "NoC.delay", "network.noc"),
    ("repro.network.noc", "NoC.round_trip", "network.noc"),
    ("repro.invisispec.valexp", "VisibilityEngine.tick",
     "invisispec.visibility"),
    ("repro.invisispec.valexp", "VisibilityEngine.on_invalidation",
     "invisispec.visibility"),
    ("repro.invisispec.sb", "SpeculativeBuffer.allocate", "invisispec.sb"),
    ("repro.invisispec.sb", "SpeculativeBuffer.fill", "invisispec.sb"),
    ("repro.invisispec.sb", "SpeculativeBuffer.forward_from_store",
     "invisispec.sb"),
    ("repro.invisispec.sb", "SpeculativeBuffer.copy", "invisispec.sb"),
    ("repro.invisispec.sb", "SpeculativeBuffer.invalidate", "invisispec.sb"),
    ("repro.invisispec.sb", "SpeculativeBuffer.read_bytes", "invisispec.sb"),
    ("repro.invisispec.llc_sb", "LLCSpeculativeBuffer.insert",
     "invisispec.llc_sb"),
    ("repro.invisispec.llc_sb", "LLCSpeculativeBuffer.match",
     "invisispec.llc_sb"),
    ("repro.invisispec.llc_sb", "LLCSpeculativeBuffer.invalidate_line",
     "invisispec.llc_sb"),
    ("repro.workloads.generator", "SyntheticTrace.__init__", "workloads.trace"),
    ("repro.workloads.generator", "SyntheticTrace.next_op",
     "workloads.next_op"),
    ("repro.workloads.generator", "SyntheticTrace.wrong_path_op",
     "workloads.wrong_path"),
    ("repro.system", "System.__init__", "system.build"),
    ("repro.system", "System.run", "system.run"),
    ("repro.runner", "_pretrain_predictor", "runner.pretrain"),
)

#: Hot, tiny methods that only get a call counter.
SIM_COUNTS = (
    ("repro.cpu.lsq", "_CircularQueue.entries", "cpu.lsq:entries"),
    ("repro.stats.counters", "Counters.bump", "stats.counters:bump"),
    ("repro.sim.events", "Event.__lt__", "sim.events:__lt__"),
)

_LAYER_OF_PACKAGE = {
    "sim": "sim", "cpu": "cpu", "consistency": "cpu", "mem": "mem",
    "coherence": "coherence", "network": "network",
    "invisispec": "invisispec", "workloads": "workloads",
    "system": "system", "runner": "runner",
}


def _event_span_name(callback):
    """``<layer>.event:<name>`` for the module that defined ``callback``."""
    function = getattr(callback, "__func__", callback)
    module = getattr(function, "__module__", None) or ""
    parts = module.split(".")
    layer = _LAYER_OF_PACKAGE.get(parts[1] if len(parts) > 1 else "", "sim")
    return f"{layer}.event:" + getattr(function, "__name__", "callback")


def install_tracing(tracer):
    """Wrap the simulator layers' public methods (undo: tracer.restore())."""
    for module, qualname, component in SIM_SPANS:
        tracer.patch_span(
            module, qualname, f"{component}:{qualname.rsplit('.', 1)[-1]}"
        )
    for module, qualname, name in SIM_COUNTS:
        tracer.patch_count(module, qualname, name)

    # Event callbacks fire as spans of the layer whose module defined them,
    # so an event's work is charged to the layer that scheduled it.
    from repro.sim.events import EventQueue

    schedule = EventQueue.__dict__["schedule"]
    spanned = tracer.spanned
    names = {}  # code object -> span name

    def traced_schedule(queue, cycle, callback):
        code = getattr(getattr(callback, "__func__", callback), "__code__",
                       None)
        name = names.get(code) if code is not None else None
        if name is None:
            name = _event_span_name(callback)
            if code is not None:
                names[code] = name
        return schedule(queue, cycle, spanned(name, callback))

    tracer.patch(
        EventQueue, "schedule",
        tracer.spanned("sim.events:schedule", traced_schedule),
    )


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, samples):
    """Per-layer metrics of one traced pass (``samples``: its cells)."""
    self_s, total_s, calls = tracer.self_s, tracer.total_s, tracer.calls
    kinstr = sum(s.instructions for s in samples) / 1000.0
    kcycles = sum(s.total_cycles for s in samples) / 1000.0
    counters = {}
    for sample in samples:
        for name, value in sample.snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def comp(component):
        return component_sum(self_s, component)

    def prefixed(prefix):
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    merges = counters.get("hierarchy.mshr_merges", 0)
    validations = counters.get("invisispec.validations", 0)
    exposures = counters.get("invisispec.exposures", 0)
    build = component_sum(total_s, "system.build")
    pretrain = component_sum(total_s, "runner.pretrain")
    sends = calls.get("network.noc:send", 0)
    return {
        "sim.kernel.self_s": comp("sim.kernel"),
        "sim.events.self_s": comp("sim.events"),
        "sim.events.fired": sum(
            count for name, count in calls.items() if ".event:" in name
        ),
        "sim.events.lt_calls": calls.get("sim.events:__lt__", 0),
        "cpu.core.tick_calls": calls.get("cpu.core:tick", 0),
        "cpu.core.self_s": comp("cpu.core"),
        "cpu.lsq.entries_per_kinstr": _ratio(
            calls.get("cpu.lsq:entries", 0), kinstr
        ),
        "cpu.branch.self_s": comp("cpu.branch"),
        "cpu.squashed_frac": _ratio(
            counters.get("core.squashed_ops", 0),
            counters.get("core.dispatched_ops", 0),
        ),
        "mem.cache.self_s": comp("mem.cache"),
        "mem.memimage.read_calls": sum(
            calls.get(f"mem.memimage:{method}", 0)
            for method in ("read_bytes", "read", "read_byte")
        ),
        "mem.memimage.self_s": comp("mem.memimage"),
        "mem.tlb.self_s": comp("mem.tlb"),
        "mem.dram.accesses": calls.get("mem.dram:access", 0),
        "coherence.submit_calls": calls.get("coherence.submit:submit", 0),
        "coherence.submit.self_s": comp("coherence.submit"),
        "coherence.mshr_merge_ratio": _ratio(
            merges, merges + prefixed("hierarchy.l1_misses.")
        ),
        "network.noc.send_calls": sends,
        "network.noc.self_s": comp("network.noc"),
        "network.noc.msgs_per_kinstr": _ratio(sends, kinstr),
        "invisispec.visibility.self_s": comp("invisispec.visibility"),
        "invisispec.sb.self_s": comp("invisispec.sb"),
        "invisispec.llc_sb.self_s": comp("invisispec.llc_sb"),
        "invisispec.validation_fail_ratio": _ratio(
            counters.get("invisispec.validation_failures", 0), validations
        ),
        "invisispec.exposure_share": _ratio(
            exposures, validations + exposures
        ),
        "workloads.next_op_calls": calls.get("workloads.next_op:next_op", 0),
        "workloads.next_op.self_s": comp("workloads.next_op"),
        "stats.bump_per_kcycle": _ratio(
            calls.get("stats.counters:bump", 0), kcycles
        ),
        "system.build_s": build,
        "runner.pretrain_s": pretrain,
        "runner.pretrain_share": _ratio(pretrain, build + pretrain),
    }


def traced_pass(workload, seed, clock, tracer, windows=WINDOWS):
    """One pass with a root span per cell; returns (wall_s, samples)."""
    started = time.perf_counter()
    samples = []
    for cell in WORKLOADS[workload]:
        with tracer.span(f"runner.entry:run_{cell.suite}"):
            samples.append(run_cell(cell, seed, clock, windows))
    return time.perf_counter() - started, samples
