"""The benchmark's metric tables.

``BENCHMARK.json`` at the checkout root is the one definition of the
workloads, metrics, units, bounds and run length; this module reads it.
What stays here is only what the JSON file does not say: the layers whose
self times partition a traced pass, and which per-layer metrics are exact
counts.
"""

from __future__ import annotations

import json
import os

from .common import ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

RUN_SECONDS = SPEC["run_seconds"]

#: Metric names of the traced (``--trace 1``) run.
PER_LAYER = tuple(metric["name"] for metric in SPEC["per_layer"])

UNITS = {
    metric["name"]: metric["unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]
}

#: Layers whose self times partition a traced pass; each is reported as
#: ``layer.<name>.self_s``.
LAYERS = ("sim", "cpu", "mem", "coherence", "network", "invisispec",
          "workloads", "system", "runner", "service", "reliability")

#: Per-layer metrics that are exact counts of a deterministic run: they
#: must repeat exactly between traced passes (and traced runs).
EXACT_COUNTS = (
    "sim.events.fired", "sim.events.lt_calls", "cpu.core.tick_calls",
    "cpu.lsq.entries_per_kinstr", "mem.memimage.read_calls",
    "mem.dram.accesses", "coherence.submit_calls", "network.noc.send_calls",
    "workloads.next_op_calls", "stats.bump_per_kcycle",
)
