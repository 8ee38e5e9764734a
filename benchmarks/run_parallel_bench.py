"""Measure the supervised parallel sweep against the serial path.

Runs the same batch of figure-4-style cells twice — in-process serial and
under the worker-pool supervisor with ``--jobs N`` — verifies the two
produce identical journal contents (modulo per-attempt wall-clock), and
records the wall times in ``results/BENCH_parallel_sweep.json``.

The speedup scales with real cores: on a single-core machine the workers
time-share one CPU and the pool can only add overhead, which is why the
recorded entry carries ``cpu_count`` — read the ratio against it.

Usage::

    PYTHONPATH=src python benchmarks/run_parallel_bench.py [--jobs 4]
        [--instructions 20000] [--out results/BENCH_parallel_sweep.json]
"""

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.configs import ProcessorConfig, Scheme  # noqa: E402
from repro.reliability import (  # noqa: E402
    CellSpec,
    RunEngine,
    RunJournal,
    Supervisor,
)

APPS = ("mcf", "sjeng", "libquantum", "hmmer")
SCHEMES = (Scheme.BASE, Scheme.IS_SPECTRE)


def _specs(instructions):
    return [
        CellSpec(
            "spec", app, ProcessorConfig(scheme=scheme),
            instructions=instructions,
        )
        for app in APPS
        for scheme in SCHEMES
    ]


def _stripped(path):
    with open(path) as handle:
        data = json.load(handle)
    for cell in data["cells"].values():
        for attempt in cell.get("attempts", ()):
            attempt.pop("wall_ms", None)
    data["experiment"] = ""
    return data


def _timed_sweep(specs, journal_path, supervisor=None):
    engine = RunEngine(
        journal=RunJournal(journal_path), supervisor=supervisor
    )
    started = time.perf_counter()
    outcomes = engine.run_specs(specs)
    elapsed = time.perf_counter() - started
    assert all(o.status == "ok" for o in outcomes), outcomes
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--instructions", type=int, default=20_000)
    parser.add_argument(
        "--out",
        default=os.path.join("results", "BENCH_parallel_sweep.json"),
    )
    args = parser.parse_args(argv)

    specs = _specs(args.instructions)
    with tempfile.TemporaryDirectory() as tmp:
        serial_path = os.path.join(tmp, "serial.json")
        parallel_path = os.path.join(tmp, "parallel.json")
        serial_s = _timed_sweep(specs, serial_path)
        parallel_s = _timed_sweep(
            specs, parallel_path,
            supervisor=Supervisor(jobs=args.jobs, heartbeat_timeout=120.0),
        )
        identical = _stripped(serial_path) == _stripped(parallel_path)

    entry = {
        "benchmark": "parallel_sweep",
        "cells": len(specs),
        "instructions_per_cell": args.instructions,
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3),
        "journals_identical": identical,
        "note": (
            "speedup is bounded by physical cores; on cpu_count=1 the "
            "pool time-shares one CPU and the ratio reflects pure "
            "supervision overhead"
        ),
    }
    existing = []
    if os.path.exists(args.out):
        with open(args.out) as handle:
            existing = json.load(handle)
    existing.append(entry)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(existing, handle, indent=2)
        handle.write("\n")
    print(json.dumps(entry, indent=2))
    if not identical:
        print("ERROR: serial and parallel journals differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
