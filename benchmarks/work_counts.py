"""Ratchet the simulator's deterministic work counts.

Usage::

    python3 benchmarks/work_counts.py            # check against the file
    python3 benchmarks/work_counts.py --write     # record this tree's counts

For each sim workload this runs one traced pass of perfbench at seed 0
(``perfbench/run.py --workload W --seed 0 --seconds 0 --trace 1``) and
reads the exact counts below from its JSON line.  They count calls and
events, not time, so they repeat exactly on any host and across
``PYTHONHASHSEED`` values.  ``workloads.next_op_calls`` counts only the
cells' own ops: pre-training advances its throwaway trace with
``SyntheticTrace.skip``, which builds no ops and calls no ``next_op``, so
a pre-training memo miss leaves the count as it is (it shows in
``runner.pretrain_s`` instead).

The check fails (exit 1) when a run is not ``"correct": true`` — every cell
must match its golden snapshot, and the tracer must still find every
method it patches — or when any count rises above the committed value in
``benchmarks/work_counts.json``.  A change that lowers a count records the
new floor with ``--write``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS_FILE = os.path.join(ROOT, "benchmarks", "work_counts.json")
WORKLOADS = ("spec-base", "spec-invisispec", "parsec-8core")
COUNTS = (
    "cpu.core.tick_calls",
    "sim.events.fired",
    "coherence.submit_calls",
    "mem.memimage.read_calls",
    "cpu.lsq.entries_per_kinstr",
    "workloads.next_op_calls",
)
SEED = 0


def traced_counts(workload):
    """``(correct, {count: value})`` of one traced perfbench pass."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: perfbench exited {proc.returncode}")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    return result["correct"] is True, {
        name: metrics[name]["value"] for name in COUNTS
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="record this tree's counts as the new ceiling")
    args = parser.parse_args(argv)

    measured, failures = {}, []
    for workload in WORKLOADS:
        correct, counts = traced_counts(workload)
        measured[workload] = counts
        if not correct:
            failures.append(f"{workload}: run is not correct")
        for name, value in counts.items():
            print(f"{workload:<16} {name:<28} {value:>12.6g}")

    if args.write:
        if not failures:
            with open(COUNTS_FILE, "w") as handle:
                json.dump({"seed": SEED, "counts": measured}, handle,
                          indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {os.path.relpath(COUNTS_FILE, ROOT)}")
    else:
        with open(COUNTS_FILE) as handle:
            ceiling = json.load(handle)["counts"]
        for workload, counts in measured.items():
            for name, value in counts.items():
                limit = ceiling[workload][name]
                if value > limit:
                    failures.append(
                        f"{workload}: {name} rose to {value:g} "
                        f"(committed {limit:g})"
                    )
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
