"""Measure fuzz-campaign throughput, serial vs. parallel.

Runs the same differential campaign twice — in-process serial and on
the supervised worker pool with ``--jobs N`` — verifies the two produce
byte-identical summaries and corpora (the campaign's bit-identity
guarantee doubles as the benchmark's correctness check), and records
programs/second for both in ``results/BENCH_fuzz.json``.

As with the parallel sweep benchmark, the speedup is bounded by real
cores: on a single-core machine the pool only adds supervision
overhead, which is why ``cpu_count`` is recorded next to the ratio.

Usage::

    PYTHONPATH=src python benchmarks/run_fuzz_bench.py [--programs 64]
        [--jobs 4] [--seed 0] [--out results/BENCH_fuzz.json]
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

from repro.fuzz.campaign import run_campaign  # noqa: E402


def _timed_campaign(programs, seed, out_dir, jobs):
    started = time.perf_counter()
    result = run_campaign(
        programs=programs, seed=seed, jobs=jobs, out_dir=out_dir,
        max_minimize=0,
    )
    elapsed = time.perf_counter() - started
    assert result.summary["missing_verdicts"] == 0, result.failed_cells
    return elapsed, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=64)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default=os.path.join("results", "BENCH_fuzz.json")
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = os.path.join(tmp, "serial")
        parallel_dir = os.path.join(tmp, "parallel")
        serial_s, serial_result = _timed_campaign(
            args.programs, args.seed, serial_dir, jobs=1
        )
        parallel_s, parallel_result = _timed_campaign(
            args.programs, args.seed, parallel_dir, jobs=args.jobs
        )
        identical = serial_result.summary == parallel_result.summary

    entry = {
        "benchmark": "fuzz_campaign",
        "programs": args.programs,
        "seed": args.seed,
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "serial_programs_per_s": round(args.programs / serial_s, 3),
        "parallel_programs_per_s": round(args.programs / parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3),
        "summaries_identical": identical,
        "by_classification": serial_result.summary["by_classification"],
        "evidence": serial_result.summary["evidence"],
        "precision_by_template": serial_result.summary[
            "precision_by_template"
        ],
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
        print(
            "ERROR: serial and parallel campaign summaries differ",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
