"""Size a simulator speed change by running cells alternately in two trees.

Usage::

    python benchmarks/paired_cells.py PARENT CHANGE --workload spec-invisispec \
        [--rounds 6] [--seed 0]

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  The script
starts one long-lived Python process per checkout; each imports that
checkout's ``repro`` and ``perfbench`` and warms up once.  Every round then
runs each cell of the workload (``perfbench.simwork.run_cell``) in both
processes back to back, swapping which goes first from round to round, so
both trees see the same host speed states.  Every cell's snapshot is
checked against the seed's golden file (``perfbench/golden``) in each tree;
a mismatch stops the run with exit status 1.

Printed per round: the parent's and the change's summed ``System.run``
seconds and their ratio (parent / change, so > 1 means the change is
faster).  The last lines give the rounds the change won, the overall
ratio of summed run times, and for each tree its worker's peak RSS
(``ru_maxrss``) and the number and summed time of the cyclic collector's
full (generation-2) collections during the rounds, so memory and
collector changes can be sized with the same protocol.

This is a sizing aid: it interleaves single cells, which cancels the host's
slow speed-state drift better than whole alternating benchmark runs do.
Claims still come from ``perfbench/run.py`` alternating pairs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time


class _FullCollections:
    """A ``gc.callbacks`` hook: counts full collections and their time."""

    def __init__(self):
        self.count = 0
        self.seconds = 0.0
        self._started = None

    def __call__(self, phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.count += 1
            self.seconds += time.perf_counter() - self._started
            self._started = None


def _worker(checkout, workload, seed):
    """Serve ``<cell index>`` lines on stdin with one JSON line each; a
    ``stats`` line answers with the process's memory and collector use."""
    checkout = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), checkout]
    from perfbench import common, simwork

    golden = simwork.load_golden(seed)
    if golden is None:
        raise SystemExit(f"{checkout}: no golden file for seed {seed}")
    cells = simwork.WORKLOADS[workload]
    clock = simwork.RunClock()
    with clock:
        simwork.warm_up(workload, clock)
        full = _FullCollections()
        gc.callbacks.append(full)
        print(f"ready {len(cells)}", flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps({
                    "peak_rss_mb": common.rss_mb(resource.RUSAGE_SELF),
                    "full_collections": full.count,
                    "full_collection_s": full.seconds,
                }), flush=True)
                continue
            sample = simwork.run_cell(cells[int(line)], seed, clock)
            diff = simwork.snapshot_diff(
                golden[sample.cell_id], sample.snapshot
            )
            print(json.dumps({
                "cell": sample.cell_id, "run_s": sample.run_s, "diff": diff,
            }), flush=True)


class _Tree:
    """One checkout's long-lived worker process."""

    def __init__(self, name, checkout, workload, seed):
        self.name = name
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", checkout,
             "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=checkout,
        )
        banner = self.process.stdout.readline().split()
        if not banner or banner[0] != "ready":
            raise SystemExit(f"{name} worker failed to start")
        self.cells = int(banner[1])

    def _ask(self, request):
        self.process.stdin.write(f"{request}\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise SystemExit(f"{self.name} worker died")
        return json.loads(reply)

    def run(self, index):
        result = self._ask(index)
        if result["diff"]:
            raise SystemExit(
                f"{self.name}: {result['cell']} differs from the golden "
                f"snapshot: {', '.join(result['diff'][:8])}"
            )
        return result["run_s"]

    def report_stats(self):
        stats = self._ask("stats")
        print(f"{self.name}: peak RSS {stats['peak_rss_mb']:.2f} MiB, "
              f"{stats['full_collections']} full collections "
              f"in {stats['full_collection_s']:.3f} s")

    def close(self):
        self.process.stdin.close()
        self.process.wait()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.parent, args.workload, args.seed)
        return 0
    if args.change is None:
        parser.error("CHANGE checkout is required")

    parent = _Tree("parent", args.parent, args.workload, args.seed)
    change = _Tree("change", args.change, args.workload, args.seed)
    try:
        if parent.cells != change.cells:
            raise SystemExit("the checkouts define different cells")
        cells = range(parent.cells)
        totals = [0.0, 0.0]
        wins = 0
        for round_no in range(args.rounds):
            spent = [0.0, 0.0]
            order = (0, 1) if round_no % 2 == 0 else (1, 0)
            for index in cells:
                for side in order:
                    spent[side] += (parent, change)[side].run(index)
            ratio = spent[0] / spent[1]
            wins += ratio > 1.0
            totals[0] += spent[0]
            totals[1] += spent[1]
            print(f"round {round_no + 1}: parent {spent[0]:.3f} s, "
                  f"change {spent[1]:.3f} s, ratio {ratio:.3f}", flush=True)
        print(f"wins: {wins}/{args.rounds}")
        print(f"overall ratio (parent / change run time): "
              f"{totals[0] / totals[1]:.3f}")
        parent.report_stats()
        change.report_stats()
    finally:
        parent.close()
        change.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
