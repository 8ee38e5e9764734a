"""Repository benchmark: simulator host throughput and the service path.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload spec-base --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload service-mixed --seed 3 --trace 1
    python3 perfbench/run.py --regen-golden 0-15   # rewrite golden snapshots
    python3 perfbench/run.py --workload spec-base --trace 1 --seconds 0 \
        --runner-windows      # one traced pass at the runner's default lengths

Workloads: ``spec-base``, ``spec-invisispec``, ``parsec-8core`` drive the
simulator through ``repro.runner.run_spec``/``run_parsec``;
``service-mixed`` drives ``repro.service.server.serve`` through
``ServiceClient`` over TCP.  ``perfbench/README.md`` says why each exists
and which end-to-end metric each per-layer metric should move.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced pass (the overhead baseline), then traced
passes that wrap each layer's public methods from ``perfbench/`` and
report per-layer self times and counts, ``unattributed_s`` and the
tracing overhead, and writes the spans as Chrome trace-event JSON to
``.perfbench/trace-<workload>-seed<seed>.json`` (open it in Perfetto).

Every output is checked: sim cells against the committed golden snapshot
for the seed (or, for a seed without one or with ``--runner-windows``,
against the run's first pass, with a digest per cell printed so two
commits can be compared); service answers hot against cold.  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a failed output check shows there as
``"correct": false``.  Exit status is 0 when a
result was printed and 2 when the program under test cannot be found
(for example without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SIM_WORKLOADS = ("spec-base", "spec-invisispec", "parsec-8core")
WORKLOADS = SIM_WORKLOADS + ("service-mixed",)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runner-windows", action="store_true",
                        help="sim workloads: run each cell for the runner's "
                        "default instruction counts (no golden applies)")
    parser.add_argument("--regen-golden", metavar="A-B",
                        help="rewrite golden snapshots for seeds A..B")
    args = parser.parse_args(argv)
    if not (args.regen_golden or args.workload):
        parser.error("--workload is required")
    return args


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_metrics(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<34} {_fmt(value):>14} {unit:<10} {note}")


def _run_sim(args):
    from perfbench import simwork
    from perfbench.common import median, peak_rss_mb, run_passes
    from perfbench.tracer import Tracer

    windows = (simwork.RUNNER_WINDOWS if args.runner_windows
               else simwork.WINDOWS)
    golden = None if args.runner_windows else simwork.load_golden(args.seed)
    reference = golden or {}
    failed = 0

    def check(samples):
        nonlocal failed
        for sample in samples:
            expected = reference.setdefault(sample.cell_id, sample.snapshot)
            diff = simwork.snapshot_diff(expected, sample.snapshot)
            if diff:
                failed += 1
                print(f"MISMATCH {sample.cell_id}: {', '.join(diff[:20])}"
                      + (f" (+{len(diff) - 20} more)" if len(diff) > 20
                         else ""))

    metrics = {}
    attempted = 0
    with simwork.RunClock() as clock:
        simwork.warm_up(args.workload, clock)
        if not args.trace:
            passes = run_passes(
                lambda _: simwork.run_pass(
                    args.workload, args.seed, clock, windows
                ),
                args.seconds,
            )
        else:
            passes = [
                simwork.run_pass(args.workload, args.seed, clock, windows)
            ]
        for _, samples in passes:
            check(samples)
            attempted += len(samples)
        if args.trace:
            untraced_wall = passes[0][0]
            tracer = Tracer()
            simwork.install_tracing(tracer)
            layer_passes = []

            def traced(index):
                tracer.reset()
                wall, samples = simwork.traced_pass(
                    args.workload, args.seed, clock, tracer, windows
                )
                layer_passes.append((wall, simwork.layer_metrics(
                    tracer, samples
                ), dict(tracer.self_s)))
                return wall, samples

            try:
                traced_passes = run_passes(
                    traced, max(0.0, args.seconds - untraced_wall)
                )
            finally:
                tracer.restore()
            for _, samples in traced_passes:
                check(samples)
                attempted += len(samples)
            metrics, count_mismatch = _layer_summary(
                layer_passes, untraced_wall
            )
            failed += count_mismatch
            _export_trace(tracer, args)

    cells = passes[0][1]
    status = (
        "not used at runner windows" if args.runner_windows else "absent"
    ) + " (first pass is reference)"
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} "
          f"untraced pass(es) of {len(cells)} cells of {windows[0]} SPEC / "
          f"{windows[1]} PARSEC-per-core instructions; golden "
          f"{'committed' if golden else status}")
    for sample in cells:
        print(f"  cell {sample.cell_id:<36} digest "
              f"{simwork.digest(sample.snapshot)}")
    # The reference needs the Base and the InvisiSpec cells of the same
    # seed, which only a golden file holds together.
    if golden and args.workload in ("spec-base", "spec-invisispec"):
        for line in simwork.paper_reference(golden):
            print(line)

    # The host switches between a fast and a slow speed state every few
    # seconds (a fixed pure-Python loop takes either ~28 or ~50 ms), so
    # throughput is total work over total time: it moves smoothly with the
    # share of time spent in each state, where a median over passes jumps
    # from one state to the other.
    every = [sample for _, samples in passes for sample in samples]
    run_s = sum(sample.run_s for sample in every)
    instr_rate = sum(sample.instructions for sample in every) / run_s
    cycle_rate = sum(sample.total_cycles for sample in every) / run_s
    by_cell = {}
    for sample in every:
        by_cell.setdefault(sample.cell_id, []).append(sample.call_s)
    e2e = {
        "ops_per_s": instr_rate,
        "op_p50_ms": 1000.0 * median(
            [sum(calls) / len(calls) for calls in by_cell.values()]
        ),
        "wall_s": sum(wall for wall, _ in passes) / len(passes),
        "setup_s": median(
            [sum(c.setup_s for c in samples) for _, samples in passes]
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    _print_metrics("end-to-end (untraced):", [
        ("sim_kips", instr_rate / 1000.0, "kinstr/s",
         "all cores, warmup included, inside System.run, all passes"),
        ("sim_kcps", cycle_rate / 1000.0, "kcycle/s",
         "inside System.run, all passes"),
        ("op_p50_ms", e2e["op_p50_ms"], "ms",
         "median over cells of the mean run_spec/run_parsec call"),
        ("wall_s", e2e["wall_s"], "s", "one pass, mean over passes"),
        ("setup_s", e2e["setup_s"], "s",
         "System build + pretrain per pass, median over passes"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MiB", ""),
    ])
    return attempted, failed, (metrics if args.trace else e2e)


def _layer_summary(layer_passes, untraced_wall):
    """Per-layer metrics of the median traced pass, plus accounting.

    All values come from one pass (the one with the median traced wall
    time), so its layer self times and ``unattributed_s`` add up to its
    ``trace.wall_s`` exactly.  Exact counts must agree across passes.
    """
    from perfbench.metrics import EXACT_COUNTS, LAYERS, PER_LAYER
    from perfbench.tracer import layer_of

    rows = []
    for wall, metrics, self_s in layer_passes:
        row = dict.fromkeys(PER_LAYER, 0.0)
        row.update(metrics)
        layer_totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self_s.items():
            layer_totals[layer_of(name)] += seconds
        for layer, seconds in layer_totals.items():
            row[f"layer.{layer}.self_s"] = seconds
        row["unattributed_s"] = wall - sum(layer_totals.values())
        row["trace.wall_s"] = wall
        row["trace.overhead"] = wall / untraced_wall
        rows.append(row)
    mismatch = 0
    for name in EXACT_COUNTS:
        if len({row[name] for row in rows}) > 1:
            mismatch += 1
            print(f"COUNT MISMATCH between traced passes: {name} "
                  f"{[row[name] for row in rows]}")
    summary = sorted(rows, key=lambda row: row["trace.wall_s"])[
        (len(rows) - 1) // 2
    ]
    _print_metrics(
        f"per-layer (traced; the median of {len(rows)} traced pass(es)):",
        [(name, value, "", "") for name, value in summary.items()],
    )
    return summary, mismatch


def _export_trace(tracer, args):
    from perfbench.common import WORK_DIR

    path = os.path.join(
        WORK_DIR, f"trace-{args.workload}-seed{args.seed}.json"
    )
    with open(path, "w") as handle:
        json.dump(tracer.chrome_trace(f"perfbench {args.workload}"), handle)
    print(f"chrome trace: {os.path.relpath(path, ROOT)} "
          f"({len(tracer.spans)} spans)")


def _run_service(args):
    from perfbench import servicework
    from perfbench.common import median, peak_rss_mb, rss_mb, run_passes, tail
    from perfbench.tracer import Tracer

    if not args.trace:
        passes = run_passes(
            lambda index: servicework.run_pass(args.seed, index),
            args.seconds,
        )
    else:
        passes = [servicework.run_pass(args.seed, 0)]
        untraced_wall = passes[0].loop_s
        tracer = Tracer()
        hooks = servicework.TracedFrontend(tracer)
        hooks.install()
        layer_passes = []

        def traced(index):
            tracer.reset()
            hooks.reset()
            service_pass = servicework.run_pass(args.seed, index + 1, hooks)
            # Accounting per connection timeline: each closed-loop client
            # is busy or idle for the whole loop.
            wall = servicework.CONNECTIONS * service_pass.loop_s
            layer_passes.append((wall, servicework.layer_metrics(
                tracer, hooks, service_pass
            ), dict(tracer.self_s)))
            return service_pass

        try:
            traced_passes = run_passes(
                traced, max(0.0, args.seconds - passes[0].wall_s)
            )
        finally:
            tracer.restore()
        metrics, _ = _layer_summary(
            layer_passes, servicework.CONNECTIONS * untraced_wall
        )
        passes = passes + traced_passes
        _export_trace(tracer, args)

    failed, mismatched = servicework.check_answers(passes)
    for key in mismatched:
        print(f"WRONG ANSWER for key {key}")
    attempted = sum(len(p.samples) for p in passes)
    measured = passes if not args.trace else passes[:1]
    every, hot, cold = servicework.latency_summary(measured)
    # Totals over passes, as for the sim workloads (see _run_sim).
    e2e = {
        "ops_per_s": len(every) / sum(p.loop_s for p in measured),
        "op_p50_ms": median(every),
        "wall_s": sum(p.wall_s for p in measured) / len(measured),
        "setup_s": median([p.setup_s for p in measured]),
        "peak_rss_mb": peak_rss_mb(),
    }
    tail_row = tail(every)
    print(f"workload service-mixed seed {args.seed}: {len(measured)} "
          f"untraced pass(es) of {len(measured[0].samples)} requests, "
          f"{servicework.CONNECTIONS} closed-loop connections, "
          f"{servicework.POOL_WORKERS} pool workers")
    _print_metrics("end-to-end (untraced):", [
        ("service_rps", e2e["ops_per_s"], "1/s", "all passes"),
        ("service_p50_ms", e2e["op_p50_ms"], "ms", f"n={len(every)}"),
        ("service_tail_ms", tail_row[1] if tail_row else 0.0, "ms",
         f"p{tail_row[0]:g}, {tail_row[2]} samples beyond, n={len(every)}"
         if tail_row else "fewer than 11 samples"),
        ("service_hot_p50_ms", median(hot), "ms", f"n={len(hot)}"),
        ("service_cold_p50_ms", median(cold), "ms",
         f"n={len(cold)}"),
        ("wall_s", e2e["wall_s"], "s",
         "one pass incl. start and drain, mean over passes"),
        ("setup_s", e2e["setup_s"], "s",
         "start + pool spawn + connect, median over passes"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MiB",
         "larger of the service process and its pool workers "
         f"({rss_mb(resource.RUSAGE_CHILDREN):.1f})"),
    ])
    return attempted, failed, (metrics if args.trace else e2e)


def _regen_golden(seeds):
    from perfbench import simwork

    low, _, high = seeds.partition("-")
    with simwork.RunClock() as clock:
        for seed in range(int(low), int(high or low) + 1):
            samples = []
            for workload in SIM_WORKLOADS:
                samples += simwork.run_pass(workload, seed, clock)[1]
            simwork.write_golden(seed, samples)
            print(f"wrote {os.path.relpath(simwork.golden_path(seed), ROOT)}")


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, ROOT)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.regen_golden:
        _regen_golden(args.regen_golden)
        return 0

    from perfbench.common import WORK_DIR
    from perfbench.metrics import RUN_SECONDS, UNITS

    if args.seconds is None:
        args.seconds = RUN_SECONDS
    os.makedirs(WORK_DIR, exist_ok=True)
    runner = _run_service if args.workload == "service-mixed" else _run_sim
    attempted, failed, metrics = runner(args)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
