"""Command-line entry point for the experiment harness.

Examples::

    python -m repro.experiments figure4 --quick
    python -m repro.experiments figure4 --instructions 10000
    python -m repro.experiments table6 --apps sjeng,libquantum
    python -m repro.experiments all --quick

Reliability (see ``docs/RELIABILITY.md``)::

    # journal each cell; a failed cell becomes a gap, not an abort
    python -m repro.experiments figure4 --quick

    # re-attempt only the failed cells of the previous invocation
    python -m repro.experiments figure4 --quick --resume

    # deterministic fault injection into one matching cell
    python -m repro.experiments figure4 --quick \
        --fault mshr.stuck:nth=3 --fault-cells 'spec:mcf:IS-Sp:*'

    # fan the sweep out over 4 supervised worker processes
    python -m repro.experiments figure4 --quick --jobs 4 --max-rss 2G

The process exits non-zero only when the number of failed cells exceeds
``--max-failures`` (default 0: any failure that survives retries fails the
invocation, after the full experiment has still been rendered).
"""

from __future__ import annotations

import argparse
import os
import sys

from ..errors import ConfigError
from ..reliability import (
    FaultSchedule,
    RetryPolicy,
    RunEngine,
    RunJournal,
    Supervisor,
)
from ..reliability.pool import parse_size
from . import ALL_EXPERIMENTS, figures

#: Generous per-cell cycle budget: an order of magnitude above the slowest
#: legitimate full-suite cell, so only runaway runs and injected drops trip.
DEFAULT_MAX_CYCLES = 50_000_000


def journal_name(experiment):
    """The journal an experiment's cells go to.

    Figures 4 and 6 are views of one SPEC cell matrix, and Figures 7 and
    8 of one PARSEC matrix, so each pair shares ``<suite>-matrix`` and
    one engine: in one invocation the second view is served every cell
    the first finished, and a view run after the other with ``--resume``
    serves every cell from the journal.  Every other experiment has a
    journal of its own, written only once one of its cells records.
    """
    view = figures.VIEWS.get(experiment)
    return f"{view.suite}-matrix" if view is not None else experiment


def build_engine(args, name, schedule):
    """One engine and journal per journal name (see :func:`journal_name`)."""
    journal = None
    if not args.no_journal:
        journal = RunJournal(
            os.path.join(args.journal_dir, f"{name}.json"), experiment=name,
        )
    supervisor = None
    if args.jobs > 1:
        supervisor = Supervisor(
            jobs=args.jobs,
            max_rss=args.max_rss,
            heartbeat_timeout=args.heartbeat,
        )
    return RunEngine(
        journal=journal,
        policy=RetryPolicy(max_attempts=args.retries + 1),
        max_cycles=args.max_cycles,
        wall_clock_s=args.wall_clock,
        resume=args.resume,
        fault_schedule=schedule,
        fault_cells=args.fault_cells,
        failure_budget=args.max_failures,
        supervisor=supervisor,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the InvisiSpec paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="measured instructions per run (default: harness default)",
    )
    parser.add_argument(
        "--apps",
        type=str,
        default=None,
        help="comma-separated app subset",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload generator seed"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small representative app subset instead of the full suite",
    )
    parser.add_argument(
        "--no-rc",
        action="store_true",
        help="skip the RC-average rows (halves runtime)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        help="for `report`: write the markdown to this path",
    )

    reliability = parser.add_argument_group("reliability")
    reliability.add_argument(
        "--resume",
        action="store_true",
        help="serve journal-completed cells from the journal; re-run only "
        "missing/failed ones",
    )
    reliability.add_argument(
        "--journal-dir",
        type=str,
        default=os.path.join("results", "journal"),
        help="directory for per-experiment run journals "
        "(default: results/journal)",
    )
    reliability.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the run journal (cells still retry and degrade)",
    )
    reliability.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries per failed cell, each with a bumped seed and grown "
        "cycle budget (default: 1)",
    )
    reliability.add_argument(
        "--max-cycles",
        type=int,
        default=DEFAULT_MAX_CYCLES,
        help="per-cell cycle budget; exceeded -> SimTimeoutError "
        f"(default: {DEFAULT_MAX_CYCLES})",
    )
    reliability.add_argument(
        "--wall-clock",
        type=float,
        default=None,
        help="per-cell wall-clock budget in seconds (default: off)",
    )
    reliability.add_argument(
        "--max-failures",
        type=int,
        default=0,
        help="failure budget: exit non-zero only when more cells than this "
        "fail (default: 0)",
    )
    reliability.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SITE[:k=v,...]",
        help="inject a fault, e.g. mshr.stuck:nth=3 or "
        "dram.stall:nth=2,extra=5000; repeatable",
    )
    reliability.add_argument(
        "--fault-cells",
        type=str,
        default="*",
        metavar="GLOB",
        help="glob of cell ids the fault schedule applies to "
        "(default: every cell)",
    )
    reliability.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="RNG seed for probabilistic fault specs",
    )
    reliability.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run cells on N crash-isolated worker processes under the "
        "sweep supervisor (default: 1 = in-process serial); results, "
        "journals and figures are identical either way",
    )
    reliability.add_argument(
        "--max-rss",
        type=parse_size,
        default=None,
        metavar="BYTES",
        help="per-worker memory ceiling (suffixes K/M/G), enforced via "
        "RLIMIT_AS in the worker and RSS polling in the supervisor; "
        "only meaningful with --jobs > 1",
    )
    reliability.add_argument(
        "--heartbeat",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="worker liveness deadline: a busy worker that reports no "
        "simulated progress for this long is killed and its cell "
        "retried (default: 60)",
    )
    reliability.add_argument(
        "--sanitize",
        nargs="?",
        const="strict",
        choices=("strict", "record"),
        default=None,
        help="run every cell under the runtime invariant sanitizer "
        "(see docs/SANITIZER.md): 'strict' fails fast on the first "
        "violation, 'record' finishes the run and journals the report; "
        "bare --sanitize means strict",
    )
    args = parser.parse_args(argv)

    schedule = None
    if args.fault:
        try:
            schedule = FaultSchedule.parse(args.fault, seed=args.fault_seed)
        except ConfigError as error:
            parser.error(str(error))

    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    kwargs = {"seed": args.seed, "quick": args.quick}
    if args.instructions is not None:
        kwargs["instructions"] = args.instructions
    if args.apps:
        kwargs["apps"] = args.apps.split(",")
    if args.no_rc:
        kwargs["include_rc"] = False

    if args.out is not None:
        kwargs["out"] = args.out
    if args.sanitize is not None:
        kwargs["sanitize"] = args.sanitize

    total_failures = 0
    engines = {}  # journal name -> the engine its experiments share
    for name in names:
        journal = journal_name(name)
        engine = engines.get(journal)
        if engine is None:
            engine = engines[journal] = build_engine(args, journal, schedule)
        first = len(engine.outcomes)
        try:
            result = ALL_EXPERIMENTS[name](engine=engine, **kwargs)
        except KeyboardInterrupt:
            # A supervised parallel sweep drained on SIGINT/SIGTERM (or the
            # user interrupted a serial one).  Completed cells are already
            # journaled; resume from there.
            done = len(engine.outcomes) - first
            print(
                f"\n[reliability] interrupted: {done} cell(s) journaled; "
                f"re-run with --resume to continue",
                file=sys.stderr,
            )
            return 130
        print(result if isinstance(result, str) else result.text)
        failures = [
            outcome for outcome in engine.outcomes[first:] if not outcome.ok
        ]
        if failures:
            total_failures += len(failures)
            print(
                f"[reliability] {len(failures)} cell(s) failed "
                f"(rendered as gaps):"
            )
            for outcome in failures:
                label = (
                    " [quarantined]" if outcome.status == "poisoned" else ""
                )
                print(
                    f"  {outcome.cell_id}{label}: {outcome.error_class}: "
                    f"{outcome.error_message}"
                )
        print()
    return 1 if total_failures > args.max_failures else 0


if __name__ == "__main__":
    sys.exit(main())
