"""CLI for the differential fuzzing campaign.

Campaign (the default mode)::

    PYTHONPATH=src python -m repro.fuzz --programs 1000 --jobs 4 --seed 0

Replay one triage-corpus reproducer::

    PYTHONPATH=src python -m repro.fuzz replay results/fuzz/corpus/<hash>.json

Replay exits 0 iff the recorded disagreement still reproduces on the
current tree — a fixed analyzer bug flips its reproducer to exit 1,
which is exactly the signal triage wants.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..reliability.pool import parse_size
from .corpus import TriageCorpus
from .generator import FuzzProgram
from .harness import differential_check
from .campaign import run_campaign


def _campaign_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing campaign over generated "
        "transient-execution programs.",
    )
    parser.add_argument("--programs", type=int, default=256,
                        help="number of programs to generate (default 256)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes (default 1: serial)")
    parser.add_argument("--out", default="results/fuzz",
                        help="output directory (default results/fuzz)")
    parser.add_argument("--window", type=int, default=64,
                        help="specflow speculation window (default 64)")
    parser.add_argument("--weaken", default=None,
                        help="apply a registered analyzer weakening to the "
                        "static side (seeded-bug harness)")
    parser.add_argument("--batch", type=int, default=16,
                        help="programs per crash-isolated cell (default 16)")
    parser.add_argument("--max-minimize", type=int, default=25,
                        help="cap on minimized disagreement targets "
                        "(default 25; soundness targets go first)")
    parser.add_argument("--minimize-checks", type=int, default=200,
                        help="differential re-runs allowed per "
                        "minimization (default 200)")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells already ok in the journal")
    parser.add_argument("--max-rss", type=parse_size, default=None,
                        help="per-worker RSS limit, e.g. 2G (parallel only)")
    parser.add_argument("--heartbeat", type=float, default=60.0,
                        help="supervisor heartbeat timeout in seconds")
    parser.add_argument("--wall-clock", type=float, default=None,
                        help="wall-clock budget per cell attempt (seconds)")
    return parser


def _run_campaign(argv):
    args = _campaign_parser().parse_args(argv)
    result = run_campaign(
        programs=args.programs,
        seed=args.seed,
        jobs=args.jobs,
        out_dir=args.out,
        window=args.window,
        weaken=args.weaken,
        batch=args.batch,
        max_minimize=args.max_minimize,
        minimize_checks=args.minimize_checks,
        resume=args.resume,
        max_rss=args.max_rss,
        heartbeat_timeout=args.heartbeat,
        wall_clock_s=args.wall_clock,
        echo=print,
    )
    if result.exit_code:
        if result.soundness_count:
            print(
                f"[fuzz] FAIL: {result.soundness_count} SAFE-but-leaks "
                f"instance(s) — see {result.out_dir / 'corpus' / 'index.json'}"
            )
        if result.failed_cells:
            print(f"[fuzz] FAIL: {len(result.failed_cells)} cell(s) failed")
    return result.exit_code


def _run_replay(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz replay",
        description="Re-run one triage-corpus reproducer and confirm its "
        "recorded disagreement.",
    )
    parser.add_argument("entry", help="path to a corpus entry JSON file")
    parser.add_argument("--window", type=int, default=64)
    args = parser.parse_args(argv)

    entry = TriageCorpus.load_entry(args.entry)
    prog = FuzzProgram.from_dict(entry["program"])
    claim = entry["disagreement"]
    key = (
        "safe_but_leaks" if claim["kind"] == "soundness"
        else "transmit_but_clean"
    )
    result = differential_check(
        prog, window=args.window, weaken=claim.get("weaken")
    )
    detail = result.per_model[claim["model"]]
    reproduced = claim["pc"] in detail[key]
    print(json.dumps({
        "entry": entry["hash"],
        "claim": claim,
        "reproduced": reproduced,
        "observed": detail,
    }, indent=2, sort_keys=True))
    return 0 if reproduced else 1


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "replay":
        return _run_replay(argv[1:])
    return _run_campaign(argv)


if __name__ == "__main__":
    sys.exit(main())
