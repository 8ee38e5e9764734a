"""Driver producing the full-scale results quoted in EXPERIMENTS.md.

Each step writes ``results/<name>.txt`` and ``results/<name>.json``; name
steps on the command line to run only those.  Every simulated cell of
the figures, Table VI, the ablations and the sweep runs through one
in-process engine without retry, which serves a cell it already finished,
so Figures 4 and 6 render one SPEC matrix and Figures 7 and 8 one PARSEC
matrix, each simulated once.  The driver exits non-zero if any cell
failed (it renders as a gap).
"""

import sys

from repro.experiments import (
    ablations,
    figure5,
    figures,
    sweep,
    table6,
    table7,
)
from repro.reliability import RetryPolicy, RunEngine


def main(only):
    engine = RunEngine(policy=RetryPolicy(max_attempts=1))
    # Measured instructions: 5,000 per SPEC cell, 1,500 per PARSEC core.
    steps = [
        (
            "figure4",
            lambda: figures.figure4(instructions=5000, engine=engine),
        ),
        (
            "figure6",
            lambda: figures.figure6(instructions=5000, engine=engine),
        ),
        ("figure5", lambda: figure5.run(trials=3)),
        (
            "figure7",
            lambda: figures.figure7(instructions=1500, engine=engine),
        ),
        (
            "figure8",
            lambda: figures.figure8(instructions=1500, engine=engine),
        ),
        (
            "table6",
            lambda: table6.run(
                instructions=6000,
                spec_apps=("sjeng", "libquantum", "omnetpp"),
                parsec_apps=("bodytrack", "fluidanimate", "swaptions"),
                engine=engine,
            ),
        ),
        ("table7", lambda: table7.run()),
        (
            "ablations",
            lambda: ablations.run(instructions=4000, engine=engine),
        ),
        ("sweep", lambda: sweep.run(instructions=3000, engine=engine)),
    ]
    for name, step in steps:
        if only and name not in only:
            continue
        result = step()
        with open(f"results/{name}.txt", "w") as handle:
            handle.write(result.text + "\n")
        result.save_json(f"results/{name}.json")
        print(name, "done", flush=True)
    for outcome in engine.failures:
        print(f"FAILED {outcome.cell_id}: {outcome.error_class}: "
              f"{outcome.error_message}", flush=True)
    if engine.failures:
        return 1
    print("ALL DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(set(sys.argv[1:])))
