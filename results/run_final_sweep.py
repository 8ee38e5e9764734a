"""Driver producing the full-scale results quoted in EXPERIMENTS.md.

Each step writes ``results/<name>.txt`` and ``results/<name>.json``; name
steps on the command line to run only those.  Figures 4 and 6 render one
SPEC matrix and Figures 7 and 8 one PARSEC matrix, each simulated once.
Every simulated cell of the figures and Table VI runs through one
in-process engine without retry; the driver exits non-zero if any cell
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

#: Measured instructions of each figure matrix (per core on PARSEC).
WINDOWS = {"spec": 5000, "parsec": 1500}


def main(only):
    engine = RunEngine(policy=RetryPolicy(max_attempts=1))
    matrices = {}

    def view(figure):
        def step():
            suite = figure.suite
            if suite not in matrices:
                matrices[suite] = figures.run_matrix(
                    suite, instructions=WINDOWS[suite], include_rc=True,
                    engine=engine,
                )
            return figures.render(figure, matrices[suite])

        return step

    steps = [
        ("figure4", view(figures.FIGURE4)),
        ("figure6", view(figures.FIGURE6)),
        ("figure5", lambda: figure5.run(trials=3)),
        ("figure7", view(figures.FIGURE7)),
        ("figure8", view(figures.FIGURE8)),
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
        ("ablations", lambda: ablations.run(instructions=4000)),
        ("sweep", lambda: sweep.run(instructions=3000)),
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
