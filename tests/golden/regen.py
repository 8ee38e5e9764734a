"""Rewrite ``sim_counters.json`` from the current simulator.

Run from the repository root::

    PYTHONPATH=src python -m tests.golden.regen

Only regenerate for a change that is *meant* to alter simulated behaviour,
and say so in the change's description: for a speed-up or refactor the
golden file must stay as it is.
"""

from __future__ import annotations

from .matrix import CELLS, GOLDEN_PATH, cell_id, run_cell, write_golden


def main():
    write_golden({cell_id(cell): run_cell(cell) for cell in CELLS})
    print(f"wrote {len(CELLS)} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
