"""Equivalence gate: every counter of a small run matrix is pinned.

Final counters, the warmup snapshot and per-core cycles of each cell in
:mod:`tests.golden.matrix` must match ``tests/golden/sim_counters.json``
bit for bit.  A speed-up or refactor that moves any of them is a bug, not
a win; a change meant to alter simulated behaviour regenerates the file
with ``PYTHONPATH=src python -m tests.golden.regen``.
"""

import pytest

from .golden.matrix import CELLS, cell_id, load_golden, run_cell

GOLDEN = load_golden()


def _differences(expected, actual, path=""):
    if isinstance(expected, dict) and isinstance(actual, dict):
        return [
            difference
            for key in sorted(set(expected) | set(actual))
            for difference in _differences(
                expected.get(key), actual.get(key), f"{path}.{key}"
            )
        ]
    if isinstance(expected, list) and isinstance(actual, list) and (
        len(expected) == len(actual)
    ):
        return [
            difference
            for index, (want, got) in enumerate(zip(expected, actual))
            for difference in _differences(want, got, f"{path}[{index}]")
        ]
    return [] if expected == actual else [f"{path}: {expected!r} -> {actual!r}"]


def test_golden_covers_exactly_the_matrix():
    assert sorted(GOLDEN) == sorted(cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_matches_golden(cell):
    differences = _differences(GOLDEN[cell_id(cell)], run_cell(cell))
    assert not differences, "\n".join(differences[:20])
