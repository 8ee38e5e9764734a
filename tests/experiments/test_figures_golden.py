"""Figures 4, 6, 7 and 8 pinned at a small matrix.

``tests/golden/figures.json`` holds the ``rows`` and ``text`` of each
figure at SPEC ``mcf,sjeng`` (400 instructions) and PARSEC
``swaptions,canneal`` (200 instructions per core), TSO + RC.  They were
generated by the four per-figure modules of commit a57e4e6, which each
simulated their own matrix, before Figures 4/6 and 7/8 became views of one
matrix per suite.  Any change to a rendered figure, or to a cell it reads,
fails here.
"""

import json
import os

import pytest

from repro import runner
from repro.experiments import figures

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden", "figures.json"
)
SPEC = dict(apps=["mcf", "sjeng"], instructions=400)
PARSEC = dict(apps=["swaptions", "canneal"], instructions=200)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def spec_matrix():
    return figures.run_matrix("spec", **SPEC)


@pytest.fixture(scope="module")
def parsec_matrix():
    return figures.run_matrix("parsec", **PARSEC)


@pytest.mark.parametrize("view, suite", [
    (figures.FIGURE4, "spec"),
    (figures.FIGURE6, "spec"),
    (figures.FIGURE7, "parsec"),
    (figures.FIGURE8, "parsec"),
], ids=lambda value: getattr(value, "experiment_id", value))
def test_figure_matches_golden(view, suite, golden, request):
    result = figures.render(view, request.getfixturevalue(f"{suite}_matrix"))
    want = golden[view.experiment_id]
    assert result.rows == want["rows"]
    assert result.text == want["text"]


def test_two_views_simulate_each_cell_once(monkeypatch):
    calls = []
    run_spec = runner.run_spec

    def counting_run_spec(name, config, **kwargs):
        calls.append((name, config.scheme, config.consistency))
        return run_spec(name, config, **kwargs)

    monkeypatch.setattr(runner, "run_spec", counting_run_spec)
    matrix = figures.run_matrix("spec", **SPEC)
    figures.render(figures.FIGURE4, matrix)
    figures.render(figures.FIGURE6, matrix)
    # 2 apps x 5 schemes x {TSO, RC}, each simulated exactly once.
    assert len(calls) == 20
    assert len(set(calls)) == 20
