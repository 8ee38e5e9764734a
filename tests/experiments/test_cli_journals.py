"""The experiments CLI gives the views of one cell matrix one journal.

Figures 4 and 6 render the same SPEC cells, so ``figure6 --resume``
after ``figure4`` must serve every cell from the journal, and ``all``
must simulate the matrix once, with or without a journal.  A cell's id
names its window, so a resume at another window serves nothing.
"""

import json

import pytest

from repro import runner
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import __main__ as cli

SMALL = ["--apps", "mcf", "--instructions", "300", "--no-rc"]
#: A stuck MSHR at a cell's first miss fails every cell that runs live.
STUCK = ["--retries", "0", "--fault", "mshr.stuck:nth=1"]


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_figure6_resumes_every_cell_from_figure4s_journal(tmp_path, capsys):
    journals = ["--journal-dir", str(tmp_path)]
    assert _run(capsys, "figure4", *SMALL, *journals)[0] == 0
    journal = tmp_path / "spec-matrix.json"
    written = journal.read_bytes()
    fresh = _run(capsys, "figure6", *SMALL, "--no-journal")
    assert fresh[0] == 0

    # Live, the fault fails every cell ...
    code, out = _run(capsys, "figure6", *SMALL, *STUCK, "--no-journal")
    assert code == 1 and "5 cell(s) failed" in out

    # ... so a clean resume proves each cell came from the journal.
    resumed = _run(capsys, "figure6", *SMALL, *journals, "--resume", *STUCK)
    assert resumed == fresh
    assert journal.read_bytes() == written
    assert not list(tmp_path.glob("figure*"))


def _count_run_spec(monkeypatch):
    calls = []
    real = runner.run_spec

    def counted(app, config, **kwargs):
        calls.append((app, config.scheme, config.consistency,
                      kwargs.get("instructions")))
        return real(app, config, **kwargs)

    monkeypatch.setattr(runner, "run_spec", counted)
    return calls


def test_all_simulates_each_matrix_once(tmp_path, capsys, monkeypatch):
    calls = _count_run_spec(monkeypatch)
    monkeypatch.setattr(cli, "ALL_EXPERIMENTS", {
        name: ALL_EXPERIMENTS[name] for name in ("figure4", "figure6")
    })
    code, out = _run(capsys, "all", *SMALL, "--journal-dir", str(tmp_path))
    assert code == 0
    assert len(calls) == len(set(calls)) == 5
    assert "Figure 4" in out and "Figure 6" in out


def test_all_without_a_journal_simulates_each_matrix_once(
    tmp_path, capsys, monkeypatch
):
    calls = _count_run_spec(monkeypatch)
    monkeypatch.setattr(cli, "ALL_EXPERIMENTS", {
        name: ALL_EXPERIMENTS[name] for name in ("figure4", "figure6")
    })
    code, out = _run(capsys, "all", *SMALL, "--no-journal")
    assert code == 0
    assert len(calls) == len(set(calls)) == 5
    assert "Figure 4" in out and "Figure 6" in out


def test_resume_at_another_window_resimulates_every_cell(
    tmp_path, capsys, monkeypatch
):
    journals = ["--journal-dir", str(tmp_path)]
    longer = ["--apps", "mcf", "--instructions", "400", "--no-rc"]
    assert _run(capsys, "figure4", *SMALL, *journals)[0] == 0
    fresh = _run(capsys, "figure4", *longer, "--no-journal")

    calls = _count_run_spec(monkeypatch)
    resumed = _run(capsys, "figure4", *longer, *journals, "--resume")
    assert resumed == fresh
    assert len(calls) == len(set(calls)) == 5
    assert {call[3] for call in calls} == {400}

    cells = json.loads((tmp_path / "spec-matrix.json").read_text())["cells"]
    windows = sorted(
        cell["metrics"]["instructions"] for cell in cells.values()
    )
    assert windows == [300] * 5 + [400] * 5


@pytest.mark.parametrize("name, journal", [
    ("figure4", "spec-matrix"),
    ("figure6", "spec-matrix"),
    ("figure7", "parsec-matrix"),
    ("figure8", "parsec-matrix"),
    ("table6", "table6"),
])
def test_journal_names(name, journal):
    assert cli.journal_name(name) == journal
