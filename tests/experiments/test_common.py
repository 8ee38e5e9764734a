"""Experiment plumbing tests."""

import pytest

from repro.configs import Scheme
from repro.experiments.common import (
    ExperimentResult,
    arithmetic_mean,
    default_apps,
    geometric_mean,
    normalized,
)
from repro.workloads import parsec_names, spec_names


class TestExperimentResult:
    def test_text_renders_headers_rows_notes(self):
        result = ExperimentResult(
            "x", "Title", ["a", "b"], [["app", 1.5]], notes="note text"
        )
        assert "Title" in result.text
        assert "note text" in result.text
        assert "1.50" in result.text

    def test_row_for(self):
        result = ExperimentResult("x", "t", ["a"], [["one", 1], ["two", 2]])
        assert result.row_for("two") == ["two", 2]
        assert result.row_for("missing") is None


class TestBars:
    def test_bars_renders_numeric_columns(self):
        result = ExperimentResult(
            "x", "Bars", ["app", "Base", "IS-Fu", "note"],
            [["mcf", 1.0, 1.3, "n/a"], ["lbm", 1.0, 1.5, "n/a"]],
        )
        text = result.bars()
        assert "mcf" in text and "lbm" in text
        assert "IS-Fu" in text
        assert "#" in text
        assert "note" not in text  # non-numeric column skipped

    def test_bars_explicit_columns(self):
        result = ExperimentResult(
            "x", "Bars", ["app", "Base", "IS-Fu"], [["mcf", 1.0, 1.3]]
        )
        text = result.bars(columns=["IS-Fu"])
        assert "Base" not in text.splitlines()[-1]


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        result = ExperimentResult(
            "fig", "Title", ["a", "b"], [["x", 1.25]], notes="n"
        )
        path = tmp_path / "result.json"
        result.save_json(path)
        loaded = ExperimentResult.load_json(path)
        assert loaded.experiment_id == "fig"
        assert loaded.rows == [["x", 1.25]]
        assert loaded.notes == "n"
        assert loaded.text == result.text


class TestMeanStd:
    def test_mean_std(self):
        from repro.experiments.common import mean_std

        mean, std = mean_std([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert abs(std - 1.0) < 1e-9
        assert mean_std([5.0]) == (5.0, 0.0)
        assert mean_std([]) == (0.0, 0.0)


class TestHelpers:
    def test_default_apps_full_suites(self):
        assert default_apps("spec") == spec_names()
        assert default_apps("parsec") == parsec_names()

    def test_default_apps_quick_subsets(self):
        quick = default_apps("spec", quick=True)
        assert 0 < len(quick) < len(spec_names())
        assert set(quick) <= set(spec_names())

    def test_default_apps_explicit_wins(self):
        assert default_apps("spec", apps=["mcf"], quick=True) == ["mcf"]

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([1.0, 4.0]) == 2.0
        assert arithmetic_mean([]) == 0.0
        assert geometric_mean([]) == 0.0

    def test_normalized_anchors_base(self):
        class Fake:
            def __init__(self, cycles):
                self.cycles = cycles

        results = {Scheme.BASE: Fake(100), Scheme.IS_FUTURE: Fake(150)}
        norm = normalized(results, lambda r: r.cycles)
        assert norm[Scheme.BASE] == 1.0
        assert norm[Scheme.IS_FUTURE] == 1.5
