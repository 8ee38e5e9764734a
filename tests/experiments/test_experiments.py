"""Smoke tests for the experiment harness with tiny budgets."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, figure5, figures
from repro.experiments import ablations, table6, table7, tables45


class TestRegistry:
    def test_every_evaluation_artifact_has_an_experiment(self):
        for name in ("figure4", "figure5", "figure6", "figure7", "figure8",
                     "table6", "table7", "tables45", "ablations"):
            assert name in ALL_EXPERIMENTS


class TestFigure4:
    def test_rows_and_shape(self):
        result = figures.figure4(
            apps=["hmmer"], instructions=600, include_rc=False
        )
        row = result.row_for("hmmer")
        assert row is not None
        base, fe_sp, is_sp, fe_fu, is_fu = row[1:6]
        assert base == 1.0
        # The paper's headline ordering: fences cost far more than IS.
        assert fe_sp > is_sp
        assert fe_fu > is_fu
        assert result.row_for("average") is not None

    def test_rc_average_row(self):
        result = figures.figure4(apps=["hmmer"], instructions=500, include_rc=True)
        assert result.row_for("RC-average") is not None


class TestFigure5:
    def test_base_leaks_is_sp_does_not(self):
        result = figure5.run(trials=1)
        assert result.extras["base_guess"] == result.extras["secret"]
        assert result.extras["is_sp_guess"] is None

    def test_secret_row_contrast(self):
        result = figure5.run(secret=84, trials=1)
        row = result.row_for(84)
        assert row[1] <= 40  # Base: hit
        assert row[2] >= 100  # IS-Sp: miss


class TestFigure6:
    def test_traffic_normalized(self):
        result = figures.figure6(
            apps=["hmmer"], instructions=600, include_rc=False
        )
        row = result.row_for("hmmer")
        assert row[1] == 1.0  # Base
        assert row[3] > 1.0  # IS-Sp adds traffic


class TestTable6:
    def test_characterization_columns(self):
        result = table6.run(
            spec_apps=("hmmer",), parsec_apps=("swaptions",),
            instructions=500,
        )
        row = result.row_for("hmmer (IS-Fu)")
        assert row is not None
        exposures, val_hit, val_miss = row[1:4]
        assert abs(exposures + val_hit + val_miss - 100.0) < 1.0


class TestTable7:
    def test_matches_paper_columns(self):
        result = table7.run()
        assert len(result.rows) == 5
        area_row = result.row_for("Area (mm^2)")
        assert float(area_row[1]) < 0.05


class TestTables45:
    def test_renders_parameters(self):
        result = tables45.run()
        assert result.row_for("Architecture") is not None
        assert result.row_for("config IS-Fu") is not None


class TestAblations:
    @pytest.mark.slow
    def test_ablation_rows(self):
        result = ablations.run(
            app="hmmer", v2e_app="hmmer", parsec_app="swaptions",
            instructions=500,
        )
        labels = [row[0] for row in result.rows]
        assert any("no-llc-sb" in label for label in labels)
        assert any("no-early-squash" in label for label in labels)
        assert any("validations instead" in label for label in labels)
