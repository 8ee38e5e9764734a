"""The paper's evaluation shapes, checked at a reduced scale.

Each test regenerates one of the paper's figures or tables on a small
app subset and a short window, and asserts the shape the paper reports:
who is faster than whom, which traffic is above Base, how rare validation
failures are, what each design choice buys.  ``python -m
repro.experiments <name>`` runs the full-scale version; EXPERIMENTS.md
holds its numbers.

Figures 4 and 6 are two views of one SPEC cell matrix, and Figures 7 and
8 of one PARSEC matrix, so each suite's matrix is simulated once per
module (as in ``test_figures_golden.py``).
"""

import pytest

from repro.configs import Scheme
from repro.experiments import ablations, figure5, figures, table6, table7

SPEC = dict(apps=["mcf", "sjeng", "libquantum", "hmmer"], instructions=2500)
PARSEC = dict(apps=["blackscholes", "fluidanimate", "swaptions"],
              instructions=900)


@pytest.fixture(scope="module")
def spec_matrix():
    return figures.run_matrix("spec", include_rc=True, **SPEC)


@pytest.fixture(scope="module")
def parsec_matrix():
    return figures.run_matrix("parsec", include_rc=False, **PARSEC)


def test_figure4_spec_execution_time(spec_matrix):
    result = figures.render(figures.FIGURE4, spec_matrix)

    average = result.row_for("average")
    base, fe_sp, is_sp, fe_fu, is_fu = average[1:6]
    assert base == 1.0
    # Paper shape (TSO): Fe-Sp=1.88 >> IS-Sp=1.076; Fe-Fu=3.46 >> IS-Fu=1.182.
    assert fe_sp > is_sp > 0.9
    assert fe_fu > is_fu > 0.9
    assert fe_fu > fe_sp
    assert is_fu >= is_sp * 0.95
    assert is_sp < fe_sp / 1.3
    assert is_fu < fe_fu / 1.5

    rc_average = result.row_for("RC-average")
    assert rc_average is not None
    assert rc_average[3] < rc_average[2]  # IS-Sp << Fe-Sp under RC too


def test_figure5_spectre_poc():
    result = figure5.run(secret=84, trials=2)

    base = result.extras["base"]
    is_sp = result.extras["is_sp"]
    # Base: exactly the secret's line is fast (the paper's dip at 84).
    fast = [v for v in range(256) if base[v] <= 40]
    assert fast == [84]
    assert result.extras["base_guess"] == 84
    # IS-Sp: flat profile, everything at memory latency.
    assert min(is_sp) >= 100
    assert result.extras["is_sp_guess"] is None


def test_figure6_spec_traffic(spec_matrix):
    result = figures.render(figures.FIGURE6, spec_matrix)

    average = result.row_for("average")
    base, fe_sp, is_sp, fe_fu, is_fu = average[1:6]
    assert base == 1.0
    # Paper: IS-Sp +35%, IS-Fu +59% traffic; fences stay near Base.
    assert is_sp > 1.0
    assert is_fu > 1.0
    assert is_fu >= is_sp * 0.9
    assert 0.5 <= fe_sp <= 1.4
    assert 0.5 <= fe_fu <= 1.4
    # sjeng's SpecLoad share should be visible (re-issued squashed USLs).
    sjeng = result.row_for("sjeng")
    assert sjeng is not None


def test_figure7_parsec_execution_time(parsec_matrix):
    result = figures.render(figures.FIGURE7, parsec_matrix)

    average = result.row_for("average")
    base, fe_sp, is_sp, fe_fu, is_fu = average[1:6]
    assert base == 1.0
    # Paper (TSO): IS-Sp=0.992, IS-Fu=1.137, Fe-Sp=1.67, Fe-Fu=2.90.
    assert fe_fu > is_fu
    assert fe_sp > is_sp * 0.9
    assert is_fu < fe_fu / 1.3
    # blackscholes beats Base under InvisiSpec (eviction-squash effect).
    blackscholes = result.row_for("blackscholes")
    assert blackscholes[5] < 1.15  # IS-Fu at or below Base-ish


def test_figure8_parsec_traffic(parsec_matrix):
    result = figures.render(figures.FIGURE8, parsec_matrix)

    average = result.row_for("average")
    base, fe_sp, is_sp, fe_fu, is_fu = average[1:6]
    assert base == 1.0
    # Paper: IS-Sp=1.13, IS-Fu=1.33; fences at or below Base.  At this
    # reduced scale the IS-Sp/IS-Fu ordering is noisy, so only the
    # coarser shape is asserted.
    assert is_fu > 0.9
    assert is_sp > 1.0
    assert fe_sp <= 1.4
    assert fe_fu <= 1.6
    # The IS bars carry a visible SpecLoad + Expose/Validate share.
    blackscholes = result.row_for("blackscholes")
    assert "%" in blackscholes[6]


def test_table6_characterization():
    result = table6.run(
        spec_apps=("sjeng", "libquantum", "hmmer"),
        parsec_apps=("swaptions",),
        instructions=1500,
    )

    per_app = result.extras["per_app"]
    for app_stats in per_app.values():
        for stats in app_stats.values():
            total = (
                stats["exposures_pct"]
                + stats["val_l1_hit_pct"]
                + stats["val_l1_miss_pct"]
            )
            assert abs(total - 100.0) < 1.0 or total == 0.0
            # Paper: validation failures are practically zero.
            assert stats["squash_validation_pct"] < 20.0
            # Paper: LLC-SB hit rates are very high (99+%), L1-SB low.
            if stats["llc_sb_hit_rate_pct"]:
                assert stats["llc_sb_hit_rate_pct"] > 60.0

    # sjeng squashes far more than libquantum (73,752 vs ~0 per 1M insn).
    sjeng = per_app["sjeng"][Scheme.IS_FUTURE]["squashes_per_m"]
    libquantum = per_app["libquantum"][Scheme.IS_FUTURE]["squashes_per_m"]
    assert sjeng > 10 * max(libquantum, 1)


def test_table7_hardware_overhead():
    result = table7.run()

    area = result.row_for("Area (mm^2)")
    leakage = result.row_for("Leakage power (mW)")
    # Same order of magnitude as the paper's CACTI numbers.
    for column in (1, 2):
        assert 0.005 < float(area[column]) < 0.05
        assert 0.2 < float(leakage[column]) < 1.0
    # Access fits comfortably in one 2 GHz cycle (500 ps).
    access = result.row_for("Access time (ps)")
    assert float(access[1]) < 250


def test_ablations():
    result = ablations.run(
        app="libquantum",
        v2e_app="gamess",
        parsec_app="canneal",
        instructions=1500,
    )

    rows = {row[0]: row for row in result.rows}
    reference = rows["libquantum IS-Fu (full design)"]
    no_llc_sb = rows["libquantum IS-Fu no-llc-sb"]
    # Removing the LLC-SB forces second DRAM accesses for memory-sourced
    # validations/exposures, and costs real cycles.
    assert no_llc_sb[4] > reference[4]  # DRAM accesses
    assert no_llc_sb[2] > 1.2  # normalized cycles

    v2e_ref = rows["gamess IS-Fu (full design)"]
    no_v2e = rows["gamess IS-Fu no-val-to-exp"]
    # Without the V->E transformation there are at least as many
    # validations and no more exposures.
    assert no_v2e[5] >= v2e_ref[5]
    assert no_v2e[6] <= v2e_ref[6]

    early_on = rows["2-core race IS-Fu (early squash)"]
    early_off = rows["2-core race IS-Fu no-early-squash"]
    # Section V-C2: with the optimization, stale USLs die early; without
    # it they survive to their validations and fail there.
    assert early_on[7] > 0  # early squashes happened
    assert early_off[7] == 0
    assert early_off[8] >= 1  # converted into validation failures
