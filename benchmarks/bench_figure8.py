"""Figure 8 benchmark: PARSEC network traffic."""

from conftest import run_once

from repro.experiments import figures


def test_figure8_parsec_traffic(benchmark, parsec_budget):
    apps, instructions = parsec_budget
    result = run_once(
        benchmark,
        figures.figure8,
        apps=apps,
        instructions=instructions,
        include_rc=False,
    )
    print()
    print(result.text)

    average = result.row_for("average")
    base, fe_sp, is_sp, fe_fu, is_fu = average[1:6]
    assert base == 1.0
    # Paper: IS-Sp=1.13, IS-Fu=1.33; fences at or below Base.  At the
    # reduced bench scale the IS-Sp/IS-Fu ordering is noisy, so only the
    # coarser shape is asserted.
    assert is_fu > 0.9
    assert is_sp > 1.0
    assert fe_sp <= 1.4
    assert fe_fu <= 1.6
    # The IS bars carry a visible SpecLoad + Expose/Validate share.
    blackscholes = result.row_for("blackscholes")
    assert "%" in blackscholes[6]
