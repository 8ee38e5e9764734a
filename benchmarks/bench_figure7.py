"""Figure 7 benchmark: PARSEC execution time on 8 cores."""

from conftest import run_once

from repro.experiments import figures


def test_figure7_parsec_execution_time(benchmark, parsec_budget):
    apps, instructions = parsec_budget
    result = run_once(
        benchmark,
        figures.figure7,
        apps=apps,
        instructions=instructions,
        include_rc=False,
    )
    print()
    print(result.text)

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
