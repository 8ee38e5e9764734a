"""Figure 4 benchmark: normalized SPEC execution time across the five
configurations (reduced app subset).

Checks the paper's shape: Fe-Sp and Fe-Fu cost far more than IS-Sp and
IS-Fu; IS overheads stay within small multiples of the baseline.
"""

from conftest import run_once

from repro.configs import Scheme
from repro.experiments import figures


def test_figure4_spec_execution_time(benchmark, spec_budget):
    apps, instructions = spec_budget
    result = run_once(
        benchmark,
        figures.figure4,
        apps=apps,
        instructions=instructions,
        include_rc=True,
    )
    print()
    print(result.text)

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
