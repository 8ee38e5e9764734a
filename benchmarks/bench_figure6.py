"""Figure 6 benchmark: normalized SPEC network traffic with the
SpecLoad / Expose+Validate breakdown."""

from conftest import run_once

from repro.experiments import figures


def test_figure6_spec_traffic(benchmark, spec_budget):
    apps, instructions = spec_budget
    result = run_once(
        benchmark,
        figures.figure6,
        apps=apps,
        instructions=instructions,
        include_rc=False,
    )
    print()
    print(result.text)

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
