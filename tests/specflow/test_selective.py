"""Acceptance for the closed loop: IS-Sel, the scheme that protects
only the PCs specflow could not prove harmless.

Two properties, both required:

* security — every attack PoC is defeated, *including* SSB and the
  exception family that IS-Spectre does not block (the analysis runs
  under the futuristic model, so their transmitters are in the
  protected set);
* performance — on workloads (which analyze all-SAFE) IS-Sel costs no
  more than IS-Spectre; in fact it matches Base cycle-for-cycle, since
  no protected PC ever appears in a workload trace.
"""

import pytest

from repro.configs import ProcessorConfig, Scheme
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.selective import compute_protected_pcs
from repro.runner import run_spec
from repro.security import POCS


@pytest.fixture(scope="module")
def protected():
    return compute_protected_pcs()


def test_protected_set_is_the_attack_transmitters(protected):
    # the workload programs contribute nothing: all their loads are SAFE
    assert protected == frozenset({0x7020, 0x7520, 0x800C, 0x900C})


class TestSecurity:
    @pytest.mark.parametrize("poc", POCS, ids=lambda poc: poc.name)
    def test_poc_defeated(self, protected, poc):
        config = ProcessorConfig(scheme=Scheme.SELECTIVE,
                                 protected_pcs=protected)
        _, recovered = poc.run(config, secret=poc.secret)
        assert recovered is None

    def test_ssb_leaks_under_is_spectre(self):
        # IS-Spectre does NOT block SSB; the analysis-guided scheme must
        # (test_poc_defeated), because it flags the transmitter under the
        # futuristic model
        from repro.security.ssb import run_ssb_attack

        _, leaked = run_ssb_attack(
            ProcessorConfig(scheme=Scheme.IS_SPECTRE), secret=113
        )
        assert leaked == 113


class TestPerformance:
    @pytest.mark.parametrize("app", ["mcf", "sjeng"])
    def test_overhead_at_most_is_spectre(self, protected, app):
        cycles = {}
        for scheme, pcs in [
            (Scheme.BASE, frozenset()),
            (Scheme.IS_SPECTRE, frozenset()),
            (Scheme.SELECTIVE, protected),
        ]:
            config = ProcessorConfig(scheme=scheme, protected_pcs=pcs)
            cycles[scheme] = run_spec(app, config, instructions=2000).cycles
        assert cycles[Scheme.SELECTIVE] <= cycles[Scheme.IS_SPECTRE]
        # no protected PC appears in any workload trace, so the selective
        # machine is cycle-identical to Base, not merely close
        assert cycles[Scheme.SELECTIVE] == cycles[Scheme.BASE]


def test_experiment_is_registered():
    assert "selective" in ALL_EXPERIMENTS
