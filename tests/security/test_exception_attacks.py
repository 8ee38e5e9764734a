"""The Table I exception-attack family against the Table V configurations."""

import pytest

from repro import ProcessorConfig, Scheme
from repro.security import POCS, VARIANTS, run_exception_attack


@pytest.mark.parametrize("variant", sorted(VARIANTS))
class TestExceptionFamily:
    def test_base_leaks(self, variant):
        _lat, recovered = run_exception_attack(
            ProcessorConfig(scheme=Scheme.BASE), variant=variant, secret=177
        )
        assert recovered == 177

    def test_is_future_blocks(self, variant):
        _lat, recovered = run_exception_attack(
            ProcessorConfig(scheme=Scheme.IS_FUTURE), variant=variant,
            secret=177,
        )
        assert recovered is None

    def test_is_spectre_does_not_block(self, variant):
        """Exceptions are outside the Spectre attack model (Table II)."""
        _lat, recovered = run_exception_attack(
            ProcessorConfig(scheme=Scheme.IS_SPECTRE), variant=variant,
            secret=177,
        )
        assert recovered == 177


class TestVariantValidation:
    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            run_exception_attack(ProcessorConfig(), variant="spectre-v9")



def test_registry_matrix():
    """{PoC: (leaks on Base, leaks on IS-Fu)} over the whole registry:
    every PoC recovers its secret on the insecure baseline, and
    InvisiSpec-Future blocks every one."""
    matrix = {
        poc.name: tuple(
            poc.run(ProcessorConfig(scheme=scheme))[1] == poc.secret
            for scheme in (Scheme.BASE, Scheme.IS_FUTURE)
        )
        for poc in POCS
    }
    assert matrix == {poc.name: (True, False) for poc in POCS}


def test_registry_lists_every_attack_program():
    from repro.specflow import attack_programs

    names = [poc.name for poc in POCS]
    assert names == sorted(names)
    assert names == [prog.name for prog in attack_programs()]
