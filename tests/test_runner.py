"""Runner helper tests (small instruction budgets)."""

from repro import ProcessorConfig
from repro.runner import run_parsec, run_spec


class TestRunSpec:
    def test_runs_and_measures(self):
        result = run_spec("hmmer", ProcessorConfig(), instructions=800)
        assert result.instructions == 800
        assert result.cycles > 0

    def test_warmup_default_is_half(self):
        result = run_spec("hmmer", ProcessorConfig(), instructions=800)
        assert result.cores[0].retired_instructions == 1200


class TestRunParsec:
    def test_eight_cores_retire(self):
        result = run_parsec(
            "swaptions", ProcessorConfig(), instructions=250, warmup=50
        )
        assert len(result.cores) == 8
        assert result.instructions == 8 * 250

