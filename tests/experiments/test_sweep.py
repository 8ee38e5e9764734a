"""Parameter-sweep experiment smoke test (tiny budget)."""

from repro.experiments import sweep


class TestVariance:
    def test_variance_rows(self):
        from repro.experiments import variance

        result = variance.run(apps=("hmmer",), instructions=400,
                              seeds=(0, 1))
        row = result.row_for("hmmer")
        assert row is not None
        assert row[1] > 0.5  # IS-Sp mean overhead factor
        assert row[2] >= 0.0  # std

    def test_overheads_across_seeds(self):
        from repro.experiments import variance

        result = variance.run(apps=("hmmer",), instructions=600,
                              seeds=(0, 1))
        mean, std = result.row_for("hmmer")[1:3]  # IS-Sp
        assert mean > 0.5
        assert std >= 0.0

    def test_base_runs_once_per_app_and_seed(self, monkeypatch):
        from repro import runner
        from repro.configs import Scheme
        from repro.experiments import variance

        calls = []
        run_spec = runner.run_spec

        def counting_run_spec(name, config, seed=0, **kwargs):
            calls.append((name, config.scheme, seed))
            return run_spec(name, config, seed=seed, **kwargs)

        monkeypatch.setattr(runner, "run_spec", counting_run_spec)
        variance.run(apps=("hmmer",), instructions=300, seeds=(0, 1))
        assert sorted(calls, key=str) == sorted(
            [
                ("hmmer", scheme, seed)
                for seed in (0, 1)
                for scheme in (Scheme.BASE, Scheme.IS_SPECTRE,
                               Scheme.IS_FUTURE)
            ],
            key=str,
        )


class TestSweep:
    def test_single_dimension_rows(self):
        result = sweep.run(app="hmmer", dimensions=("lq",), instructions=500)
        labels = [row[0] for row in result.rows]
        assert labels == ["lq:LQ=16", "lq:LQ=32", "lq:LQ=64"]
        for row in result.rows:
            assert row[1] > 0  # base cycles
            assert row[2] > 0  # IS-Fu cycles
            assert row[3].endswith("%")

    def test_dram_dimension_monotone_base(self):
        result = sweep.run(app="hmmer", dimensions=("dram",),
                           instructions=500)
        base_cycles = [row[1] for row in result.rows]
        # Higher DRAM latency never speeds up the baseline.
        assert base_cycles == sorted(base_cycles)
