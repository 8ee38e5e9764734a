"""Processor configuration (Table V) tests."""

import pytest

from repro import (
    ALL_SCHEMES,
    ConfigError,
    ConsistencyModel,
    ProcessorConfig,
    Scheme,
    config_matrix,
)


class TestScheme:
    def test_five_schemes_in_paper_order(self):
        assert [s.value for s in ALL_SCHEMES] == [
            "Base", "Fe-Sp", "IS-Sp", "Fe-Fu", "IS-Fu",
        ]

    def test_invisispec_flags(self):
        assert Scheme.IS_SPECTRE.is_invisispec
        assert Scheme.IS_FUTURE.is_invisispec
        assert not Scheme.BASE.is_invisispec
        assert not Scheme.FENCE_SPECTRE.is_invisispec


class TestProcessorConfig:
    def test_defaults(self):
        config = ProcessorConfig()
        assert config.scheme is Scheme.BASE
        assert config.consistency is ConsistencyModel.TSO
        assert config.llc_sb_enabled
        assert config.val_to_exp_optimization
        assert config.early_squash

    def test_name_combines_scheme_and_consistency(self):
        config = ProcessorConfig(
            scheme=Scheme.IS_FUTURE, consistency=ConsistencyModel.RC
        )
        assert config.name == "IS-Fu/RC"

    def test_rejects_non_scheme(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(scheme="base")

    def test_rejects_non_consistency(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(consistency="TSO")

    def test_config_matrix_covers_all_schemes(self):
        matrix = config_matrix()
        assert [c.scheme for c in matrix] == list(ALL_SCHEMES)
        assert all(c.consistency is ConsistencyModel.TSO for c in matrix)

    def test_config_matrix_rc(self):
        matrix = config_matrix(ConsistencyModel.RC)
        assert all(c.consistency is ConsistencyModel.RC for c in matrix)

    def test_frozen(self):
        config = ProcessorConfig()
        with pytest.raises(AttributeError):
            config.scheme = Scheme.IS_FUTURE
