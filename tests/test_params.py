"""Parameter dataclass validation (Table IV defaults)."""

import pytest

from repro import CacheParams, ConfigError, CoreParams, NetworkParams, SystemParams
from repro.params import TLBParams


class TestCacheParams:
    def test_defaults_match_table_iv_l1d(self):
        params = SystemParams().l1d
        assert params.size_bytes == 64 * 1024
        assert params.line_bytes == 64
        assert params.ways == 8
        assert params.round_trip_latency == 1
        assert params.ports == 3

    def test_num_sets_and_lines(self):
        params = CacheParams(size_bytes=64 * 1024, line_bytes=64, ways=8)
        assert params.num_lines == 1024
        assert params.num_sets == 128

    def test_l2_bank_matches_table_iv(self):
        params = SystemParams().l2_bank
        assert params.size_bytes == 2 * 1024 * 1024
        assert params.ways == 16
        assert params.round_trip_latency == 8

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheParams(size_bytes=1024, line_bytes=48)

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigError):
            CacheParams(size_bytes=-1)

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ConfigError):
            CacheParams(size_bytes=1000, line_bytes=64, ways=8)


class TestCoreParams:
    def test_defaults_match_table_iv(self):
        core = CoreParams()
        assert core.issue_width == 8
        assert core.rob_entries == 192
        assert core.load_queue_entries == 32
        assert core.store_queue_entries == 32
        assert core.btb_entries == 4096
        assert core.ras_entries == 16

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigError):
            CoreParams(issue_width=0)

    def test_interrupt_interval_zero_allowed(self):
        assert CoreParams(interrupt_interval=0).interrupt_interval == 0

    def test_rejects_negative_interrupt_interval(self):
        with pytest.raises(ConfigError):
            CoreParams(interrupt_interval=-5)


class TestTLBParams:
    def test_defaults(self):
        tlb = TLBParams()
        assert tlb.entries == 64
        assert tlb.page_bytes == 4096

    def test_rejects_non_power_of_two_page(self):
        with pytest.raises(ConfigError):
            TLBParams(page_bytes=5000)


class TestNetworkParams:
    def test_defaults_match_table_iv(self):
        net = NetworkParams()
        assert net.mesh_cols == 4
        assert net.mesh_rows == 2
        assert net.link_bits == 128
        assert net.hop_latency == 1
        assert net.num_nodes == 8

    def test_data_message_carries_line_plus_header(self):
        net = NetworkParams()
        assert net.data_message_bytes == 72
        assert net.control_message_bytes == 8


class TestSystemParams:
    def test_for_spec_is_single_core_single_bank(self):
        params = SystemParams.for_spec()
        assert params.num_cores == 1
        assert params.num_l2_banks == 1

    def test_for_parsec_is_eight_cores(self):
        params = SystemParams.for_parsec()
        assert params.num_cores == 8
        assert params.num_l2_banks == 8

    def test_default_banks_track_cores(self):
        assert SystemParams(num_cores=4).num_l2_banks == 4

    def test_dram_latency_is_100_cycles(self):
        # 50 ns at 2 GHz.
        assert SystemParams().dram_latency == 100

    def test_rejects_more_cores_than_mesh_nodes(self):
        with pytest.raises(ConfigError):
            SystemParams(num_cores=9)

    def test_rejects_line_size_mismatch(self):
        with pytest.raises(ConfigError):
            SystemParams(
                l1d=CacheParams(size_bytes=64 * 1024, line_bytes=32, ways=8),
            )

    def test_replace_returns_modified_copy(self):
        params = SystemParams()
        other = params.replace(dram_latency=200)
        assert other.dram_latency == 200
        assert params.dram_latency == 100
