"""Tests for the system configuration objects."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    DRAMOrganization,
    DRAMTimings,
    MitigationCommand,
    RowHammerConfig,
    baseline_config,
    large_system_config,
    reduced_row_config,
)


class TestDRAMOrganization:
    def test_baseline_matches_table1(self):
        org = DRAMOrganization()
        assert org.channels == 2
        assert org.ranks_per_channel == 2
        assert org.bank_groups_per_rank == 8
        assert org.banks_per_group == 4
        assert org.rows_per_bank == 64 * 1024
        assert org.row_size_bytes == 8 * 1024

    def test_derived_bank_counts(self):
        org = DRAMOrganization()
        assert org.banks_per_rank == 32
        assert org.banks_per_channel == 64
        assert org.total_banks == 128

    def test_rows_per_rank_is_two_million(self):
        org = DRAMOrganization()
        assert org.rows_per_rank == 2 * 1024 * 1024

    def test_total_capacity_is_64_gb(self):
        org = DRAMOrganization()
        assert org.total_bytes == 64 * 1024 ** 3
        assert org.bytes_per_channel == 32 * 1024 ** 3

    def test_rank_row_bits(self):
        org = DRAMOrganization()
        assert org.rank_row_bits == 21

    def test_lines_per_row(self):
        org = DRAMOrganization()
        assert org.lines_per_row == 128


class TestTimings:
    def test_defaults_match_table1(self):
        t = DRAMTimings()
        assert t.trc_ns == 48.0
        assert t.trfc_ns == 295.0
        assert t.trefi_ns == 3900.0
        assert t.trefw_ns == 32_000_000.0

    def test_scaled_refresh_window(self):
        t = DRAMTimings().scaled_refresh_window(0.5)
        assert t.trefw_ns == 16_000_000.0
        # Other parameters are untouched.
        assert t.trc_ns == 48.0

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_refresh_window_scale_must_be_positive(self, scale):
        with pytest.raises(ValueError, match="refresh-window scale must be > 0"):
            DRAMTimings().scaled_refresh_window(scale)

    def test_timings_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DRAMTimings().trc_ns = 1.0


class TestRowHammerConfig:
    def test_mitigation_threshold_is_half_nrh(self):
        assert RowHammerConfig(nrh=500).mitigation_threshold == 250
        assert RowHammerConfig(nrh=125).mitigation_threshold == 62

    def test_default_command_is_vrr(self):
        assert RowHammerConfig().mitigation_command is MitigationCommand.VRR

    @pytest.mark.parametrize("nrh", [0, -1])
    def test_threshold_below_one_is_refused(self, nrh):
        with pytest.raises(ValueError, match="RowHammer threshold must be >= 1"):
            RowHammerConfig(nrh=nrh)
        with pytest.raises(ValueError, match="RowHammer threshold must be >= 1"):
            baseline_config().with_nrh(nrh)


class TestSystemConfig:
    def test_with_nrh_returns_new_config(self):
        config = baseline_config(nrh=500)
        other = config.with_nrh(1000)
        assert other.rowhammer.nrh == 1000
        assert config.rowhammer.nrh == 500

    def test_with_mitigation(self):
        config = baseline_config().with_mitigation(MitigationCommand.DRFM_SB, 2)
        assert config.rowhammer.mitigation_command is MitigationCommand.DRFM_SB
        assert config.rowhammer.blast_radius == 2

    def test_with_mitigation_keeps_blast_radius_when_omitted(self):
        config = baseline_config().with_mitigation(MitigationCommand.RFM_SB)
        assert config.rowhammer.blast_radius == 1

    def test_with_refresh_window_scale(self):
        config = baseline_config().with_refresh_window_scale(0.25)
        assert config.timings.trefw_ns == 8_000_000.0

    def test_with_llc_size(self):
        config = baseline_config().with_llc_size(4 * 1024 * 1024)
        assert config.llc.size_bytes == 4 * 1024 * 1024

    def test_cache_sets(self):
        assert CacheConfig().num_sets == 8192


class TestPresets:
    def test_baseline_config_nrh(self):
        assert baseline_config(nrh=250).rowhammer.nrh == 250

    def test_large_system_has_eight_channels(self):
        config = large_system_config(per_core_llc_mb=3)
        assert config.dram.channels == 8
        assert config.llc.size_bytes == 3 * 1024 * 1024 * 4

    def test_reduced_row_config_shrinks_rows(self):
        config = reduced_row_config(rows_per_bank=4096)
        assert config.dram.rows_per_bank == 4096
        assert config.dram.rank_row_bits == 17
