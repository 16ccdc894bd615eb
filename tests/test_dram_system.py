"""Tests for the request-level DRAM timing model."""

import pytest

from repro.config import MitigationCommand, baseline_config
from repro.dram.address import BankAddress, DecodedAddress, RowAddress
from repro.dram.commands import Blackout, MitigationScope
from repro.dram.dram_system import DRAMSystem


def _decoded(channel=0, rank=0, bank_group=0, bank=0, row=0, column=0):
    return DecodedAddress(channel, rank, bank_group, bank, row, column)


@pytest.fixture
def dram():
    return DRAMSystem(baseline_config())


class TestAccessTiming:
    def test_first_access_pays_full_activation(self, dram):
        t = dram.timings
        result = dram.access(_decoded(row=5), is_write=False, earliest_ns=0.0)
        assert result.activated
        assert not result.row_hit
        expected = t.trfc_ns + t.trcd_ns + t.tcl_ns + t.tburst_ns
        # The first access also has to wait out the refresh blackout at t=0.
        assert result.completion_ns == pytest.approx(expected)

    def test_row_hit_is_faster_than_conflict(self, dram):
        first = dram.access(_decoded(row=5), False, 0.0)
        hit = dram.access(_decoded(row=5, column=3), False, first.completion_ns)
        conflict = dram.access(_decoded(row=9), False, hit.completion_ns)
        hit_latency = hit.completion_ns - first.completion_ns
        conflict_latency = conflict.completion_ns - hit.completion_ns
        assert hit.row_hit
        assert conflict.activated
        assert conflict_latency > hit_latency

    def test_same_bank_activations_respect_trc(self, dram):
        t = dram.timings
        first = dram.access(_decoded(row=1), False, 0.0)
        second = dram.access(_decoded(row=2), False, first.start_ns)
        bank = dram.bank_state(BankAddress(0, 0, 0, 0))
        assert bank.activations == 2
        assert second.completion_ns - first.start_ns >= t.trc_ns

    def test_different_banks_overlap(self, dram):
        a = dram.access(_decoded(bank=0, row=1), False, 0.0)
        b = dram.access(_decoded(bank=1, row=1), False, 0.0)
        # The second bank does not wait a full row cycle behind the first.
        assert b.completion_ns - a.completion_ns < dram.timings.trc_ns

    def test_write_recovery_blocks_bank(self, dram):
        write = dram.access(_decoded(row=1), is_write=True, earliest_ns=0.0)
        bank = dram.bank_state(BankAddress(0, 0, 0, 0))
        assert bank.ready_ns >= write.completion_ns + dram.timings.twr_ns

    def test_stats_track_hits_and_misses(self, dram):
        dram.access(_decoded(row=1), False, 0.0)
        dram.access(_decoded(row=1, column=2), False, 1000.0)
        dram.access(_decoded(row=2), False, 2000.0)
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 1
        assert dram.stats.row_conflicts == 1
        assert dram.row_buffer_hit_rate() == pytest.approx(1 / 3)

    def test_prac_style_extension_lengthens_activation(self, dram):
        base = dram.access(_decoded(bank=2, row=1), False, 0.0)
        other = DRAMSystem(baseline_config())
        extended = other.access(
            _decoded(bank=2, row=1), False, 0.0, extra_act_delay_ns=10.0
        )
        assert extended.completion_ns > base.completion_ns


class TestRefreshInteraction:
    def test_access_avoids_refresh_blackout(self, dram):
        t = dram.timings
        result = dram.access(_decoded(row=1), False, 0.0)
        assert result.start_ns >= t.trfc_ns

    def test_access_between_refreshes_not_delayed(self, dram):
        t = dram.timings
        start = t.trfc_ns + 100.0
        result = dram.access(_decoded(row=1), False, start)
        assert result.start_ns == pytest.approx(start)


class TestMitigations:
    def test_vrr_blocks_only_target_bank(self, dram):
        aggressor = RowAddress(BankAddress(0, 0, 0, 0), 100)
        duration = dram.victim_refresh(aggressor, 1, MitigationCommand.VRR, 1000.0)
        assert duration == pytest.approx(2 * dram.timings.vrr_per_victim_ns)
        blocked = dram.bank_state(BankAddress(0, 0, 0, 0))
        untouched = dram.bank_state(BankAddress(0, 0, 1, 0))
        assert blocked.blocked_until_ns == pytest.approx(1000.0 + duration)
        assert untouched.blocked_until_ns == 0.0

    def test_drfm_blocks_same_bank_in_every_group(self, dram):
        aggressor = RowAddress(BankAddress(0, 0, 2, 1), 100)
        dram.victim_refresh(aggressor, 2, MitigationCommand.DRFM_SB, 0.0)
        for group in range(dram.org.bank_groups_per_rank):
            bank = dram.bank_state(BankAddress(0, 0, group, 1))
            assert bank.blocked_until_ns == pytest.approx(dram.timings.drfm_sb_ns)
        other = dram.bank_state(BankAddress(0, 0, 0, 0))
        assert other.blocked_until_ns == 0.0

    def test_blast_radius_two_doubles_vrr_time(self, dram):
        aggressor = RowAddress(BankAddress(0, 0, 0, 0), 100)
        d1 = dram.victim_refresh(aggressor, 1, MitigationCommand.VRR, 0.0)
        d2 = dram.victim_refresh(aggressor, 2, MitigationCommand.VRR, 0.0)
        assert d2 == pytest.approx(2 * d1)

    def test_rank_blackout_blocks_and_closes_rows(self, dram):
        dram.access(_decoded(row=7), False, 0.0)
        blackout = Blackout(
            scope=MitigationScope.RANK,
            channel=0,
            rank=0,
            duration_ns=1_000_000.0,
            reason="test-reset",
        )
        end = dram.apply_blackout(blackout, 500.0)
        assert end == pytest.approx(500.0 + 1_000_000.0)
        assert dram.bank_state(BankAddress(0, 0, 0, 0)).open_row is None
        later = dram.access(_decoded(row=9), False, 600.0)
        assert later.start_ns >= end

    def test_channel_blackout_blocks_both_ranks(self, dram):
        blackout = Blackout(
            scope=MitigationScope.CHANNEL,
            channel=1,
            rank=0,
            duration_ns=10_000.0,
            reason="test",
        )
        dram.apply_blackout(blackout, 0.0)
        delayed = dram.access(_decoded(channel=1, rank=1, row=3), False, 0.0)
        assert delayed.start_ns >= 10_000.0
        unaffected = dram.access(_decoded(channel=0, row=3), False, 0.0)
        assert unaffected.start_ns < 10_000.0

    def test_blackout_statistics(self, dram):
        blackout = Blackout(
            scope=MitigationScope.BANK, channel=0, rank=0, duration_ns=100.0, reason="x"
        )
        dram.apply_blackout(blackout, 0.0)
        assert dram.stats.blackouts == 1
        assert dram.stats.blackout_time_ns == pytest.approx(100.0)
        assert dram.stats.blackout_time_by_reason["x"] == pytest.approx(100.0)


class TestCounterTraffic:
    def test_counter_accesses_round_robin_banks(self, dram):
        for _ in range(8):
            dram.counter_access(0, 0, 0.0, is_write=False)
        org = dram.org
        activated = [
            BankAddress(0, 0, group, bank)
            for group in range(org.bank_groups_per_rank)
            for bank in range(org.banks_per_group)
            if dram.bank_state(BankAddress(0, 0, group, bank)).activations
        ]
        assert len(activated) == 8
        assert all(dram.bank_state(bank).activations == 1 for bank in activated)
        assert dram.stats.activations == 8
        assert dram.stats.counter_reads == 8

    def test_counter_writes_counted_separately(self, dram):
        dram.counter_access(0, 0, 0.0, is_write=True)
        assert dram.stats.counter_writes == 1
        assert dram.stats.counter_reads == 0

    def test_counter_accesses_consume_bank_time(self, dram):
        before = dram.stats.activations
        dram.counter_access(0, 0, 0.0, is_write=False)
        assert dram.stats.activations == before + 1


class TestEnergyAccounting:
    def test_energy_report_includes_refresh(self, dram):
        dram.access(_decoded(row=1), False, 0.0)
        report = dram.energy_report(elapsed_ns=1_000_000.0)
        assert report.total_nj > 0
        from repro.dram.commands import CommandKind

        assert report.command_counts[CommandKind.REF] > 0
        assert report.command_counts[CommandKind.ACT] == 1
