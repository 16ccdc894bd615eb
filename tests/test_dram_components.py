"""Tests for the smaller DRAM substrates: bank state and energy."""

import pytest

from repro.dram.bank import Bank
from repro.dram.commands import CommandKind
from repro.dram.energy import EnergyModel, EnergyParameters


class TestBank:
    def test_initial_state_is_idle(self):
        bank = Bank()
        assert bank.open_row is None
        assert bank.ready_ns == 0.0
        assert bank.blocked_until_ns == 0.0

    def test_precharge_closes_the_open_row(self):
        bank = Bank()
        bank.open_row = 7
        bank.precharge()
        assert bank.open_row is None

    def test_block_until_extends_availability(self):
        bank = Bank()
        bank.block_until(100.0)
        assert bank.blocked_until_ns == 100.0
        assert bank.ready_ns == 100.0
        bank.block_until(50.0)       # shorter blackout does not shrink it
        assert bank.blocked_until_ns == 100.0
        assert bank.ready_ns == 100.0


class TestEnergyModel:
    def test_record_and_report(self):
        model = EnergyModel(num_ranks=4)
        model.record(CommandKind.ACT, 100)
        model.record(CommandKind.RD, 100)
        report = model.report(elapsed_ns=1_000.0)
        params = EnergyParameters()
        expected_dynamic = 100 * params.act_pre_nj + 100 * params.rd_nj
        assert report.dynamic_nj == pytest.approx(expected_dynamic)
        assert report.background_nj > 0

    def test_overhead_vs_baseline(self):
        base_model = EnergyModel(num_ranks=4)
        base_model.record(CommandKind.ACT, 100)
        base = base_model.report(1000.0)

        heavy_model = EnergyModel(num_ranks=4)
        heavy_model.record(CommandKind.ACT, 100)
        heavy_model.record(CommandKind.VRR, 500)
        heavy = heavy_model.report(1000.0)

        assert heavy.overhead_vs(base) > 0
        assert base.overhead_vs(base) == pytest.approx(0.0)

    def test_background_scales_with_time_and_ranks(self):
        small = EnergyModel(num_ranks=1).report(1000.0)
        large = EnergyModel(num_ranks=4).report(1000.0)
        assert large.background_nj == pytest.approx(4 * small.background_nj)

    def test_all_commands_have_energies(self):
        params = EnergyParameters()
        for kind in CommandKind:
            assert params.command_energy_nj(kind) >= 0.0
