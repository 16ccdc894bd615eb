"""Unit tests for the baseline RowHammer trackers."""

import pytest

from repro.config import baseline_config
from repro.dram.address import BankAddress, RowAddress
from repro.dram.commands import MitigationScope
from repro.trackers.abacus import AbacusTracker, misra_gries_entries
from repro.trackers.blockhammer import BlockHammerTracker
from repro.trackers.comet import CoMeTTracker
from repro.trackers.hydra import HydraTracker
from repro.trackers.none import NoMitigation
from repro.trackers.para import ParaTracker
from repro.trackers.prac import PracTracker
from repro.trackers.pride import PrideTracker
from repro.trackers.start import StartTracker


def _row(row=1000, bank=0, bank_group=0, rank=0, channel=0):
    return RowAddress(BankAddress(channel, rank, bank_group, bank), row)


@pytest.fixture
def config():
    return baseline_config(nrh=500)


class TestNoMitigation:
    def test_never_mitigates(self, config):
        tracker = NoMitigation(config)
        for _ in range(10_000):
            assert tracker.on_activation(_row(), 0.0).is_empty
        assert tracker.storage_report().sram_bytes == 0


class TestHydra:
    def test_group_counting_has_no_dram_traffic(self, config):
        tracker = HydraTracker(config)
        response = tracker.on_activation(_row(), 0.0)
        assert response.is_empty

    def test_transition_to_per_row_tracking(self, config):
        tracker = HydraTracker(config)
        # Drive the group counter past 80% of the mitigation threshold.
        for i in range(tracker.group_threshold):
            tracker.on_activation(_row(row=i % HydraTracker.GROUP_SIZE), 0.0)
        response = tracker.on_activation(_row(row=0), 0.0)
        # Now in per-row mode: the first access misses the RCC and fetches.
        assert response.counter_reads == 1

    def test_rcc_hit_avoids_dram_traffic(self, config):
        tracker = HydraTracker(config)
        for i in range(tracker.group_threshold + 1):
            tracker.on_activation(_row(row=0), 0.0)
        response = tracker.on_activation(_row(row=0), 0.0)
        assert response.counter_reads == 0

    def test_mitigation_at_threshold(self, config):
        tracker = HydraTracker(config)
        mitigated = False
        for _ in range(config.rowhammer.mitigation_threshold + 10):
            response = tracker.on_activation(_row(row=7), 0.0)
            if response.mitigations:
                mitigated = True
                assert response.mitigations[0].row == 7
                break
        assert mitigated

    def test_set_conflicts_cause_eviction_writebacks(self, config):
        tracker = HydraTracker(config)
        rows = [5 + i * 128 for i in range(64)]      # same RCC set, > 32 ways
        # Enter per-row mode for each row's group first.
        for row in rows:
            for _ in range(tracker.group_threshold + 1):
                tracker.on_activation(_row(row=row), 0.0)
        writes = 0
        for _ in range(3):
            for row in rows:
                response = tracker.on_activation(_row(row=row), 0.0)
                writes += response.counter_writes
        assert writes > 0

    def test_refresh_window_reset(self, config):
        tracker = HydraTracker(config)
        for _ in range(tracker.group_threshold + 1):
            tracker.on_activation(_row(row=0), 0.0)
        tracker.on_refresh_window(1, 0.0)
        assert tracker.on_activation(_row(row=0), 0.0).is_empty

    def test_storage_in_paper_ballpark(self, config):
        report = HydraTracker(config).storage_report()
        assert 30 <= report.sram_kb <= 90


class TestStart:
    def test_reserves_half_of_llc(self, config):
        from repro.cache.llc import SharedLLC

        tracker = StartTracker(config)
        llc = SharedLLC(config.llc)
        tracker.configure_llc(llc)
        assert llc.reserved_ways == config.llc.ways // 2

    def test_counter_cache_miss_costs_dram_traffic(self, config):
        tracker = StartTracker(config)
        first = tracker.on_activation(_row(row=0), 0.0)
        assert first.counter_reads == 1
        again = tracker.on_activation(_row(row=0), 0.0)
        assert again.counter_reads == 0

    def test_counters_in_same_line_share_fetch(self, config):
        tracker = StartTracker(config)
        tracker.on_activation(_row(row=0), 0.0)
        neighbour = tracker.on_activation(_row(row=1), 0.0)
        assert neighbour.counter_reads == 0

    def test_mitigation_at_threshold(self, config):
        tracker = StartTracker(config)
        responses = [
            tracker.on_activation(_row(row=3), 0.0)
            for _ in range(config.rowhammer.mitigation_threshold)
        ]
        assert any(response.mitigations for response in responses)

    def test_streaming_evicts_counter_lines(self):
        import dataclasses

        from repro.config import CacheConfig

        # Shrink the LLC so the reserved counter region holds only 2K lines;
        # streaming over more distinct counter lines than that must evict the
        # victim row's counter line and force a re-fetch.
        small_llc = dataclasses.replace(
            baseline_config(nrh=500), llc=CacheConfig(size_bytes=256 * 1024)
        )
        tracker = StartTracker(small_llc)
        tracker.on_activation(_row(row=0), 0.0)
        capacity_lines = tracker._counter_cache.num_entries
        rows_per_bank = small_llc.dram.rows_per_bank
        lines_per_bank = rows_per_bank // StartTracker.COUNTERS_PER_LINE
        for i in range(capacity_lines + 64):
            bank_local = (i // lines_per_bank) % 32
            row = (i % lines_per_bank) * StartTracker.COUNTERS_PER_LINE
            tracker.on_activation(
                _row(row=row, bank=bank_local % 4, bank_group=bank_local // 4), 0.0
            )
        revisit = tracker.on_activation(_row(row=0), 0.0)
        assert revisit.counter_reads == 1


class TestCoMeT:
    def test_benign_row_needs_threshold_activations(self, config):
        tracker = CoMeTTracker(config)
        responses = [
            tracker.on_activation(_row(row=11), 0.0) for _ in range(tracker.ct_threshold)
        ]
        assert any(r.mitigations for r in responses)
        assert not any(r.blackouts for r in responses)

    def test_rat_suppresses_repeated_mitigations(self, config):
        tracker = CoMeTTracker(config)
        for _ in range(tracker.ct_threshold):
            tracker.on_activation(_row(row=11), 0.0)
        # The sketch is saturated for this row, but the RAT now tracks it
        # precisely, so the very next activation must not mitigate again.
        response = tracker.on_activation(_row(row=11), 0.0)
        assert not response.mitigations

    def test_rat_thrashing_triggers_early_reset(self, config):
        tracker = CoMeTTracker(config)
        rows = list(range(400))                       # far more than 128 RAT entries
        blackouts = []
        for _ in range(tracker.ct_threshold + 2):
            for row in rows:
                response = tracker.on_activation(_row(row=row), 1000.0)
                blackouts.extend(response.blackouts)
            if blackouts:
                break
        assert blackouts
        assert blackouts[0].scope is MitigationScope.RANK
        assert tracker.stats.structure_resets >= 1

    def test_periodic_reset_clears_sketch(self, config):
        tracker = CoMeTTracker(config)
        for _ in range(tracker.ct_threshold - 1):
            tracker.on_activation(_row(row=5), 0.0)
        late = config.timings.trefw_ns / 3 + 1.0
        response = tracker.on_activation(_row(row=5), late)
        assert not response.mitigations
        assert tracker.stats.periodic_resets >= 1

    @pytest.mark.xfail(
        strict=True,
        reason="on_activation advances the periodic-reset deadline by one "
        "tREFW/3 per activation, so after an idle gap spanning k period "
        "boundaries the next k activations each wipe the sketch again",
    )
    def test_periodic_reset_catches_up_after_idle_gap(self, config):
        tracker = CoMeTTracker(config)
        period = config.timings.trefw_ns * tracker.PERIODIC_RESET_FRACTION
        start = 3.5 * period
        responses = [
            tracker.on_activation(_row(row=5), start + step)
            for step in range(tracker.ct_threshold)
        ]
        # One reset for the gap, then ct_threshold counted activations.
        assert tracker.stats.periodic_resets == 1
        assert responses[-1].mitigations


class TestAbacus:
    def test_entry_counts_match_paper(self):
        assert misra_gries_entries(500) == 2466
        assert misra_gries_entries(1000) == 1233
        assert misra_gries_entries(125) == 9783

    def test_entry_count_scales_with_refresh_window(self):
        scaled = misra_gries_entries(500, trefw_ns=2_000_000.0)
        assert scaled < 2466

    def test_sibling_activations_do_not_overcount(self, config):
        tracker = AbacusTracker(config)
        for bank in range(4):
            response = tracker.on_activation(_row(row=9, bank=bank), 0.0)
            assert response.is_empty

    def test_hammering_one_row_triggers_mitigation(self, config):
        tracker = AbacusTracker(config)
        responses = [
            tracker.on_activation(_row(row=9), 0.0)
            for _ in range(config.rowhammer.mitigation_threshold + 2)
        ]
        assert any(r.mitigations for r in responses)

    def test_spillover_overflow_resets_channel(self):
        config = baseline_config(nrh=500).with_refresh_window_scale(1 / 64)
        tracker = AbacusTracker(config)
        blackout_seen = False
        row_id = 0
        for _ in range(tracker.entries * (config.rowhammer.mitigation_threshold + 20)):
            response = tracker.on_activation(
                _row(row=row_id % config.dram.rows_per_bank, bank=row_id % 4), 0.0
            )
            row_id += 1
            if response.blackouts:
                assert response.blackouts[0].scope is MitigationScope.CHANNEL
                blackout_seen = True
                break
        assert blackout_seen


class TestBlockHammer:
    def test_benign_rows_not_throttled(self, config):
        tracker = BlockHammerTracker(config)
        assert tracker.throttle_delay_ns(_row(row=1), 0.0) == 0.0

    def test_hot_row_gets_throttled(self, config):
        tracker = BlockHammerTracker(config)
        row = _row(row=77)
        for _ in range(tracker.blacklist_threshold + 1):
            tracker.on_activation(row, 0.0)
        first = tracker.throttle_delay_ns(row, 0.0)
        second = tracker.throttle_delay_ns(row, 0.0)
        assert first >= 0.0
        assert second > 0.0
        assert tracker.stats.throttled_requests >= 1

    def test_throttle_enforces_minimum_spacing(self, config):
        tracker = BlockHammerTracker(config)
        row = _row(row=77)
        for _ in range(tracker.blacklist_threshold + 1):
            tracker.on_activation(row, 0.0)
        tracker.throttle_delay_ns(row, 0.0)
        delay = tracker.throttle_delay_ns(row, 0.0)
        assert delay >= tracker.throttle_interval_ns * 0.5

    def test_never_issues_refreshes(self, config):
        tracker = BlockHammerTracker(config)
        for i in range(1000):
            assert not tracker.on_activation(_row(row=i % 50), 0.0).mitigations

    def test_epoch_rotation_clears_blacklist(self, config):
        tracker = BlockHammerTracker(config)
        row = _row(row=77)
        for _ in range(tracker.blacklist_threshold + 1):
            tracker.on_activation(row, 0.0)
        later = config.timings.trefw_ns   # past the half-window epoch
        assert tracker.throttle_delay_ns(row, later) == 0.0


class TestProbabilisticAndPrac:
    def test_para_mitigation_rate_tracks_probability(self, config):
        tracker = ParaTracker(config)
        total = 20_000
        mitigations = sum(
            bool(tracker.on_activation(_row(row=i % 100), 0.0).mitigations)
            for i in range(total)
        )
        expected = tracker.probability * total
        assert 0.5 * expected < mitigations < 1.5 * expected

    def test_para_probability_scales_inversely_with_nrh(self):
        low = ParaTracker(baseline_config(nrh=125)).probability
        high = ParaTracker(baseline_config(nrh=4000)).probability
        assert low > high

    def test_pride_paces_mitigations_per_bank(self, config):
        tracker = PrideTracker(config)
        mitigations = 0
        for i in range(tracker.activations_per_mitigation * 4):
            if tracker.on_activation(_row(row=i % 64), 0.0).mitigations:
                mitigations += 1
        assert mitigations == 4

    def test_prac_extends_every_activation(self, config):
        tracker = PracTracker(config)
        assert tracker.activation_extension_ns() > 0.0

    def test_prac_mitigates_at_threshold_exactly_once(self, config):
        tracker = PracTracker(config)
        mitigations = 0
        for _ in range(config.rowhammer.mitigation_threshold):
            if tracker.on_activation(_row(row=4), 0.0).mitigations:
                mitigations += 1
        assert mitigations == 1

    def test_storage_reports_exist_for_all(self, config):
        for cls in (ParaTracker, PrideTracker, PracTracker, BlockHammerTracker):
            report = cls(config).storage_report()
            assert report.sram_bytes >= 0
